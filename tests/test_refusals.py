"""Library refusals: each bad argument raises its exception type with its
exact message, before any work is done on it."""

from fractions import Fraction

import numpy as np
import pytest

import tda
from tda import fields
from tda.errors import InvalidCosheafError, InvalidMetricError, NonlinearNerveError, TdaError

EDGE = tda.build_complex([[0, 1]])
LINE = [[0.0], [1.0]]


def rank_past_the_slots():
    z = tda.ZigzagModule([1, 1], [("fwd", np.eye(1, dtype=np.int64))])
    return tda.generalized_rank(z, 0, 5)


def coordinates_of_too_many_rows():
    q = fields.Quotient(np.zeros((0, 2), dtype=np.int64), np.zeros((2, 0), dtype=np.int64), 2)
    return q.coordinates(np.zeros((3, 1), dtype=np.int64))


REFUSALS = {
    "zigzag-arrow-count": (lambda: tda.ZigzagModule([1, 1], []), TdaError, "need 1 arrows for 2 slots, got 0"),
    "module-map-count": (lambda: tda.ExplicitModule([1, 1], []), TdaError, "need 1 maps for 2 grades, got 0"),
    "integer-bar-reversed": (lambda: tda.IntegerBar(2, 1), TdaError, "bad integer bar [2, 1]"),
    "integer-bar-multiplicity": (lambda: tda.IntegerBar(0, 0, 0), TdaError, "bar multiplicity must be >= 1, got 0"),
    "rank-slots": (rank_past_the_slots, ValueError, "slot range [0, 5] out of bounds for 2 slots"),
    "barcode-rank-order": (lambda: tda.Barcode().rank(1.0, 0.0), ValueError, "need r <= s, got 1.0 > 0.0"),
    "degenerate-interval": (lambda: tda.IntervalCover([(1.0, 1.0)]), NonlinearNerveError, "degenerate interval (1.0, 1.0)"),
    "eccentricity-exponent": (
        lambda: tda.eccentricity_values(LINE, 0.5),
        ValueError,
        "eccentricity exponent must be >= 1, got 0.5",
    ),
    "ball-of-no-points": (
        lambda: tda.min_enclosing_ball(np.zeros((0, 2))),
        ValueError,
        "min_enclosing_ball needs at least one point",
    ),
    "negative-constant-stalk": (
        lambda: tda.constant_cosheaf(EDGE, -1),
        ValueError,
        "stalk dimension must be nonnegative, got -1",
    ),
    "stalk-off-the-base": (
        lambda: tda.SimplicialCosheaf(EDGE, {(0,): 1, (1,): 1, (0, 1): 1, (2,): 1}),
        InvalidCosheafError,
        "stalks given for simplices not in the base: [(2,)]",
    ),
    "rips-max-dim": (lambda: tda.rips_filtration(LINE, -1, 1.0), ValueError, "max_dim must be nonnegative, got -1"),
    "rips-max-radius": (lambda: tda.rips_filtration(LINE, 1, 0.0), ValueError, "max_radius must be positive, got 0.0"),
    "one-dimensional-points": (
        lambda: tda.rips_filtration([0.0, 1.0], 1, 1.0),
        ValueError,
        "a point cloud must be a 2-D array of coordinates, got shape (2,)",
    ),
    "distances-not-square": (
        lambda: tda.rips_filtration(np.zeros((2, 3)), 1, 1.0, precomputed=True),
        InvalidMetricError,
        "distance matrix must be square, got shape (2, 3)",
    ),
    "negative-distance": (
        lambda: tda.rips_filtration([[0.0, -1.0], [-1.0, 0.0]], 1, 1.0, precomputed=True),
        InvalidMetricError,
        "distances must be nonnegative",
    ),
    "layer-shape": (
        lambda: tda.FilteredComplex.from_layers([(np.array([[0], [1]]), np.zeros(3))]),
        ValueError,
        "layer 0 needs 3 rows of 1 vertex ids, got (2, 1)",
    ),
    "coordinates-rows": (coordinates_of_too_many_rows, ValueError, "right-hand side has wrong number of rows"),
    "fraction-entry": (
        lambda: fields.integer_array([[Fraction(1, 2)]]),
        TdaError,
        "matrix entries must be integers, got Fraction(1, 2) at (0, 0)",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_library_refusals_keep_their_types_and_messages(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, message)
