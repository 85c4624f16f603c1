"""Cosheaf validation, boundary operators, homology, and bar census."""

import re
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tda
from conftest import (
    hollow_triangle,
    interval_complex,
    linear_cosheaves,
    matmul,
    random_complex,
    solid_triangle,
    square_violation,
    tuple_cosheaf_boundary,
    twisted_constant_cosheaf,
    zigzag_bars_oracle,
)
from tda import cosheaf as C
from tda import fields, zigzag
from tda.zigzag import BACKWARD, FORWARD, ZigzagModule
from tda.errors import InvalidCosheafError, NonlinearNerveError, NotASubcomplexError, TdaError


def open_interval_cosheaf():
    K = interval_complex()
    return C.SimplicialCosheaf(
        K,
        {(0,): 0, (1,): 0, (0, 1): 1},
        {((0,), (0, 1)): np.zeros((0, 1), int), ((1,), (0, 1)): np.zeros((0, 1), int)},
    )


def half_open_interval_cosheaf():
    K = interval_complex()
    return C.SimplicialCosheaf(
        K,
        {(0,): 1, (1,): 0, (0, 1): 1},
        {((0,), (0, 1)): np.ones((1, 1), int), ((1,), (0, 1)): np.zeros((0, 1), int)},
    )


def torus_leray_cosheaf():
    """The degree-1 Leray cosheaf of the upright torus over four pieces."""
    K = tda.build_complex([[0, 1], [1, 2], [2, 3]])
    diag = np.array([[1], [1]], dtype=np.int64)
    eye2 = np.eye(2, dtype=np.int64)
    stalks = {(0,): 0, (1,): 2, (2,): 2, (3,): 0, (0, 1): 1, (1, 2): 2, (2, 3): 1}
    maps = {
        ((0,), (0, 1)): np.zeros((0, 1), int),
        ((1,), (0, 1)): diag,
        ((1,), (1, 2)): eye2,
        ((2,), (1, 2)): eye2,
        ((2,), (2, 3)): diag,
        ((3,), (2, 3)): np.zeros((0, 1), int),
    }
    return C.SimplicialCosheaf(K, stalks, maps)


def test_constant_cosheaf_shape():
    K = solid_triangle()
    F = C.constant_cosheaf(K, 1)
    assert all(d == 1 for d in F.stalks.values())
    assert all(np.array_equal(M, np.eye(1, dtype=np.int64)) for M in F.maps.values())
    zero = C.constant_cosheaf(K, 0)
    assert all(d == 0 for d in zero.stalks.values())
    assert C.cosheaf_homology(zero, 0).dimension == 0


def test_validate_constant_ok():
    assert C.validate(C.constant_cosheaf(solid_triangle(), 2), 5) is None


def test_validate_reports_noncommuting_square():
    F = C.constant_cosheaf(solid_triangle(), 1)
    F.maps[((0,), (0, 1))] = np.array([[2]], dtype=np.int64)
    violation = C.validate(F, 5)
    assert violation is not None
    assert violation.coface == (0, 1, 2)
    with pytest.raises(InvalidCosheafError):
        C.cosheaf_homology(F, 0, 5)


def test_validate_vacuous_on_one_dimensional_base():
    K = hollow_triangle()
    F = C.constant_cosheaf(K, 1)
    F.maps[((0,), (0, 1))] = np.array([[3]], dtype=np.int64)  # no codim-2 squares exist
    assert C.validate(F, 5) is None


def test_missing_stalk_rejected():
    K = interval_complex()
    with pytest.raises(InvalidCosheafError):
        C.SimplicialCosheaf(K, {(0,): 1, (1,): 1}, {})


@pytest.mark.parametrize("kind", ["cosheaf", "sheaf"])
def test_extension_map_of_the_wrong_shape_is_rejected(kind):
    make = C.SimplicialCosheaf if kind == "cosheaf" else C.SimplicialSheaf
    K = interval_complex()
    expected = (1, 2) if kind == "cosheaf" else (2, 1)
    good = np.ones(expected, dtype=np.int64)
    for bad in (np.ones(expected[::-1], dtype=np.int64), np.ones((1, 3), dtype=np.int64)):
        with pytest.raises(InvalidCosheafError) as info:
            make(K, {(0,): 1, (1,): 1, (0, 1): 2}, {((0,), (0, 1)): good, ((1,), (0, 1)): bad})
        assert str(info.value) == (
            f"{kind} extension map ((1,), (0, 1)) has shape {bad.shape}, expected {expected}"
        )
    F = make(K, {(0,): 0, (1,): 1, (0, 1): 2}, {((0,), (0, 1)): [], ((1,), (0, 1)): good})
    assert F.maps[((0,), (0, 1))].shape == ((0, 2) if kind == "cosheaf" else (2, 0))


@pytest.mark.parametrize("kind", ["cosheaf", "sheaf"])
@pytest.mark.parametrize(
    "drop, add",
    [
        ([((1, 2), (0, 1, 2))], []),
        ([], [((0,), (0, 1, 2))]),
        ([], [((0, 1), (0, 1))]),
        ([], [((0,), (0, 1), (0, 1, 2))]),
        ([((0,), (0, 1))], [((0,), (1, 2))]),
    ],
    ids=["pair-dropped", "codimension-2-pair", "simplex-with-itself", "3-tuple-key", "pair-swapped-for-a-non-pair"],
)
def test_map_keys_are_exactly_the_face_coface_pairs(kind, drop, add):
    """Over the filled triangle, keys that are not the nine face/coface
    pairs are named as missing and unexpected, whether or not their count
    is right."""
    make = C.SimplicialCosheaf if kind == "cosheaf" else C.SimplicialSheaf
    K = solid_triangle()
    maps = {pair: np.eye(1, dtype=np.int64) for pair in C.codim1_pairs(K) if pair not in drop}
    maps.update((key, np.eye(1, dtype=np.int64)) for key in add)
    with pytest.raises(InvalidCosheafError) as info:
        make(K, {s: 1 for s in K.simplices}, maps)
    assert str(info.value) == f"{kind} extension maps mismatch; missing {drop}, unexpected {add}"


@pytest.mark.parametrize("kind", ["cosheaf", "sheaf"])
def test_non_integral_extension_map_is_rejected(kind):
    """A map entry of 0.5 raises, naming it, where a cast to int64 would
    truncate it to 0 and answer for another cosheaf; integral floats pass."""
    make = C.SimplicialCosheaf if kind == "cosheaf" else C.SimplicialSheaf
    K = interval_complex()
    stalks = {(0,): 1, (1,): 1, (0, 1): 1}
    with pytest.raises(TdaError, match=r"^matrix entries must be integers, got 0.5 at \(0, 0\)$"):
        make(K, stalks, {((0,), (0, 1)): [[0.5]], ((1,), (0, 1)): np.eye(1)})
    F = make(K, stalks, {((0,), (0, 1)): np.eye(1), ((1,), (0, 1)): np.eye(1)})
    assert all(M.dtype == np.int64 and M.tolist() == [[1]] for M in F.maps.values())


@st.composite
def perturbed_cosheaves(draw):
    """(cosheaf, field): a twisted constant cosheaf with stalks of dimension
    0-2, over F2, F3 or F5, with 0-3 maps replaced by random entries in
    [-p, 2p). The base is a random 2-dimensional complex on 3-7 vertices or
    1-6 tetrahedra on 4-7 vertices with their faces; over the latter the
    replaced maps are at times all triangle-to-tetrahedron maps, so that
    the first failing square lies in degree 3."""
    field = draw(st.sampled_from([2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        K = random_complex(rng, max_vertices=7)
    else:
        tetrahedra = list(combinations(range(draw(st.integers(4, 7))), 4))
        K = tda.build_complex(draw(st.lists(st.sampled_from(tetrahedra), min_size=1, max_size=6)))
    F = twisted_constant_cosheaf(rng, K, draw(st.integers(0, 2)), field)
    pairs = C.codim1_pairs(K)
    if K.dimension == 3 and draw(st.booleans()):
        pairs = [(face, coface) for face, coface in pairs if len(coface) == 4]
    for _ in range(draw(st.integers(0, 3)) if pairs else 0):
        pair = pairs[int(rng.integers(len(pairs)))]
        F.maps[pair] = rng.integers(-field, 2 * field, F.maps[pair].shape)
    return F, field


@settings(max_examples=300)
@given(perturbed_cosheaves())
def test_validate_equals_the_loop_over_every_square(case):
    """``validate``, read off the products d_{p-1} d_p, returns exactly what
    the loop over every square returns: None, or the same violation field
    by field; ``_quotients`` raises it as its message."""
    F, field = case
    expected = square_violation(F, field)
    assert C.validate(F, field) == expected
    if expected is not None:
        with pytest.raises(InvalidCosheafError, match=f"^{re.escape(str(expected))}$"):
            C._quotients(F, range(0, F.base.dimension + 1), field)


def test_validity_is_checked_on_the_reduced_boundaries(monkeypatch):
    """On a 2-dimensional base every route builds each d_k at most once,
    d_1 and d_2 for the squares and the others its degrees need, and
    multiplies no pair of extension maps; over a tetrahedron ``validate``
    builds d_1, d_2 and d_3 once each, and keeps none of them past its
    check but those of the degrees the reduction asks for."""
    K = tda.build_complex([[0, 1, 2], [1, 2, 3], [3, 4]])
    F = twisted_constant_cosheaf(np.random.default_rng(34), K, 2, 3)
    tetrahedron = twisted_constant_cosheaf(np.random.default_rng(35), tda.build_complex([[0, 1, 2, 3]]), 1, 3)
    bad = C.SimplicialCosheaf(K, dict(F.stalks), dict(F.maps))
    bad.maps[((1, 2), (1, 2, 3))] = np.zeros((2, 2), dtype=np.int64)
    built = []
    boundary = C._boundary
    monkeypatch.setattr(C, "_boundary", lambda F, k, field: built.append(k) or boundary(F, k, field))
    routes = [
        (lambda: C.validate(F, 3), [1, 2]),
        (lambda: C.cosheaf_homology(F, 0, 3), [0, 1, 2]),
        (lambda: C.cosheaf_homology(F, 2, 3), [1, 2, 3]),
        (lambda: C._quotients(F, range(0, 3), 3), [0, 1, 2, 3]),
        (lambda: C.validate(bad, 3), [1, 2]),
        (lambda: C.validate(tetrahedron, 3), [1, 2, 3]),
    ]
    for route, degrees in routes:
        built.clear()
        route()
        assert sorted(built) == degrees
    built.clear()
    with pytest.raises(InvalidCosheafError):
        C.cosheaf_homology(bad, 0, 3)
    assert sorted(built) == [1, 2]
    for keep in [(), range(0, 2), range(2, 4), range(1, 5)]:
        C._violation(tetrahedron, ds := {}, 3, keep)
        assert sorted(ds) == [k for k in (1, 2, 3) if k in keep]


def test_boundary_negates_the_most_negative_entry_exactly():
    """The block of a face of odd index is negated after reduction mod p,
    so an entry -2^63, whose int64 negation overflows, is still -x mod p."""
    K = interval_complex()
    low = np.iinfo(np.int64).min
    F = C.SimplicialCosheaf(K, {s: 1 for s in K.simplices}, {((0,), (0, 1)): [[low]], ((1,), (0, 1)): [[low]]})
    for p in (2, 3, 5, 7):
        assert C.cosheaf_boundary(F, 1, p)[:, 0].tolist() == [-low % p, low % p]


def test_interval_boundary_matrix_signs():
    # the classic single column: +1 on the face deleting vertex 0, -1 on
    # the other, i.e. [1, -1] in face-deletion order = (-1, +1) in the
    # sorted row order (x, y) used here
    F = C.constant_cosheaf(interval_complex(), 1)
    D = C.cosheaf_boundary(F, 1, 5)
    assert D.shape == (2, 1)
    assert D[:, 0].tolist() == [4, 1]
    D2 = C.cosheaf_boundary(F, 1, 2)
    assert D2[:, 0].tolist() == [1, 1]


def test_half_open_boundary_is_rank_one_unit():
    D = C.cosheaf_boundary(half_open_interval_cosheaf(), 1, 2)
    assert D.shape == (1, 1)
    assert D[0, 0] == 1


def test_boundary_squares_to_zero_on_twisted_cosheaves():
    rng = np.random.default_rng(30)
    for field in (2, 3):
        for _ in range(6):
            K = random_complex(rng, max_vertices=7)
            F = twisted_constant_cosheaf(rng, K, 2, field)
            assert C.validate(F, field) is None
            for p in range(1, K.dimension + 1):
                prod = matmul(
                    C.cosheaf_boundary(F, p, field),
                    C.cosheaf_boundary(F, p + 1, field),
                    field,
                )
                assert not prod.any()


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]))
def test_cosheaf_boundary_equals_dense_block_recipe(seed, field):
    """The block boundary of a random cosheaf (stalks of dimension 0-3,
    random maps with entries outside [0, p) too, not necessarily valid)
    equals the dense block recipe in degrees 0-3, both as a matrix and as
    sparse columns holding no zero coefficient."""
    rng = np.random.default_rng(seed)
    K = random_complex(rng, max_vertices=8)
    stalks = {s: int(rng.integers(0, 4)) for s in K.simplices}
    maps = {
        (face, coface): rng.integers(-field, 2 * field, (stalks[face], stalks[coface]))
        for face, coface in C.codim1_pairs(K)
    }
    F = C.SimplicialCosheaf(K, dict(stalks), dict(maps))
    for p in range(4):
        expected = tuple_cosheaf_boundary(stalks, maps, p, field)
        assert np.array_equal(C.cosheaf_boundary(F, p, field), expected)
        assert C._boundary(F, p, field).cols == fields.as_columns(expected, field).cols


def test_four_interval_cosheaf_homologies():
    K = interval_complex()
    closed = C.constant_cosheaf(K, 1)
    cases = [
        (closed, (1, 0)),
        (half_open_interval_cosheaf(), (0, 0)),
        (open_interval_cosheaf(), (0, 1)),
    ]
    for F, (h0, h1) in cases:
        assert C.cosheaf_homology(F, 0).dimension == h0
        assert C.cosheaf_homology(F, 1).dimension == h1


def test_bar_census_of_the_three_interval_types():
    assert C.bar_census(C.constant_cosheaf(interval_complex(), 1)) == (1, 0, 0)
    assert C.bar_census(open_interval_cosheaf()) == (0, 1, 0)
    assert C.bar_census(half_open_interval_cosheaf()) == (0, 0, 1)


def test_bar_census_matches_homology_on_random_linear_cosheaves():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n_vertices = int(rng.integers(1, 6))
        K = tda.build_complex(
            [[v] for v in range(n_vertices)]
            + [[v, v + 1] for v in range(n_vertices - 1) if rng.random() < 0.8]
        )
        F = twisted_constant_cosheaf(rng, K, int(rng.integers(1, 3)), 2)
        closed, opened, _ = C.bar_census(F)
        assert closed == C.cosheaf_homology(F, 0).dimension
        assert opened == C.cosheaf_homology(F, 1).dimension


def test_bar_census_rejects_nonlinear_bases():
    with pytest.raises(NonlinearNerveError):
        C.bar_census(C.constant_cosheaf(solid_triangle(), 1))
    with pytest.raises(NonlinearNerveError):
        C.bar_census(C.constant_cosheaf(hollow_triangle(), 1))  # a cycle
    star = tda.build_complex([[0, 1], [0, 2], [0, 3]])
    with pytest.raises(NonlinearNerveError):
        C.bar_census(C.constant_cosheaf(star, 1))


def per_path_census(F, field, paths):
    """The census summed over paths, each read as its own zigzag of
    vertex and edge slots and decomposed by the generalized-rank oracle."""
    ends_on_edges = Counter()
    for path in paths:
        slots = [(path[0],)]
        for a, b in zip(path, path[1:]):
            slots += [(min(a, b), max(a, b)), (b,)]
        arrows = [
            (BACKWARD, F.maps[(slots[k], slots[k + 1])]) if k % 2 == 0
            else (FORWARD, F.maps[(slots[k + 1], slots[k])])
            for k in range(len(slots) - 1)
        ]
        z = ZigzagModule([F.stalks[s] for s in slots], arrows)
        for bar in zigzag_bars_oracle(z, field):
            ends_on_edges[bar.lo % 2 + bar.hi % 2] += bar.multiplicity
    return ends_on_edges[0], ends_on_edges[2], ends_on_edges[1]


@given(linear_cosheaves())
def test_bar_census_equals_per_path_oracle(case):
    F, field, paths = case
    closed, opened, half = C.bar_census(F, field)
    assert (closed, opened, half) == per_path_census(F, field, paths)
    assert closed == C.cosheaf_homology(F, 0, field).dimension
    assert opened == C.cosheaf_homology(F, 1, field).dimension


def test_nonlinear_base_messages_in_order_of_precedence():
    """Dimension before degree before cycle; the degree message names the
    lowest vertex of degree > 2."""
    two_stars_and_a_triangle = [[7, 1], [7, 2], [7, 8], [3, 4], [3, 5], [3, 6], [10, 11, 12]]
    two_stars_and_a_cycle = [[7, 1], [7, 2], [7, 8], [3, 4], [3, 5], [3, 6], [10, 11], [11, 12], [10, 12]]
    cycle_and_a_path = [[0, 1], [5, 6], [6, 7], [5, 7]]
    cases = [
        (two_stars_and_a_triangle, "base has dimension 2, expected <= 1"),
        (two_stars_and_a_cycle, "vertex 3 has degree > 2"),
        (cycle_and_a_path, "base contains a cycle"),
    ]
    for simplices, message in cases:
        F = C.constant_cosheaf(tda.build_complex(simplices), 1)
        with pytest.raises(NonlinearNerveError) as info:
            C.bar_census(F, 3)
        assert str(info.value) == message


def test_bar_census_decomposes_one_zigzag_over_all_paths(monkeypatch):
    calls = []
    decompose = zigzag.decompose_zigzag
    monkeypatch.setattr(zigzag, "decompose_zigzag", lambda z, field: calls.append(z) or decompose(z, field))
    K = tda.build_complex([[0, 1], [1, 2], [5, 4], [9], [20, 30], [30, 40], [40, 50]])
    F = C.constant_cosheaf(K, 2)
    assert C.bar_census(F, 3) == (8, 0, 0)
    assert len(calls) == 1


def test_torus_cosheaf_homology_and_generator():
    F = torus_leray_cosheaf()
    for field in (2, 5):
        assert C.cosheaf_homology(F, 0, field).dimension == 1
        h1 = C.cosheaf_homology(F, 1, field)
        assert h1.dimension == 1
        assert h1.cycle_basis[0].tolist() == [1, 1, 1, 1]
    closed, opened, half = C.bar_census(F)
    assert (closed, opened, half) == (1, 1, 0)


def test_constant_cosheaf_boundary_equals_simplicial_boundary():
    rng = np.random.default_rng(36)
    for _ in range(5):
        K = random_complex(rng, max_vertices=6)
        F = C.constant_cosheaf(K, 1)
        for p in range(K.dimension + 1):
            assert np.array_equal(C.cosheaf_boundary(F, p, 5), tda.boundary_matrix(K, p, 5))


def test_constant_cosheaf_agreement_with_simplicial_homology():
    rng = np.random.default_rng(32)
    for _ in range(8):
        K = random_complex(rng, max_vertices=8)
        n = int(rng.integers(0, 3))
        F = C.constant_cosheaf(K, n)
        for p in range(K.dimension + 2):
            assert (
                C.cosheaf_homology(F, p, 3).dimension
                == n * tda.homology(K, p, 3).dimension
            )


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]), st.integers(1, 2))
def test_one_sweep_equals_per_degree_homology(seed, field, n):
    """Every degree of one ``_quotients`` sweep has the dimension and the
    representatives of ``cosheaf_homology`` in that degree, and of the
    quotient of that degree's two dense boundaries alone; the transposed
    sheaf's cohomology is the latter too."""
    rng = np.random.default_rng(seed)
    K = random_complex(rng, max_vertices=7)
    F = twisted_constant_cosheaf(rng, K, n, field)
    sheaf = C.SimplicialSheaf(K, dict(F.stalks), {pair: M.T.copy() for pair, M in F.maps.items()})
    sweep = C._quotients(F, range(0, K.dimension + 1), field)
    assert len(sweep) == K.dimension + 1
    for p, q in enumerate(sweep):
        alone = fields.Quotient(C.cosheaf_boundary(F, p, field), C.cosheaf_boundary(F, p + 1, field), field)
        assert q.representatives.shape == alone.representatives.shape == (len(K.p_simplices(p)) * n, q.dimension)
        assert np.array_equal(q.representatives, alone.representatives)
        for result in (C.cosheaf_homology(F, p, field), C.sheaf_cohomology(sheaf, p, field)):
            assert result.dimension == q.dimension
            assert [v.tolist() for v in result.cycle_basis] == q.representatives.T.tolist()


def test_invalid_cosheaf_message_is_the_same_on_every_route():
    F = C.constant_cosheaf(solid_triangle(), 1)
    F.maps[((0,), (0, 1))] = np.array([[2]], dtype=np.int64)
    message = r"^extension maps \(0, 1, 2\) -> \(0,\) disagree via \(0, 2\) and \(0, 1\)$"
    for compute in (lambda: C._quotients(F, range(0, 3), 5), lambda: C.cosheaf_homology(F, 1, 5)):
        with pytest.raises(InvalidCosheafError, match=message):
            compute()


def test_sheaf_cohomology_examples():
    K = interval_complex()
    constant_sheaf = C.SimplicialSheaf(
        K,
        {s: 1 for s in K.simplices},
        {pair: np.eye(1, dtype=np.int64) for pair in C.codim1_pairs(K)},
    )
    assert C.sheaf_cohomology(constant_sheaf, 0).dimension == 1
    assert C.sheaf_cohomology(constant_sheaf, 1).dimension == 0
    open_dual = C.SimplicialSheaf(
        K,
        {(0,): 0, (1,): 0, (0, 1): 1},
        {((0,), (0, 1)): np.zeros((1, 0), int), ((1,), (0, 1)): np.zeros((1, 0), int)},
    )
    assert C.sheaf_cohomology(open_dual, 1).dimension == 1
    zero_sheaf = C.SimplicialSheaf(
        K, {s: 0 for s in K.simplices},
        {pair: np.zeros((0, 0), int) for pair in C.codim1_pairs(K)},
    )
    assert C.sheaf_cohomology(zero_sheaf, 0).dimension == 0


def test_sheaf_cohomology_matches_simplicial_cohomology():
    rng = np.random.default_rng(33)
    for _ in range(5):
        K = random_complex(rng, max_vertices=7)
        sheaf = C.SimplicialSheaf(
            K,
            {s: 1 for s in K.simplices},
            {pair: np.eye(1, dtype=np.int64) for pair in C.codim1_pairs(K)},
        )
        for p in range(K.dimension + 1):
            assert C.sheaf_cohomology(sheaf, p, 3).dimension == tda.cohomology(K, p, 3).dimension


def test_colimit_over_subcomplex_constant():
    K = tda.build_complex([[0, 1], [1, 2], [3, 4]])  # two components
    F = C.constant_cosheaf(K, 1)
    path = tda.build_complex([[0, 1], [1, 2]])
    assert C.colimit_over_subcomplex(F, path) == 1
    assert C.colimit_over_subcomplex(F, K) == 2


def test_colimit_over_single_edge_of_open_cosheaf():
    # the interior edge alone is an open union of cells, not face-closed
    F = open_interval_cosheaf()
    assert C.colimit_over_subcomplex(F, [(0, 1)]) == 1
    # over the whole complex the edge's class is glued to two zero stalks
    assert C.colimit_over_subcomplex(F, F.base) == 0


def test_colimit_rejects_non_subcomplex():
    F = C.constant_cosheaf(interval_complex(), 1)
    other = tda.build_complex([[5]])
    with pytest.raises(NotASubcomplexError):
        C.colimit_over_subcomplex(F, other)


def test_limits_and_colimits_are_behind_the_guard(monkeypatch):
    """Over ``fields.MAX_DENSE_BYTES`` the difference matrix of a diagram is
    refused before numpy is asked for it: k^2 -> k^2 gives a 2 x 4 matrix
    for its limit and its colimit, the constant cosheaf k on an edge a
    2 x 3 one for its colimit over the whole base."""
    diagram = zigzag.FiniteDiagram(dims=[2, 2], morphisms=[(0, 1, np.eye(2))])
    F = C.constant_cosheaf(interval_complex(), 1)
    monkeypatch.setattr(fields, "MAX_DENSE_BYTES", 64)
    assert zigzag.limit(diagram)[0] == zigzag.colimit(diagram)[0] == 2
    monkeypatch.setattr(fields, "MAX_DENSE_BYTES", 63)
    monkeypatch.setattr(zigzag.np, "zeros", lambda *args, **kwargs: pytest.fail("allocated"))
    for route in (zigzag.limit, zigzag.colimit):
        with pytest.raises(TdaError, match=r"^a dense 2 x 4 matrix would take 64 bytes, over 63$"):
            route(diagram)
    monkeypatch.setattr(fields, "MAX_DENSE_BYTES", 47)
    with pytest.raises(TdaError, match=r"^a dense 2 x 3 matrix would take 48 bytes, over 47$"):
        C.colimit_over_subcomplex(F, F.base)


@contextmanager
def traced_peak():
    """Trace memory inside the block; the yielded list then holds its peak in bytes."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def test_block_boundaries_hold_the_nonzero_entries_only():
    """Identity maps of rank 200 on a filled triangle: 2.9 MB of maps, whose
    boundaries have 1,200 and 600 nonzero entries of 360,000 and 120,000.
    Checking the squares and reducing keep the traced peak under the maps'
    own size, which boundaries holding their zero entries pass many times."""
    F = C.constant_cosheaf(tda.build_complex([[0, 1, 2]]), 200)
    maps = sum(M.nbytes for M in F.maps.values())
    with traced_peak() as peak:
        h0 = C.cosheaf_homology(F, 0)
    assert h0.dimension == 200
    assert peak[0] < maps, f"peak {peak[0]:,} bytes for {maps:,} bytes of maps"


def test_a_difference_map_makes_identities_for_targets_only(monkeypatch):
    """k^2000 -> k: the limit's 1 x 2001 difference map passes the guard
    and its 2001 x 2000 kernel view is refused, with no 2000 x 2000 identity
    (32 MB) made for the source on the way; the colimit's 2000 x 2001 map
    is refused before its identity is made."""
    diagram = zigzag.FiniteDiagram(dims=[2000, 1], morphisms=[(0, 1, np.ones((1, 2000), dtype=np.int64))])
    monkeypatch.setattr(fields, "MAX_DENSE_BYTES", 2**20)
    for route, shape in ((zigzag.limit, "2001 x 2000"), (zigzag.colimit, "2000 x 2001")):
        with traced_peak() as peak, pytest.raises(TdaError, match=rf"^a dense {shape} matrix would take 32,016,000 bytes"):
            route(diagram)
        assert peak[0] < 2**22, f"peak {peak[0]:,} bytes"
