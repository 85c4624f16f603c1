"""Prime-field arithmetic and the elimination helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import gf2_rank_reference
from tda import fields
from tda.errors import InternalInconsistencyError


def test_field_axioms_exhaustive_for_small_primes():
    for p in (2, 3, 5):
        elements = range(p)
        for a in elements:
            for b in elements:
                assert (a + b) % p == (b + a) % p
                assert (a * b) % p == (b * a) % p
                for c in elements:
                    assert ((a + b) + c) % p == (a + (b + c)) % p
                    assert (a * (b + c)) % p == (a * b + a * c) % p
        for a in range(1, p):
            inv = pow(a, -1, p)
            assert a * inv % p == 1


def test_check_prime():
    with pytest.raises(ValueError):
        fields.check_prime(4)
    with pytest.raises(ValueError):
        fields.check_prime(1)
    assert fields.check_prime(7) == 7


def test_gf2_rank_matches_generic_and_reference():
    rng = np.random.default_rng(40)
    for _ in range(30):
        A = rng.integers(0, 2, size=(rng.integers(0, 9), rng.integers(0, 9)))
        packed = fields.rank(A, 2)
        generic = len(fields._modp_rref(fields.normalize(A, 2), 2)[1])
        assert packed == generic == gf2_rank_reference(A)


def test_kernel_basis_spans_the_kernel():
    rng = np.random.default_rng(41)
    for p in (2, 3, 5):
        for _ in range(10):
            A = rng.integers(0, p, size=(rng.integers(1, 7), rng.integers(1, 7)))
            K = fields.kernel_basis(A, p)
            assert not fields.matmul(A, K, p).any()
            assert K.shape[1] == A.shape[1] - fields.rank(A, p)
            assert fields.rank(K, p) == K.shape[1]


def test_solve_round_trip_and_inconsistency():
    rng = np.random.default_rng(42)
    for p in (2, 5):
        for _ in range(10):
            A = rng.integers(0, p, size=(5, 4))
            x = rng.integers(0, p, size=4)
            b = fields.matmul(A, x[:, None], p)[:, 0]
            got = fields.solve(A, b, p)
            assert got is not None
            assert np.array_equal(fields.matmul(A, got[:, None], p)[:, 0], b)
    A = np.array([[1, 0], [0, 0]])
    assert fields.solve(A, np.array([0, 1]), 2) is None


def test_quotient_representatives_are_independent_mod_image():
    rng = np.random.default_rng(43)
    for p in (2, 3):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            low = rng.integers(0, p, size=(rng.integers(1, 5), n))
            # build a valid d_high whose image lies inside ker(low)
            ker = fields.kernel_basis(low, p)
            mix = rng.integers(0, p, size=(ker.shape[1], 3))
            high = fields.matmul(ker, mix, p)
            quotient = fields.Quotient(low, high, p)
            stacked = np.hstack([high, quotient.representatives])
            assert fields.rank(stacked, p) == fields.rank(high, p) + quotient.dimension
            coords = quotient.coordinates(quotient.representatives)
            assert np.array_equal(coords, np.eye(quotient.dimension, dtype=np.int64))


def _dense_quotient(low, high, p, V):
    """The rref recipe: kernel basis, leftmost pivots of [high | Z], then
    the unique solution over [representatives | image basis]."""
    Z = fields.kernel_basis(low, p)
    _, pivots = fields.rref(np.hstack([high, Z]), p)
    nb = high.shape[1]
    reps = Z[:, [c - nb for c in pivots if c >= nb]]
    image = high[:, [c for c in pivots if c < nb]]
    X = fields.solve(np.hstack([reps, image]), V, p)
    return reps, None if X is None else X[: reps.shape[1]]


@st.composite
def quotient_cases(draw):
    """(low, high, V, p): d_low of shape m x n (empty shapes included), its
    kernel basis Z, high = Z * random so that low * high = 0, and cycles
    V = Z * random."""
    p = draw(st.sampled_from([2, 3, 5]))
    m, n, k, r = (draw(st.integers(0, hi)) for hi in (5, 6, 4, 3))
    low = np.array(draw(st.lists(st.integers(0, p - 1), min_size=m * n, max_size=m * n)),
                   dtype=np.int64).reshape(m, n)
    Z = fields.kernel_basis(low, p)
    mix = draw(st.lists(st.integers(0, p - 1), min_size=Z.shape[1] * k, max_size=Z.shape[1] * k))
    high = fields.matmul(Z, np.array(mix, dtype=np.int64).reshape(Z.shape[1], k), p)
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=Z.shape[1] * r, max_size=Z.shape[1] * r))
    V = fields.matmul(Z, np.array(coeffs, dtype=np.int64).reshape(Z.shape[1], r), p)
    return low, high, V, p


@given(quotient_cases())
def test_sparse_quotient_matches_dense_rref_recipe(case):
    low, high, V, p = case
    quotient = fields.Quotient(low, high, p)
    reps, coords = _dense_quotient(low, high, p, V)
    assert quotient.dimension == reps.shape[1]
    assert quotient.representatives.shape == reps.shape
    assert np.array_equal(quotient.representatives, reps)
    assert np.array_equal(quotient.coordinates(V), coords)
    for j in range(low.shape[1]):  # a column of low that is not a cycle
        if low[:, j].any():
            e = np.zeros(low.shape[1], dtype=np.int64)
            e[j] = 1
            assert _dense_quotient(low, high, p, e[:, None])[1] is None
            with pytest.raises(InternalInconsistencyError):
                quotient.coordinates(e)
            break
