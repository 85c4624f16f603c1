"""Prime-field arithmetic and the elimination helpers."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dense_quotient, gf2_rank_reference, hollow_triangle, random_complex, rref_oracle
from tda import fields
from tda.errors import InternalInconsistencyError, TdaError
from tda.homology import boundary_matrix


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


@pytest.mark.parametrize("p", [3.5, 2.0, "3", 2**61 - 1])
def test_check_prime_rejects_non_integers_and_large_primes(p):
    """As every dense routine does through ``normalize``. The prime 2^61 - 1
    is refused by its size before a trial division up to its square root."""
    with pytest.raises(ValueError, match="field characteristic must be a prime < 2\\^15"):
        fields.check_prime(p)
    with pytest.raises(ValueError, match="field characteristic must be a prime < 2\\^15"):
        fields.rank(np.eye(2), p)


def test_check_prime_accepts_numpy_integers_as_int():
    got = fields.check_prime(np.int64(3))
    assert got == 3 and type(got) is int


def test_non_integral_entries_are_rejected_naming_the_first():
    with pytest.raises(TdaError, match=r"^matrix entries must be integers, got 2.7 at \(0, 0\)$"):
        fields.normalize([[2.7]], 5)
    with pytest.raises(TdaError, match=r"^matrix entries must be integers, got nan at \(1, 0\)$"):
        fields.rank(np.array([[1.0, 2.0], [np.nan, 0.5]]), 3)
    assert fields.normalize(np.eye(2), 5).tolist() == [[1, 0], [0, 1]]
    assert fields.normalize([[-1.0, 7.0]], 5).dtype == np.int64


def test_gf2_rank_matches_rref_and_reference():
    rng = np.random.default_rng(40)
    for _ in range(30):
        A = rng.integers(0, 2, size=(rng.integers(0, 9), rng.integers(0, 9)))
        assert fields.rank(A, 2) == len(fields.rref(A, 2)[1]) == gf2_rank_reference(A)


@st.composite
def elimination_cases(draw):
    """(A, B, p): A of shape 0-10 x 0-10 and B of A's height with 0-3
    columns, or a vector, with entries that may be negative or >= p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m, n = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    entries = st.integers(-2 * p, 3 * p)
    A = np.array(draw(st.lists(entries, min_size=m * n, max_size=m * n)), dtype=np.int64)
    k = draw(st.one_of(st.none(), st.integers(0, 3)))
    size = m * (1 if k is None else k)
    B = np.array(draw(st.lists(entries, min_size=size, max_size=size)), dtype=np.int64)
    return A.reshape(m, n), B if k is None else B.reshape(m, k), p


@given(elimination_cases())
def test_rref_kernel_and_solve_match_the_numpy_elimination(case):
    A, B, p = case
    R, pivots = fields.rref(A, p)
    R_oracle, pivots_oracle = rref_oracle(A, p)
    assert R.dtype == R_oracle.dtype == np.int64
    assert R.shape == R_oracle.shape == A.shape
    assert np.array_equal(R, R_oracle)
    assert pivots == pivots_oracle
    assert fields.rank(A, p) == len(pivots_oracle)

    n = A.shape[1]
    free = [c for c in range(n) if c not in pivots_oracle]
    K = np.zeros((n, len(free)), dtype=np.int64)
    K[free, range(len(free))] = 1
    K[pivots_oracle, :] = -R_oracle[: len(pivots_oracle)][:, free] % p
    got = fields.kernel_basis(A, p)
    assert got.dtype == np.int64 and got.shape == K.shape
    assert np.array_equal(got, K)

    rhs = B[:, None] if B.ndim == 1 else B
    R_aug, pivots_aug = rref_oracle(np.hstack([A, rhs]), p)
    X = fields.solve(A, B, p)
    if any(c >= n for c in pivots_aug):
        assert X is None
        return
    want = np.zeros((n, rhs.shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots_aug):
        want[c] = R_aug[i, n:]
    want = want[:, 0] if B.ndim == 1 else want
    assert X.dtype == np.int64 and X.shape == want.shape
    assert np.array_equal(X, want)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (2, 3), (3, 2)])
@pytest.mark.parametrize("p", [2, 3])
def test_dense_routines_on_empty_and_zero_matrices(shape, p):
    """Zero rows or zero columns survive the round trip through row lists."""
    m, n = shape
    A = np.zeros(shape, dtype=np.int64)
    R, pivots = fields.rref(A, p)
    assert R.dtype == np.int64 and R.shape == shape and not R.any() and pivots == []
    assert fields.rank(A, p) == 0
    K = fields.kernel_basis(A, p)
    assert K.dtype == np.int64
    assert np.array_equal(K, np.eye(n, dtype=np.int64)) and K.shape == (n, n)
    X = fields.solve(A, np.zeros(m, dtype=np.int64), p)
    assert X.dtype == np.int64 and X.shape == (n,) and not X.any()
    X = fields.solve(A, np.zeros((m, 2), dtype=np.int64), p)
    assert X.dtype == np.int64 and X.shape == (n, 2) and not X.any()
    if m:
        assert fields.solve(A, np.ones(m, dtype=np.int64), p) is None


def test_kernel_and_solve_on_empty_shapes():
    assert np.array_equal(fields.kernel_basis(np.zeros((0, 3)), 2), np.eye(3, dtype=np.int64))
    assert fields.kernel_basis(np.zeros((3, 0)), 2).shape == (0, 0)
    assert fields.solve(np.zeros((0, 2)), np.zeros(0), 3).tolist() == [0, 0]
    with pytest.raises(ValueError):
        fields.solve(np.zeros((2, 2)), np.zeros((2, 1, 1)), 3)


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
    reps, coords = dense_quotient(low, high, p, V)
    assert quotient.dimension == reps.shape[1]
    assert quotient.representatives.shape == reps.shape
    assert np.array_equal(quotient.representatives, reps)
    assert np.array_equal(quotient.basis.dense(), reps)
    assert np.array_equal(quotient.coordinates(V), coords)
    assert np.array_equal(quotient.coordinates(fields.as_columns(V, p)), coords)
    for j in range(low.shape[1]):  # a column of low that is not a cycle
        if low[:, j].any():
            e = np.zeros(low.shape[1], dtype=np.int64)
            e[j] = 1
            assert dense_quotient(low, high, p, e[:, None])[1] is None
            with pytest.raises(InternalInconsistencyError):
                quotient.coordinates(e)
            break


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]))
def test_quotients_sweep_matches_dense_recipe_in_every_degree(seed, p):
    """One sweep over d_0..d_m gives, in every degree k, the dense recipe's
    representatives of ker d_k / im d_{k+1} and its coordinates of random
    cycles."""
    rng = np.random.default_rng(seed)
    K = random_complex(rng)
    ds = [boundary_matrix(K, k, p) for k in range(K.dimension + 2)]
    swept = fields.quotients(ds, p)
    assert len(swept) == len(ds) - 1
    for low, high, quotient in zip(ds, ds[1:], swept):
        Z = fields.kernel_basis(low, p)
        V = fields.matmul(Z, rng.integers(0, p, size=(Z.shape[1], 3)), p)
        reps, coords = dense_quotient(low, high, p, V)
        assert quotient.dimension == reps.shape[1]
        assert np.array_equal(quotient.representatives, reps)
        assert np.array_equal(quotient.basis.dense(), reps)
        assert np.array_equal(quotient.coordinates(V), coords)
        assert np.array_equal(quotient.coordinates(fields.as_columns(V, p)), coords)


def test_dense_view_over_the_byte_limit_raises_before_allocating():
    """A 2^20 x 2^20 int64 view would take 8 TiB: the guard names the shape
    and the bytes, and raises before numpy is asked for them."""
    big = fields.ColumnMatrix(2**20, [{}] * 2**20)
    with mock.patch.object(fields.np, "zeros", side_effect=AssertionError("allocated")):
        with pytest.raises(TdaError, match=r"1048576 x 1048576 matrix would take 8,796,093,022,208 bytes"):
            big.dense()
    assert fields.ColumnMatrix(2, [{1: 1}]).dense().tolist() == [[0], [1]]


def test_coordinates_check_their_size_before_reducing(monkeypatch):
    """The n x len(columns) result of ``Quotient.coordinates`` and
    ``solve`` is sized up front: over the bound they raise before any
    column is reduced, ``solve`` even where it would have returned None."""
    q = fields.Quotient(boundary_matrix(hollow_triangle(), 1), np.zeros((3, 0), int), 2)
    cycle = q.representatives
    monkeypatch.setattr(fields, "MAX_DENSE_BYTES", 7)
    with mock.patch.object(fields, "reduce_columns", side_effect=AssertionError("reduced")):
        with pytest.raises(TdaError, match=r"^a dense 1 x 1 matrix would take 8 bytes, over 7$"):
            q.coordinates(cycle)
    monkeypatch.setattr(fields, "MAX_DENSE_BYTES", 15)
    with pytest.raises(TdaError, match=r"^a dense 2 x 1 matrix would take 16 bytes, over 15$"):
        fields.solve(np.array([[1, 0], [0, 0]]), np.array([0, 1]), 2)


def assert_unit_dicts(columns, p):
    for col in columns:
        assert type(col) is dict and all(type(c) is int and 1 <= c < p for c in col.values()), col


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]))
def test_every_sparse_column_is_a_dict_of_units(seed, p):
    """One sparse column type for every prime, F2 included: a dict {row:
    coeff in [1, p)} from each builder, from a product, out of the
    reduction, and as a column or track of a quotient's pivot table."""
    rng = np.random.default_rng(seed)
    m, n, k = rng.integers(0, 7, size=3).tolist()
    A, B = rng.integers(-p, 2 * p, size=(m, n)), rng.integers(-p, 2 * p, size=(n, k))
    rows, cols = (a.ravel() for a in np.indices((m, n)))
    built = fields.term_columns(m, n, rows, cols, A.ravel(), p)
    assert_unit_dicts(built.cols, p)
    assert np.array_equal(built.dense(), A % p)
    dense = fields.as_columns(A, p)
    assert_unit_dicts(dense.cols, p)
    assert dense.cols == built.cols
    cols, rows = np.nonzero((A % p).T)
    bounds = np.searchsorted(cols, np.arange(n + 1))
    sliced = list(fields.sparse_columns(rows, (A % p)[rows, cols], zip(bounds, bounds[1:])))
    assert_unit_dicts(sliced, p)
    assert sliced == built.cols
    product = built.compose(fields.as_columns(B, p), p)
    assert_unit_dicts(product.cols, p)
    assert np.array_equal(product.dense(), fields.matmul(A, B, p))
    pivots: dict = {}
    units = ({j: 1} for j in range(n))
    for piv, col, track in fields.reduce_columns(built.cols, p, pivots, units):
        assert_unit_dicts([col, track], p)
        assert (piv is None) == (not col)
    for col, track in pivots.values():
        assert_unit_dicts([col, track], p)
    K = random_complex(rng)
    for quotient in fields.quotients([boundary_matrix(K, d, p) for d in range(K.dimension + 2)], p):
        for col, track in quotient._pivots.values():
            assert_unit_dicts([col] if track is None else [col, track], p)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]))
def test_block_columns_sum_their_blocks(seed, p):
    """``block_columns`` is the dense sum mod p of its blocks, each placed
    at its top-left corner, overlapping ones added (empty ones too), as
    columns of units; the entries span int64, summed without overflow."""
    rng = np.random.default_rng(seed)
    m, n = rng.integers(0, 7, size=2).tolist()
    total = np.zeros((m, n), dtype=object)
    blocks = []
    for _ in range(int(rng.integers(0, 6))):
        r, c = int(rng.integers(0, m + 1)), int(rng.integers(0, n + 1))
        shape = (int(rng.integers(0, m - r + 1)), int(rng.integers(0, n - c + 1)))
        lo, hi = (-2 * p, 3 * p) if rng.random() < 0.8 else (-(2**63), 2**63 - 1)
        B = rng.integers(lo, hi, size=shape)
        blocks.append((r, c, B))
        total[r : r + shape[0], c : c + shape[1]] += B.astype(object)
    built = fields.block_columns(m, n, blocks, p)
    assert_unit_dicts(built.cols, p)
    assert built.n_rows == m and np.array_equal(built.dense(), (total % p).astype(np.int64))


def test_term_columns_sum_repeated_pairs():
    """Terms at one (row, column) add up mod p, and a sum of zero drops its entry."""
    rows, cols, coeffs = np.array([0, 0, 1, 1, 2]), np.array([0, 0, 0, 0, 1]), np.array([1, 1, 2, 1, 4])
    assert fields.term_columns(3, 2, rows, cols, coeffs, 3).cols == [{0: 2}, {2: 1}]



def test_quotients_rejects_a_mismatched_middle_pair():
    ds = [np.zeros((0, 3)), np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((1, 0))]
    with pytest.raises(ValueError, match="chain space mismatch: d_low has 2 columns, d_high has 3 rows"):
        fields.quotients(ds, 2)
    ds[2] = np.zeros((2, 1))
    assert [q.dimension for q in fields.quotients(ds, 2)] == [3, 2, 1]
