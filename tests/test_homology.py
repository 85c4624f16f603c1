"""Boundary matrices, (co)homology, and induced maps."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tda
from conftest import (
    TupleComplex,
    dense_quotient,
    grid_torus,
    hollow_triangle,
    interval_complex,
    random_complex,
    small_clouds,
    solid_triangle,
    tuple_chain_map,
    tuple_faces,
)
from tda import fields
from tda.errors import NonSimplicialMapError, TdaError
from tda.homology import _boundary, _chain_columns, boundary_matrix, chain_map, coboundary_matrix, induced_map


def test_interval_boundary_column():
    K = interval_complex()
    D = boundary_matrix(K, 1, 3)
    # rows ([0], [1]); the edge maps to [1] - [0]
    assert D.shape == (2, 1)
    assert D[:, 0].tolist() == [(-1) % 3, 1]


def test_boundary_p0_has_no_rows():
    K = solid_triangle()
    assert boundary_matrix(K, 0, 2).shape == (0, 3)


def tuple_boundary(ref: TupleComplex, p: int, field: int) -> np.ndarray:
    """d_p of the tuple oracle, one tuple_faces call per column."""
    rows, cols = ref.p_simplices(p - 1), ref.p_simplices(p)
    D = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, tau in enumerate(cols):
        for face, sign in tuple_faces(tau):
            D[rows.index(face), j] = sign % field
    return D


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]))
def test_boundaries_equal_tuple_oracle(seed, field):
    """Boundary and coboundary matrices in degrees 0-3, read off facet
    positions, equal the oracle's, on a random complex and on a random
    full subcomplex of it (re-indexed facets). The columns, built in bulk,
    are the oracle's as sets over F2 and {row: coefficient} dicts over F3
    and F5, also with the facet positions permuted into the value order of
    a random lower-star function with ties, as ``leray._value_ordered``
    permutes them."""
    rng = np.random.default_rng(seed)
    K = random_complex(rng)
    sub = K.full_subcomplex(v for v in K.vertices() if rng.random() < 0.7)
    for L in (K, sub):
        ref = TupleComplex(L.simplices)
        expected = [tuple_boundary(ref, p, field) for p in range(5)]
        for p in range(4):
            assert np.array_equal(boundary_matrix(L, p, field), expected[p])
            assert np.array_equal(coboundary_matrix(L, p, field), expected[p + 1].T)
        order = [np.argsort(v, kind="stable") for v in L._fold(rng.integers(0, 4, len(L.vertices())), np.maximum)]
        rank = [np.argsort(o) for o in order]
        for p in range(L.dimension + 2):
            assert _boundary(L, p, field).cols == fields.as_columns(expected[p], field).cols
            if 0 < p <= L.dimension:
                facets = rank[p - 1][L._layer(p)[1][order[p]]]
                permuted = expected[p][np.ix_(order[p - 1], order[p])]
                assert _boundary(L, p, field, facets).cols == fields.as_columns(permuted, field).cols


def test_boundary_squares_to_zero_random():
    rng = np.random.default_rng(1)
    for field in (2, 3, 5):
        for _ in range(10):
            K = random_complex(rng)
            for p in range(1, K.dimension + 1):
                prod = fields.matmul(
                    boundary_matrix(K, p, field), boundary_matrix(K, p + 1, field), field
                )
                assert not prod.any()


def test_triangle_boundary_columns_over_f2():
    K = hollow_triangle()
    D = boundary_matrix(K, 1, 2)
    assert D.shape == (3, 3)
    assert (D.sum(axis=0) == 2).all()  # each edge has exactly two ones


def test_coboundary_is_transpose():
    K = solid_triangle()
    for p in range(0, 2):
        assert np.array_equal(
            coboundary_matrix(K, p, 3), boundary_matrix(K, p + 1, 3).T
        )


def test_coboundary_squares_to_zero():
    rng = np.random.default_rng(2)
    for _ in range(5):
        K = random_complex(rng)
        for p in range(0, max(K.dimension, 1)):
            prod = fields.matmul(
                coboundary_matrix(K, p + 1, 3), coboundary_matrix(K, p, 3), 3
            )
            assert not prod.any()


def test_empty_complex_matrices_and_homology():
    K = tda.build_complex([])
    assert coboundary_matrix(K, 0, 2).shape == (0, 0)
    assert tda.homology(K, 0).dimension == 0
    assert tda.cohomology(K, 0).dimension == 0


def test_interval_homology():
    K = interval_complex()
    for field in (2, 3):
        assert tda.homology(K, 0, field).dimension == 1
        assert tda.homology(K, 1, field).dimension == 0
        assert tda.homology(K, 2, field).dimension == 0


def test_hollow_triangle_is_a_circle():
    K = hollow_triangle()
    assert tda.homology(K, 0).dimension == 1
    assert tda.homology(K, 1).dimension == 1
    assert tda.cohomology(K, 0).dimension == 1
    assert tda.cohomology(K, 1).dimension == 1


def test_sixty_isolated_vertices():
    K = tda.build_complex([[v] for v in range(60)])
    assert tda.homology(K, 0).dimension == 60


def test_cycle_basis_consists_of_cycles():
    K = hollow_triangle()
    res = tda.homology(K, 1, 5)
    D = boundary_matrix(K, 1, 5)
    for z in res.cycle_basis:
        assert not fields.matmul(D, z[:, None], 5).any()


def test_homology_equals_cohomology_dimension():
    rng = np.random.default_rng(3)
    for field in (2, 3, 5):
        for _ in range(8):
            K = random_complex(rng)
            for p in range(0, K.dimension + 2):
                assert tda.homology(K, p, field).dimension == tda.cohomology(K, p, field).dimension


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]), st.integers(0, 3))
def test_bases_equal_dense_recipe(seed, field, p):
    """The homology and cohomology bases are the rref recipe's bases on
    the dense boundary and coboundary matrices."""
    K = random_complex(np.random.default_rng(seed))
    for result, low, high in (
        (tda.homology(K, p, field), boundary_matrix(K, p, field), boundary_matrix(K, p + 1, field)),
        (tda.cohomology(K, p, field), coboundary_matrix(K, p, field), coboundary_matrix(K, p - 1, field)),
    ):
        reps, _ = dense_quotient(low, high, field, np.zeros((low.shape[1], 0), dtype=np.int64))
        assert result.dimension == reps.shape[1]
        assert [b.tolist() for b in result.cycle_basis] == reps.T.tolist()


def test_euler_characteristic_identity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        K = random_complex(rng)
        chi_chain = sum((-1) ** p * len(K.p_simplices(p)) for p in range(K.dimension + 1))
        chi_hom = sum(
            (-1) ** p * tda.homology(K, p, 3).dimension for p in range(K.dimension + 1)
        )
        assert chi_chain == chi_hom


def test_identity_induces_identity():
    K = hollow_triangle()
    f = {v: v for v in K.vertices()}
    for p in (0, 1):
        M = induced_map(f, K, K, p, 5)
        assert np.array_equal(M, np.eye(M.shape[0], dtype=np.int64))


def test_inclusion_into_solid_triangle_kills_h1():
    hollow, solid = hollow_triangle(), solid_triangle()
    f = {0: 0, 1: 1, 2: 2}
    M = induced_map(f, hollow, solid, 1, 2)
    assert M.shape == (0, 1)  # H_1 = k maps to H_1 = 0


def test_rotation_of_hollow_triangle_is_identity_on_h1():
    K = hollow_triangle()
    rotation = {0: 1, 1: 2, 2: 0}
    for field in (2, 7):
        M = induced_map(rotation, K, K, 1, field)
        assert M.shape == (1, 1)
        assert fields.rank(M, field) == 1
        assert M[0, 0] == 1  # the fundamental cycle maps to itself


def test_self_map_reduces_its_complex_once(monkeypatch):
    """A self-map shares one reduction between its two sides; a copy of the
    complex as target is reduced on its own and gives the same matrix."""
    calls = []
    quotients = fields.quotients
    monkeypatch.setattr(fields, "quotients", lambda ds, p: calls.append(p) or quotients(ds, p))
    n = 5
    K, _ = grid_torus(n)
    swap = {v: (v % n) * n + v // n for v in K.vertices()}
    copy = tda.build_complex(K.simplices)
    for p in (2, 3):
        for k, want in enumerate(([[1]], [[0, 1], [1, 0]], [[p - 1]])):
            calls.clear()
            assert induced_map(swap, K, K, k, p).tolist() == want
            assert calls == [p]
            calls.clear()
            assert induced_map(swap, K, copy, k, p).tolist() == want
            assert calls == [p, p]


def test_non_simplicial_map_rejected():
    K = interval_complex()
    L = tda.build_complex([[0], [1]])
    with pytest.raises(NonSimplicialMapError):
        induced_map({0: 0, 1: 1}, K, L, 0, 2)
    for build in (chain_map, induced_map):
        with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
            build({0: 0, 1: 1}, K, K, -1, 2)


def test_degenerate_images_vanish_at_chain_level():
    K = interval_complex()
    L = tda.build_complex([[0]])
    M = chain_map({0: 0, 1: 0}, K, L, 1, 3)
    assert M.shape == (0, 1)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]))
def test_chain_maps_equal_tuple_recipe(seed, field):
    """C_p(f) in degrees 0-3, for random vertex maps that are injective
    (relabellings that reorder vertices) or collapse vertices, into a target
    holding the image and more, equals the tuple recipe (sorted image,
    permutation sign, zero on collapse) as a matrix and as sparse columns."""
    rng = np.random.default_rng(seed)
    K = random_complex(rng, max_vertices=8)
    vertices = K.vertices()
    if rng.random() < 0.5:
        labels = rng.choice(2 * len(vertices), len(vertices), replace=False)
    else:
        labels = rng.integers(0, rng.integers(1, len(vertices) + 1), len(vertices))
    f = dict(zip(vertices, labels.tolist()))
    extra = random_complex(rng, max_vertices=6)
    L = tda.build_complex([sorted({f[v] for v in s}) for s in K.simplices] + list(extra.simplices))
    for p in range(4):
        expected = tuple_chain_map(f, K.simplices, L.simplices, p, field)
        assert np.array_equal(chain_map(f, K, L, p, field), expected)
        assert _chain_columns(f, K, L, p, field).cols == fields.as_columns(expected, field).cols


def test_chain_map_commutes_with_boundary():
    rng = np.random.default_rng(5)
    for _ in range(10):
        K = random_complex(rng, max_vertices=8)
        image = {v: int(rng.integers(0, 5)) for v in K.vertices()}
        L = tda.build_complex([sorted({image[v] for v in s}) for s in K.simplices] or [[0]])
        for p in range(1, K.dimension + 1):
            lhs = fields.matmul(
                chain_map(image, K, L, p - 1, 3), tda.boundary_matrix(K, p, 3), 3
            )
            rhs = fields.matmul(
                tda.boundary_matrix(L, p, 3), chain_map(image, K, L, p, 3), 3
            )
            assert np.array_equal(lhs, rhs)


def test_functoriality_of_induced_maps():
    rng = np.random.default_rng(6)
    for _ in range(8):
        K = random_complex(rng, max_vertices=7)
        f = {v: int(rng.integers(0, 5)) for v in K.vertices()}
        L = tda.build_complex([sorted({f[v] for v in s}) for s in K.simplices] or [[0]])
        g = {v: int(rng.integers(0, 4)) for v in L.vertices()}
        Mcx = tda.build_complex([sorted({g[v] for v in s}) for s in L.simplices] or [[0]])
        gf = {v: g[f[v]] for v in K.vertices()}
        for p in (0, 1):
            left = induced_map(gf, K, Mcx, p, 2)
            right = fields.matmul(
                induced_map(g, L, Mcx, p, 2), induced_map(f, K, L, p, 2), 2
            )
            assert np.array_equal(left, right)


@given(small_clouds(), st.sampled_from([2, 3]))
def test_homology_counts_infinite_bars_of_the_barcode(cloud, field):
    """Both users of the column-reduction kernel agree: dim H_p of the
    whole Rips complex is the number of infinite degree-p bars."""
    points, r, max_dim = cloud
    fc = tda.rips_filtration(points, max_dim, r)
    K = fc.underlying_complex()
    bc = tda.compute_barcode(fc, field)
    for p in range(max_dim + 1):
        infinite = sum(1 for b in bc.in_degree(p) if b.infinite)
        assert tda.homology(K, p, field).dimension == infinite


def test_h1_of_a_large_rips_circle_stays_sparse():
    """36,875 simplices: the dense degree-2 boundary alone would be ~1 GB."""
    n = 200
    angles = 2 * np.pi * np.arange(n) / n
    noise = np.random.default_rng(0).normal(0.0, 0.05, size=(n, 2))
    points = np.column_stack([np.cos(angles), np.sin(angles)]) + noise
    K = tda.rips_filtration(points, 2, 0.3).underlying_complex()
    tracemalloc.start()
    try:
        dimension = tda.homology(K, 1, 3).dimension
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dimension == 1
    assert peak < 64 * 2**20


def test_dense_views_of_homology_are_behind_the_guard(monkeypatch):
    """Over ``fields.MAX_DENSE_BYTES``, (co)homology still gives its
    dimension from the sparse tracks, while the dense cycle basis and the
    induced map's matrix raise the guard's TdaError. K_10 has 45 edges and
    H_1 of dimension 36: views of 45 x 36 and 36 x 36 int64 entries."""
    K = tda.build_complex(list(combinations(range(10), 2)))
    monkeypatch.setattr(fields, "MAX_DENSE_BYTES", 36 * 36 * 8 - 1)
    h1 = tda.homology(K, 1)
    assert (h1.dimension, h1.basis.n_rows, len(h1.basis.cols)) == (36, 45, 36)
    assert tda.cohomology(K, 1).dimension == 36
    with pytest.raises(TdaError, match=r"^a dense 45 x 36 matrix would take 12,960 bytes"):
        h1.cycle_basis
    with pytest.raises(TdaError, match=r"^a dense 36 x 36 matrix would take 10,368 bytes"):
        induced_map({v: v for v in K.vertices()}, K, K, 1)


@pytest.mark.parametrize("field", [3.5, 2.0, "3"])
def test_homology_rejects_a_non_integer_field(field):
    with pytest.raises(ValueError, match="field characteristic must be a prime"):
        tda.homology(hollow_triangle(), 1, field)
