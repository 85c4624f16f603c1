"""Complex builders: explicit, Rips, Čech, nerves, eccentricity."""

import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tda
from conftest import TupleComplex, small_clouds
from tda import complexes, formats
from tda import persistence as P
from tda.complexes import IntervalCover, simplex, squared_distance_matrix
from tda.errors import InvalidMetricError, MalformedSimplexError, NonlinearNerveError
from tda.homology import boundary_matrix


def brute_force_rips(points, r, max_dim):
    """Oracle: enumerate all subsets and check pairwise distances directly."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    simplices = set()
    for k in range(1, max_dim + 2):
        for combo in combinations(range(n), k):
            ok = all(
                np.linalg.norm(pts[a] - pts[b]) <= 2 * r + 1e-9
                for a, b in combinations(combo, 2)
            )
            if ok:
                simplices.add(combo)
    return simplices


def test_build_complex_two_vertex_edge():
    K = tda.build_complex([[0, 1]])
    assert K.simplices == frozenset({(0,), (1,), (0, 1)})


def test_build_complex_empty():
    K = tda.build_complex([])
    assert len(K) == 0
    assert K.dimension == -1


def test_build_complex_face_closure_of_triangle():
    K = tda.build_complex([[0, 1, 2]])
    assert len(K) == 7


def test_build_complex_idempotent():
    K = tda.build_complex([[0, 1, 2], [2, 3]])
    again = tda.build_complex(list(K.simplices))
    assert again == K


def test_duplicate_vertices_rejected():
    with pytest.raises(MalformedSimplexError):
        simplex([1, 1])
    with pytest.raises(MalformedSimplexError):
        tda.build_complex([[0, 2, 2]])


def test_face_closure_property_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        simplices = [rng.choice(8, size=rng.integers(1, 4), replace=False) for _ in range(6)]
        K = tda.build_complex([list(map(int, s)) for s in simplices])
        for s in K.simplices:
            for k in range(1, len(s)):
                for sub in combinations(s, k):
                    assert sub in K


@st.composite
def simplex_lists(draw):
    """(simplices, vertex subset): a few top simplices on small ids or ids
    near 2^62, listed with their vertices shuffled, together with repeats
    of them and some of their faces (redundant input), in shuffled order;
    plus a vertex subset that may name ids outside the complex."""
    id_values = st.one_of(st.integers(0, 9), st.integers(2**62 - 9, 2**62))
    ids = draw(st.lists(id_values, min_size=1, max_size=8, unique=True))
    tops = draw(st.lists(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True), max_size=6))
    redundant = [draw(st.permutations(t))[: draw(st.integers(1, len(t)))] for t in tops]
    listed = draw(st.permutations(tops + redundant + tops[: draw(st.integers(0, len(tops)))]))
    subset = draw(st.lists(st.one_of(st.sampled_from(ids), st.integers(0, 2**62)), max_size=8))
    return [draw(st.permutations(s)) for s in listed], subset


def same_as_oracle(K, ref):
    assert K.simplices == ref.simplices
    assert list(K) == list(ref)
    assert K.vertices() == ref.vertices()
    assert (K.dimension, len(K), hash(K)) == (ref.dimension, len(ref), hash(ref))
    for p in range(-1, ref.dimension + 2):
        assert K.p_simplices(p) == ref.p_simplices(p)
    for s in list(ref) + [s[::-1] for s in ref if len(s) > 1] + [(2**62 + 1,), ()]:
        assert (s in K) == (s in ref)


@given(simplex_lists())
def test_complex_layout_matches_tuple_oracle(case):
    """The array layout has the tuple-set semantics: simplices, lexicographic
    p_simplices, iteration order, vertices, dimension, len, membership,
    == and hash, full subcomplexes and the subcomplex relation. A full
    subcomplex's re-indexed facets give the boundaries of the same complex
    built from scratch."""
    simplices, subset = case
    K, ref = tda.build_complex(simplices), TupleComplex(simplices)
    same_as_oracle(K, ref)
    sub, ref_sub = K.full_subcomplex(subset), ref.full_subcomplex(subset)
    same_as_oracle(sub, ref_sub)
    rebuilt = tda.build_complex(list(sub))
    assert rebuilt == sub and (sub == K) == (ref_sub == ref)
    assert (sub.is_subcomplex_of(K), K.is_subcomplex_of(sub)) == (True, ref.is_subcomplex_of(ref_sub))
    for p in range(sub.dimension + 2):
        assert np.array_equal(boundary_matrix(sub, p, 3), boundary_matrix(rebuilt, p, 3))


@pytest.mark.parametrize("vertex", [2**63, 2**64 + 5])
def test_vertex_ids_beyond_int64_rejected(vertex):
    for build in (tda.SimplicialComplex, tda.build_complex):
        with pytest.raises(MalformedSimplexError, match="vertex ids must fit in 64-bit integers"):
            build([[0, 1], [1, vertex]])
    K = tda.build_complex([[0, 2**63 - 1]])
    assert K.p_simplices(1) == [(0, 2**63 - 1)]


ERROR_CASES = [
    ([[0, 1], [1, 1, 2]], "duplicate vertices in (1, 1, 2)"),
    ([[0, 1], [-3, 2]], "negative vertex id in (-3, 2)"),
    ([[0, 1], [1, 2**63]], "vertex ids must fit in 64-bit integers"),
    ([[0, 1], []], "a simplex needs at least one vertex"),
    # Bad simplices of two sizes: the first in input order is named.
    ([[0, 1, 2], [5, 5], [-1, 2, 3]], "duplicate vertices in (5, 5)"),
    ([[4, -1, 2, 3], [0, 1], [7, 7]], "negative vertex id in (4, -1, 2, 3)"),
    ([[1, 2], [3, 3, 4], [], [-1]], "duplicate vertices in (3, 3, 4)"),
    ([[0, 1], [], [2, 2]], "a simplex needs at least one vertex"),
    ([[2**63, 1], [0, 0]], "duplicate vertices in (0, 0)"),
]


@pytest.mark.parametrize("simplices, message", ERROR_CASES)
def test_constructor_and_parser_keep_their_error_messages(simplices, message):
    for build in (tda.SimplicialComplex, tda.build_complex):
        with pytest.raises(MalformedSimplexError) as err:
            build(simplices)
        assert str(err.value) == message
    if all(simplices):  # the parser skips blank lines, so it has no empty simplex
        text = "".join(" ".join(map(str, s)) + "\n" for s in simplices)
        with pytest.raises(MalformedSimplexError) as err:
            formats.parse_complex(text)
        assert str(err.value) == message


def test_parser_keeps_int_error_message():
    with pytest.raises(ValueError) as err:
        formats.parse_complex("0 1\nx 2\n")
    assert str(err.value) == "invalid literal for int() with base 10: 'x'"


def test_constructor_calls_simplex_only_for_bad_rows():
    """Rows of distinct nonnegative ints, in any vertex order, are sorted
    and checked in numpy; ``simplex`` runs only to name a bad one."""
    with mock.patch.object(complexes, "simplex", side_effect=AssertionError("simplex called")):
        K = tda.SimplicialComplex([[2, 1, 0], (5, 3), np.array([7, 4]), [6]])
    assert K.simplices == TupleComplex([[0, 1, 2], [3, 5], [4, 7], [6]]).simplices


def simplex_semantics(simplices):
    """The constructor's contract as ``simplex`` per simplex in input
    order, then the 64-bit check: the error's type and message, or the
    complex."""
    try:
        normalized = [simplex(s) for s in simplices]
    except Exception as exc:
        return type(exc), str(exc)
    if any(v >= 2**63 for s in normalized for v in s):
        return MalformedSimplexError, "vertex ids must fit in 64-bit integers"
    return TupleComplex(normalized).simplices


def built(simplices):
    try:
        return tda.SimplicialComplex(simplices).simplices
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "make",
    [
        lambda: [[0, 1], [[1], [2]]],
        lambda: [[[1], [2]], [[3], [4]]],  # nested rows that numpy reads as int64
        lambda: [[0, 1], np.array([], dtype=np.int64)],  # an empty simplex that numpy reads as int64
        lambda: [[0, 1], [1, [2]]],
        lambda: [[None, 1]],
        lambda: [["3", 1], [2]],
        lambda: [["x", 1]],
        lambda: [[1.5, 2], [0, 1]],
        lambda: [[True, False]],
        lambda: [5],
        lambda: ["ab"],
        lambda: [{1, 2}, (2, 3)],
        lambda: [(v for v in (2, 1)), [0, 1]],
        lambda: [np.array([3, 1], dtype=np.int32), np.array([], dtype=np.int64)],
        lambda: {(0,): "a", (0, 1): "b"},
    ],
)
def test_constructor_on_unusual_input_equals_simplex_semantics(make):
    """Input that is not rows of plain integers goes through ``simplex``,
    which raises, or converts with ``int``, as it always did."""
    assert built(make()) == simplex_semantics(make())


@given(
    st.lists(
        st.lists(st.one_of(st.integers(-2, 6), st.sampled_from([2**62, 2**63 - 1, 2**63, 2**64])), max_size=4),
        max_size=8,
    ),
    st.sampled_from([list, tuple, np.array, lambda s: np.array(s, dtype=np.int32 if max(s, default=0) < 7 else None)]),
)
def test_constructor_equals_simplex_semantics(simplices, row):
    """Grouped by size and checked in numpy, the constructor names the same
    bad simplex as ``simplex`` over the input in order, or builds the same
    complex, whether each simplex is a list, a tuple or a numpy row (int64,
    int32, uint64, float or object)."""
    simplices = [row(s) for s in simplices]
    assert built(simplices) == simplex_semantics(simplices)


def test_rips_equilateral_triangle_at_exact_threshold():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    K = tda.build_rips(pts, 0.5, 2)
    assert (0, 1, 2) in K  # all pairwise distances equal 2r exactly


def test_rips_two_far_points():
    K = tda.build_rips([[0.0, 0.0], [3.0, 0.0]], 1.0, 2)
    assert K.simplices == frozenset({(0,), (1,)})


def test_rips_matches_brute_force():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0, 2, size=(10, 2))
    K = tda.build_rips(pts, 0.7, 2)
    assert K.simplices == frozenset(brute_force_rips(pts, 0.7, 2))


def test_rips_from_distance_matrix():
    D = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    K = tda.build_rips(D, 0.5, 2)
    assert (0, 1) in K and (1, 2) in K and (0, 2) not in K


def test_rips_rejects_asymmetric_matrix():
    D = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(InvalidMetricError):
        tda.build_rips(D, 1.0, 1, precomputed=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_are_rejected_naming_the_point(bad):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    pts[2, 1] = pts[3, 0] = bad
    builds = [
        lambda: tda.rips_filtration(pts, 1, 2.0),
        lambda: tda.build_rips(pts, 1.0, 1),
        lambda: tda.cech_filtration(pts, 1, 2.0),
        lambda: tda.min_enclosing_ball(pts),
        lambda: tda.eccentricity_values(pts),
    ]
    for build in builds:
        with pytest.raises(tda.TdaError, match=r"^point 2 \(counting from 0\) has a non-finite coordinate"):
            build()


def test_nan_distance_is_named_and_infinite_distance_never_joins():
    D = np.array([[0.0, 1.0, np.nan], [1.0, 0.0, 1.0], [np.nan, 1.0, 0.0]])
    with pytest.raises(InvalidMetricError, match=r"^distance matrix has a NaN entry at \(0, 2\)$"):
        tda.rips_filtration(D, 1, 2.0, precomputed=True)
    D[0, 2] = D[2, 0] = math.inf
    K = tda.build_rips(D, 2.0, 2, precomputed=True)
    assert (0, 1) in K and (1, 2) in K and (0, 2) not in K


def test_rips_monotone_in_radius():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(9, 3))
    for r in (0.2, 0.35, 0.5):
        small = tda.build_rips(pts, r, 2)
        large = tda.build_rips(pts, r * 1.4, 2)
        assert small.simplices <= large.simplices


def full_einsum_squared_distances(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def test_squared_distances_by_row_blocks_equal_full_einsum(monkeypatch):
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(600, 8))  # two blocks at the module's block size
    assert np.array_equal(squared_distance_matrix(pts, False), full_einsum_squared_distances(pts))
    for rows in (1, 7, 50):
        for n in (rows, rows + 1, 3 * rows + 2):
            d = int(rng.integers(1, 9))
            pts = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
            monkeypatch.setattr(complexes, "DISTANCE_BLOCK_BYTES", rows * n * d * 8)
            blocked = squared_distance_matrix(pts, False)
            assert np.array_equal(blocked, full_einsum_squared_distances(pts))


def brute_force_rips_entries(D2, max_dim, r):
    """Every vertex subset of at most max_dim+1 vertices whose pairwise
    squared distances are all <= 4r^2 + TOL, valued at the largest
    sqrt(D2)/2 over its pairs, by dimension and then lexicographically."""
    n = len(D2)
    out = []
    for k in range(1, max_dim + 2):
        for s in combinations(range(n), k):
            pairs = list(combinations(s, 2))
            if all(D2[a, b] <= 4.0 * r * r + complexes.TOL for a, b in pairs):
                out.append((s, max((math.sqrt(D2[a, b]) / 2.0 for a, b in pairs), default=0.0)))
    return out


@st.composite
def rips_inputs(draw):
    """(D2, max_dim, r, block_bytes): squared distances of 0-10 points in
    R^1..R^3 on a coarse lattice (many ties) or anywhere in the unit cube,
    or of a random symmetric distance matrix, and a distance block size of
    one to three rows or the module's own."""
    n = draw(st.integers(0, 10))
    if draw(st.booleans()):
        d = draw(st.integers(1, 3))
        coord = st.one_of(st.integers(0, 4).map(lambda k: k / 4), st.floats(0.0, 1.0))
        pts = np.array(draw(st.lists(coord, min_size=n * d, max_size=n * d))).reshape(n, d)
        D2 = squared_distance_matrix(pts, False)
    else:
        upper = draw(st.lists(st.floats(0.0, 2.0), min_size=n * n, max_size=n * n))
        D = np.triu(np.array(upper).reshape(n, n), 1)
        D2 = squared_distance_matrix(D + D.T, True)
    block = draw(st.sampled_from([1, 2, 3, None]))
    block_bytes = complexes.DISTANCE_BLOCK_BYTES if block is None else block * max(n, 1)
    return D2, draw(st.integers(0, 3)), draw(st.floats(0.05, 1.0)), block_bytes


@given(rips_inputs())
def test_rips_entries_equal_brute_force(inputs):
    """The array enumerator lists exactly the brute-force cliques, in
    (dimension, lexicographic) order, with bit-identical values, whatever
    the row-block size."""
    D2, max_dim, r, block_bytes = inputs
    with mock.patch.object(complexes, "DISTANCE_BLOCK_BYTES", block_bytes):
        layers = complexes._rips_entries(D2, max_dim, r)
    for k, (verts, vals) in enumerate(layers):
        assert verts.dtype == np.int64 and verts.shape == (len(vals), k + 1) and len(vals) > 0
    got = [(tuple(s), v) for verts, vals in layers for s, v in zip(verts.tolist(), vals.tolist())]
    assert got == brute_force_rips_entries(D2, max_dim, r)


@st.composite
def lookup_cases(draw):
    """(keys, queries): sorted distinct keys that form one contiguous run,
    a run with gaps, or a single key, starting near 0 or near 2^62, and
    queries: every key, the neighbours of the ends, and drawn ones below,
    inside, in the gaps and above them or at the int64 extremes and -1 (the
    missing-face key of ``_layout``), shuffled."""
    lo = draw(st.one_of(st.integers(0, 20), st.integers(2**62 - 20, 2**62 + 20)))
    shape = draw(st.sampled_from(["run", "gapped", "single"]))
    if shape == "single":
        steps = []
    else:
        steps = draw(st.lists(st.integers(1, 1 if shape == "run" else 3), min_size=1, max_size=30))
        if shape == "gapped":
            steps[draw(st.integers(0, len(steps) - 1))] += 1  # at least one gap
    keys = lo + np.cumsum([0] + steps, dtype=np.int64)
    near = st.integers(int(keys[0]) - 5, int(keys[-1]) + 5)
    extreme = st.sampled_from([-(2**63), -1, 0, 2**63 - 1])
    drawn = draw(st.lists(st.one_of(near, extreme), max_size=40))
    queries = [*keys.tolist(), int(keys[0]) - 1, int(keys[-1]) + 1, *drawn]
    return keys, np.array(draw(st.permutations(queries)), dtype=np.int64)


@given(lookup_cases())
def test_lookup_matches_a_dict(case):
    """``_lookup`` answers like a dict from key to index, whether it
    subtracts (one contiguous run) or searches (any other keys)."""
    keys, queries = case
    index = {k: i for i, k in enumerate(keys.tolist())}
    got = complexes._lookup(keys, queries)
    assert got.tolist() == [index.get(q, -1) for q in queries.tolist()]
    assert complexes._lookup(keys, queries.reshape(-1, 1)).shape == (len(queries), 1)
    assert complexes._lookup(keys[:0], queries).tolist() == [-1] * len(queries)


def test_meb_radius_tolerance_at_tiny_scale():
    """A point is inside when its distance is <= radius + TOL, not when its
    squared distance is <= radius^2 + TOL, which accepts it at any
    distance below about 3e-5."""
    pts = np.array([[0.0], [1.1920929e-07]])
    center, r = tda.min_enclosing_ball(pts)
    assert r == pytest.approx(5.9604645e-08, rel=1e-12)
    assert np.all(np.abs(pts[:, 0] - center[0]) <= r + complexes.TOL)


def test_meb_single_point():
    c, r = tda.min_enclosing_ball([[2.0, 3.0]])
    assert r == 0.0
    assert np.allclose(c, [2.0, 3.0])


def test_meb_two_points():
    c, r = tda.min_enclosing_ball([[0.0, 0.0], [2.0, 0.0]])
    assert abs(r - 1.0) < 1e-12
    assert np.allclose(c, [1.0, 0.0])


def test_meb_equilateral_circumradius_with_grid_search():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    _, r = tda.min_enclosing_ball(pts)
    assert abs(r - 1 / math.sqrt(3)) < 1e-9
    # grid-search oracle: no candidate center does better
    xs = np.linspace(-0.2, 1.2, 57)
    best = min(
        np.linalg.norm(pts - np.array([x, y]), axis=1).max() for x in xs for y in xs
    )
    assert r <= best + 1e-9


def test_meb_radius_between_half_diameter_and_diameter():
    rng = np.random.default_rng(11)
    for _ in range(25):
        pts = rng.normal(size=(rng.integers(2, 9), rng.integers(2, 5)))
        diam = max(
            np.linalg.norm(a - b) for a, b in combinations(pts, 2)
        )
        _, r = tda.min_enclosing_ball(pts)
        assert diam / 2 - 1e-9 <= r <= diam + 1e-9


def circumball(support):
    """Center and radius of the ball with every support point on its
    boundary and center in their affine hull, or None if there is none."""
    q0, U = support[0], support[1:] - support[0]
    if len(U) == 0:
        return q0, 0.0
    G = U @ U.T
    lam = np.linalg.lstsq(2.0 * G, np.diag(G), rcond=None)[0]
    center = q0 + U.T @ lam
    radii = np.linalg.norm(support - center, axis=1)
    if radii.max() - radii.min() > 1e-9:
        return None
    return center, float(radii.max())


@st.composite
def simplex_clouds(draw):
    """1 to d+1 points in R^d, d = 1, 2, 3, on a 1/8 grid (so degenerate
    and repeated points occur) or anywhere in the unit cube."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, d + 1))
    coord = st.one_of(st.integers(0, 8).map(lambda k: k / 8), st.floats(0.0, 1.0))
    return np.array(draw(st.lists(coord, min_size=n * d, max_size=n * d))).reshape(n, d)


def contains_all(center, r, pts) -> bool:
    """The library's inclusion test: squared distance <= r^2 + TOL."""
    return bool((((pts - center) ** 2).sum(axis=1) <= r * r + complexes.TOL).all())


@given(simplex_clouds())
def test_meb_matches_brute_force_over_supports(pts):
    """The ball contains every point, and no circumball of a subset of the
    points that contains them all is smaller (both up to the library's
    squared-distance tolerance)."""
    center, r = tda.min_enclosing_ball(pts)
    assert contains_all(center, r, pts)
    assert (np.linalg.norm(pts - center, axis=1) <= r + complexes.TOL).all()
    enclosing = []
    for k in range(1, len(pts) + 1):
        for support in combinations(range(len(pts)), k):
            ball = circumball(pts[list(support)])
            if ball is not None and contains_all(*ball, pts):
                enclosing.append(ball[1])
    assert abs(r * r - min(enclosing) ** 2) <= complexes.TOL


@given(small_clouds())
def test_rips_inside_cech_at_sqrt2_radius(cloud):
    """Jung's theorem: a set of diameter at most 2r lies in a ball of radius
    at most 2r sqrt(d / (2d + 2)) < sqrt(2) r."""
    pts, r, max_dim = cloud
    rips = tda.build_rips(pts, r, max_dim, precomputed=False)
    assert rips.simplices <= tda.build_cech(pts, math.sqrt(2) * r, max_dim).simplices


def test_cech_equilateral_below_and_above_circumradius():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    below = tda.build_cech(pts, 0.5, 2)
    assert (0, 1, 2) not in below
    assert len(below.p_simplices(1)) == 3
    above = tda.build_cech(pts, 0.58, 2)
    assert (0, 1, 2) in above


def test_cech_single_point():
    K = tda.build_cech([[5.0, 5.0, 5.0]], 0.25, 2)
    assert K.simplices == frozenset({(0,)})


def test_rips_cech_sandwich_small():
    rng = np.random.default_rng(5)
    for _ in range(5):
        pts = rng.uniform(0, 1, size=(8, 2))
        r = float(rng.uniform(0.15, 0.45))
        v_r = tda.build_rips(pts, r, 2)
        cech = tda.build_cech(pts, math.sqrt(2) * r, 2)
        v_sqrt2r = tda.build_rips(pts, math.sqrt(2) * r, 2)
        assert v_r.simplices <= cech.simplices <= v_sqrt2r.simplices


def test_cech_monotone_in_radius():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 1, size=(8, 2))
    for r in (0.2, 0.35):
        small = tda.build_cech(pts, r, 2)
        large = tda.build_cech(pts, r * 1.3, 2)
        assert small.simplices <= large.simplices


@given(small_clouds())
def test_builders_are_underlying_complexes_of_filtrations(cloud):
    pts, r, max_dim = cloud
    rips = tda.build_rips(pts, r, max_dim, precomputed=False)
    assert rips == P.rips_filtration(pts, max_dim, r, precomputed=False).underlying_complex()
    cech = tda.build_cech(pts, r, max_dim)
    assert cech == P.cech_filtration(pts, max_dim, r).underlying_complex()
    assert cech.is_subcomplex_of(rips)


def test_nerve_two_overlapping():
    N = tda.nerve_of_interval_cover(IntervalCover([(0, 2), (1, 3)]))
    assert N.simplices == frozenset({(0,), (1,), (0, 1)})


def test_nerve_disjoint():
    N = tda.nerve_of_interval_cover(IntervalCover([(0, 1), (2, 3)]))
    assert N.simplices == frozenset({(0,), (1,)})


def test_nerve_three_interval_path_matches_pairwise_check():
    intervals = [(0, 2), (1, 4), (3, 6)]
    N = tda.nerve_of_interval_cover(IntervalCover(intervals))
    for i in range(3):
        for j in range(i + 1, 3):
            expected = max(intervals[i][0], intervals[j][0]) < min(intervals[i][1], intervals[j][1])
            assert ((i, j) in N) == expected
    assert len(N.p_simplices(1)) == 2


@given(st.lists(st.sampled_from(["gap", "touch", "overlap"]), max_size=12))
def test_nerve_of_interval_cover_lays_out_the_constructors_arrays(links):
    """The nerve laid out directly equals the constructor's complex of the
    same simplices, array for array, on covers whose consecutive intervals
    overlap, touch (open intervals: no edge) or leave a gap."""
    reach = {"gap": 1.0, "touch": 2.0, "overlap": 3.0}
    cover = IntervalCover([(2.0 * i, 2.0 * i + reach[link]) for i, link in enumerate(links + ["gap"])])
    keys = [(i,) for i in range(len(cover))]
    keys += [(i, i + 1) for i, link in enumerate(links) if link == "overlap"]
    K, ref = tda.nerve_of_interval_cover(cover), complexes.SimplicialComplex(keys)
    assert len(K._verts) == len(K._faces) == len(ref._verts) == 1 + ("overlap" in links)
    for got, want in zip(K._verts + K._faces, ref._verts + ref._faces):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_nonconsecutive_overlap_rejected():
    with pytest.raises(NonlinearNerveError):
        IntervalCover([(0, 10), (1, 3), (2, 4)])


def test_eccentricity_two_points():
    vals = tda.eccentricity_values([[0.0, 0.0], [2.0, 0.0]], p=3.0)
    expected = (2.0**3 / 2) ** (1 / 3.0)
    assert np.allclose(vals, [expected, expected])


def test_eccentricity_single_point():
    assert tda.eccentricity_values([[1.0, 1.0]], p=2.0)[0] == 0.0


def test_eccentricity_flare_endpoints_attain_maxima():
    # plus-shaped cloud: 4 flares of 5 points each around the origin
    pts = [[0.0, 0.0]]
    for direction in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        for k in range(1, 6):
            pts.append([direction[0] * k, direction[1] * k])
    vals = tda.eccentricity_values(pts, p=2.0)
    tips = {5, 10, 15, 20}  # indices of the four flare endpoints
    top4 = set(np.argsort(vals)[-4:])
    assert top4 == tips


def test_eccentricity_empty_rejected():
    with pytest.raises(ValueError):
        tda.eccentricity_values(np.zeros((0, 2)))
