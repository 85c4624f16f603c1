"""Filtrations, barcodes, and explicit-module decomposition."""

import functools
import math
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import tda
from conftest import face_closure, grid_torus, homology_barcode, interval_complex, matmul, random_complex, small_clouds
from tda import fields, formats
from tda import persistence as P
from tda import zigzag as Z
from tda.errors import InternalInconsistencyError, MalformedSimplexError, MissingVertexValueError, TdaError


def test_rips_filtration_two_points():
    fc = P.rips_filtration(np.array([[0.0, 0.0], [3.0, 0.0]]), 1, 10.0)
    assert fc.values() == {(0,): 0.0, (1,): 0.0, (0, 1): 1.5}


def test_rips_filtration_equilateral():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    vals = P.rips_filtration(pts, 2, 2.0).values()
    for e in [(0, 1), (0, 2), (1, 2)]:
        assert abs(vals[e] - 0.5) < 1e-9
    assert abs(vals[(0, 1, 2)] - 0.5) < 1e-9


def test_rips_filtration_matches_brute_force_values():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 1, size=(8, 2))
    vals = P.rips_filtration(pts, 2, 5.0).values()
    for s, v in vals.items():
        expected = max(
            (np.linalg.norm(pts[a] - pts[b]) / 2 for a, b in combinations(s, 2)),
            default=0.0,
        )
        assert abs(v - expected) < 1e-9


def test_rips_filtration_truncates_at_max_radius():
    fc = P.rips_filtration(np.array([[0.0, 0.0], [3.0, 0.0]]), 1, 1.0)
    assert (0, 1) not in fc.values()


def test_cech_filtration_triangle_value_is_circumradius():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    vals = P.cech_filtration(pts, 2, 2.0).values()
    assert abs(vals[(0, 1, 2)] - 1 / math.sqrt(3)) < 1e-9


@functools.lru_cache(maxsize=None)
def uniform_cloud_cech(seed):
    """A uniform 30-point cloud in the unit square and its Čech filtration
    up to radius 0.3, shared by the tests that sweep seeds 0-49."""
    pts = np.random.default_rng(seed).random((30, 2))
    return pts, P.cech_filtration(pts, max_radius=0.3)


def test_cech_filtration_monotone_on_uniform_clouds():
    # An obtuse triangle's enclosing-ball radius is half its longest edge,
    # which rounding can put an ulp below that edge's Rips value.
    for seed in range(50):
        vals = uniform_cloud_cech(seed)[1].values()
        for s, v in vals.items():
            facets = [s[:k] + s[k + 1 :] for k in range(len(s))] if len(s) > 1 else []
            assert all(v >= vals[f] for f in facets)


def test_build_cech_is_filtration_complex_on_uniform_clouds():
    for seed in range(50):
        pts, fc = uniform_cloud_cech(seed)
        assert tda.build_cech(pts, 0.3) == fc.underlying_complex()


def test_rips_filtration_rejects_predicted_oversize_quickly():
    # With the default infinite radius, 3000 points would give 4.5e9
    # triangles; the size bound must refuse before building any of them.
    pts = np.random.default_rng(0).random((3000, 2))
    start = time.process_time()
    with pytest.raises(TdaError, match="simplices"):
        P.rips_filtration(pts)
    assert time.process_time() - start < 1.0


@given(small_clouds())
def test_rips_values_are_half_diameters(cloud):
    pts, r, max_dim = cloud
    vals = P.rips_filtration(pts, max_dim, r, precomputed=False).values()
    for k in range(1, max_dim + 2):
        for s in combinations(range(len(pts)), k):
            half_diameter = max(
                (math.dist(pts[a], pts[b]) / 2 for a, b in combinations(s, 2)), default=0.0
            )
            if s in vals:
                assert abs(vals[s] - half_diameter) < 1e-12
                assert half_diameter <= r + 1e-9
            else:
                assert half_diameter > r - 1e-9


@given(small_clouds(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_sublevel_complexes_nest(cloud, s, t):
    pts, r, max_dim = cloud
    s, t = sorted((s, t))
    for fc in (P.rips_filtration(pts, max_dim, r, precomputed=False), P.cech_filtration(pts, max_dim, r)):
        assert fc.complex_at(s).is_subcomplex_of(fc.complex_at(t))


def test_lower_star_interval():
    fc = P.lower_star_filtration(interval_complex(), {0: 0.0, 1: 1.0})
    assert fc.values() == {(0,): 0.0, (1,): 1.0, (0, 1): 1.0}


def test_lower_star_constant_values():
    K = tda.build_complex([[0, 1, 2]])
    fc = P.lower_star_filtration(K, {0: 2.0, 1: 2.0, 2: 2.0})
    assert set(fc.values().values()) == {2.0}


def test_lower_star_missing_value():
    with pytest.raises(MissingVertexValueError):
        P.lower_star_filtration(interval_complex(), {0: 0.0})


def test_lower_star_sublevels_are_full_subcomplexes():
    rng = np.random.default_rng(9)
    K = random_complex(rng)
    values = {v: float(rng.integers(0, 4)) for v in K.vertices()}
    fc = P.lower_star_filtration(K, values)
    for t in (0.0, 1.0, 2.5, 4.0):
        expected = K.full_subcomplex([v for v in K.vertices() if values[v] <= t])
        assert fc.complex_at(t) == expected


def test_superlevel_negates_values():
    fc = P.superlevel_filtration(interval_complex(), {0: 0.0, 1: 1.0})
    assert fc.entries[0][0] == (1,)  # y enters first
    assert fc.values() == {(1,): -1.0, (0,): 0.0, (0, 1): 0.0}


def test_superlevel_constant_single_step():
    K = tda.build_complex([[0, 1, 2]])
    fc = P.superlevel_filtration(K, {v: 3.0 for v in (0, 1, 2)})
    assert set(fc.values().values()) == {-3.0}


def test_superlevel_flare_cloud_has_four_components():
    # plus-shaped cloud; high eccentricity = the four flare tips
    pts = [[0.0, 0.0]]
    for direction in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        for k in range(1, 6):
            pts.append([direction[0] * k, direction[1] * k])
    pts = np.asarray(pts, dtype=float)
    ecc = tda.eccentricity_values(pts, p=2.0)
    K = tda.build_rips(pts, 0.6, 1)  # the nearest-neighbour path graph
    fc = P.superlevel_filtration(K, {i: ecc[i] for i in range(len(pts))})
    bc = P.compute_barcode(fc)
    threshold = np.sort(ecc)[-5]  # between the tips and the rest
    assert bc.alive_at(-float(threshold) - 1e-6, 0) == 4


def test_filtration_validation():
    with pytest.raises(TdaError):
        P.FilteredComplex([((0, 1), 0.0)])  # faces missing
    with pytest.raises(TdaError):
        P.FilteredComplex([((0,), 1.0), ((1,), 0.0), ((0, 1), 0.5)])  # not monotone


def reference_filtration(entries):
    """Oracle: per-simplex validation and sort by (value, dimension,
    lexicographic), as the tuple-based filtration did it."""
    pairs = [(tda.simplex(s), float(v)) for s, v in entries]
    if len({s for s, _ in pairs}) != len(pairs):
        raise TdaError("duplicate simplex")
    values = dict(pairs)
    for s, v in pairs:
        for face in (s[:k] + s[k + 1 :] for k in range(len(s)) if len(s) > 1):
            if face not in values or values[face] > v:
                raise TdaError(f"bad face {face} of {s}")
    return sorted(pairs, key=lambda e: (e[1], len(e[0]), e[0]))


FAULTS = ["none", "missing face", "late face", "duplicate", "empty", "negative", "repeated vertex"]


@st.composite
def filtration_entries(draw):
    """Entries of a face-closed complex on 2 to 7 vertex ids (small, near
    2^40, or near 2^62) with simplices of up to 5 vertices and small
    integer values that never decrease from a face to a coface (so ties
    are common); then one fault or none; shuffled, each simplex's vertices
    in a random order."""
    base = draw(st.sampled_from([0, 2**40 - 3, 2**62]))
    ids = [base + i for i in draw(st.lists(st.integers(0, 60), min_size=2, max_size=7, unique=True))]
    tops = draw(st.lists(st.lists(st.sampled_from(ids), min_size=1, max_size=5, unique=True), max_size=4))
    values: dict = {}
    for s in sorted(face_closure([(v,) for v in ids] + [tuple(sorted(t)) for t in tops]), key=len):
        faces = [values[s[:k] + s[k + 1 :]] for k in range(len(s))] if len(s) > 1 else []
        values[s] = float(max([draw(st.integers(0, 3))] + faces))
    entries = list(values.items())
    fault = draw(st.one_of(st.just("none"), st.sampled_from(FAULTS)))
    inner = [s for s in values if any(len(t) == len(s) + 1 and set(s) < set(t) for t in values)]
    if fault == "missing face" and inner:
        entries.remove((f := draw(st.sampled_from(inner)), values[f]))
    elif fault == "late face" and inner:
        f = draw(st.sampled_from(inner))
        entries[entries.index((f, values[f]))] = (f, max(values.values()) + 1.0)
    elif fault == "duplicate":
        entries.append(draw(st.sampled_from(entries)))
    elif fault == "empty":
        entries.append(((), 0.0))
    elif fault == "negative":
        entries.append(((-1 - draw(st.integers(0, 3)),), 0.0))
    elif fault == "repeated vertex":
        entries.append(((ids[0], ids[0]), 5.0))
    entries = draw(st.permutations(entries))
    return [(tuple(draw(st.permutations(s))), v) for s, v in entries]


def simplex_entries(vertices):
    """Every face of one simplex, valued by its size, in reverse order."""
    faces = face_closure([tuple(vertices)])
    return [(s[::-1], float(len(s) // 2)) for s in sorted(faces, reverse=True)]


@given(filtration_entries())
@example(simplex_entries([2**40 + 7, 2**40 - 1, 2**40 + 2**20, 2**41, 5]))
@example(simplex_entries([2**62 + 5, 2**62, 2**62 + 3, 2**62 + 1, 2**62 + 9]))
def test_filtration_validates_and_orders_like_per_simplex_reference(entries):
    """The array validation raises the reference's exception class, or
    lists the reference's entries in its order; valid filtrations, vertex
    ids near 2^40 and 2^62 included, reduce to the boundary reduction's
    barcode."""
    try:
        expected = reference_filtration(entries)
    except TdaError as exc:
        with pytest.raises(TdaError) as raised:
            P.FilteredComplex(entries)
        assert type(raised.value) is type(exc)
        return
    fc = P.FilteredComplex(entries)
    assert fc.entries == expected
    assert len(fc) == len(expected)
    for field in (2, 3):
        assert P.compute_barcode(fc, field, True) == homology_barcode(fc, field, True)


@pytest.mark.parametrize(
    "entries, error",
    [
        ([((), 0.0)], MalformedSimplexError),
        ([((-1,), 0.0)], MalformedSimplexError),
        ([((0, 0), 0.0)], MalformedSimplexError),
        ([((0,), 0.0), ((0,), 1.0)], TdaError),
        ([((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0), ((1, 0), 2.0)], TdaError),
        ([((0,), 0.0), ((0, 1), 1.0)], TdaError),
        ([((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 0.0), ((1, 2), 0.0), ((0, 1, 2), 1.0)], TdaError),
        ([((0,), 2.0), ((1,), 0.0), ((0, 1), 1.0)], TdaError),
    ],
)
def test_invalid_filtrations_raise_their_error_class(entries, error):
    """User entries and library layers go through the same checks."""
    builds = [lambda: P.FilteredComplex(entries)]
    if all(s for s, _ in entries):  # a layer holds no empty simplex
        size = max(len(s) for s, _ in entries)
        layers = [
            (np.array([s for s, _ in entries if len(s) == k], dtype=np.int64).reshape(-1, k),
             [v for s, v in entries if len(s) == k])
            for k in range(1, size + 1)
        ]
        builds.append(lambda: P.FilteredComplex.from_layers(layers))
    for build in builds:
        with pytest.raises(TdaError) as raised:
            build()
        assert type(raised.value) is error


@st.composite
def any_degree_bars(draw):
    birth = draw(st.floats(allow_nan=False, allow_infinity=False))
    death = draw(st.one_of(st.just(math.inf), st.floats(min_value=birth, allow_nan=False)))
    return P.Bar(draw(st.one_of(st.none(), st.integers(0, 3))), birth, death)


@st.composite
def tied_bars(draw):
    """Up to 12 bars, degrees None and 0-3 mixed, whose ends come from a
    pool of 0.0, -0.0 and up to three floats in [-10, 10], so that equal
    keys and signed zeros repeat."""
    pool = st.sampled_from([0.0, -0.0] + draw(st.lists(st.floats(-10, 10), max_size=3)))
    ends = st.tuples(st.one_of(st.none(), st.integers(0, 3)), pool, st.one_of(pool, st.just(math.inf)))
    return [P.Bar(d, min(a, b), max(a, b)) for d, a, b in draw(st.lists(ends, max_size=12))]


def old_bar_key(bar):
    """The sort key of the barcode that held a sorted tuple of bars."""
    return (bar.degree is None, -1 if bar.degree is None else bar.degree, bar.birth, bar.death)


@given(
    st.one_of(st.lists(any_degree_bars(), max_size=10), tied_bars()),
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10, 10)),
    st.floats(0, 5),
)
@example([P.Bar(0, 0.0, 1.0), P.Bar(0, -0.0, 1.0), P.Bar(1, -0.0, math.inf), P.Bar(0, 0.0, 0.0)], 0.0, 0.5)
@example([P.Bar(None, 0.0, 1.0), P.Bar(3, -0.0, 1.0), P.Bar(None, -0.0, 1.0), P.Bar(0, 0.0, -0.0)], -0.0, 0.0)
def test_column_barcode_equals_bar_barcode(bars, t, width):
    """A barcode built from three columns is the barcode built from the
    same bars: equal, with the same counts and JSON bytes. Both match two
    oracles kept here: the bars sorted by the old key (a stable sort, so
    0.0 and -0.0 ties keep input order; repr tells them apart), and
    brute-force loops over those bars for alive_at, rank and in_degree."""
    expected = sorted(bars, key=old_bar_key)
    by_bars = P.Barcode(bars)
    codes = [P._NONE if b.degree is None else b.degree for b in bars]
    by_columns = P.Barcode.from_columns(codes, [b.birth for b in bars], [b.death for b in bars])
    assert by_columns == by_bars and len(by_columns) == len(by_bars) == len(bars)
    assert by_columns.counter() == by_bars.counter()
    columns = ([b.degree for b in expected], [b.birth for b in expected], [b.death for b in expected])
    for bc in (by_bars, by_columns):
        assert list(map(repr, bc)) == list(map(repr, bc.bars)) == list(map(repr, expected))
        assert repr(bc.columns) == repr(columns) and all(d is None or type(d) is int for d in bc.columns[0])
        for degree in (None, 0, 1, 3):
            ours = [b for b in expected if degree is None or b.degree == degree]
            assert bc.alive_at(t, degree) == sum(1 for b in ours if b.birth <= t < b.death)
            assert bc.rank(t, t + width, degree) == sum(1 for b in ours if b.birth <= t and b.death > t + width)
            assert list(map(repr, bc.in_degree(degree))) == [repr(b) for b in expected if b.degree == degree]
    text = formats.barcode_to_json(by_columns, 3)
    assert text == formats.barcode_to_json(by_bars, 3)
    assert formats.parse_barcode_json(text) == (3, by_columns)


@pytest.mark.parametrize("degree", [-1, True, False, 2**63 - 1, 2**63, 2**70, 1.0, "1"])
def test_bar_refuses_a_bad_degree(degree):
    """A degree is None or an integer from 0 to 2^63 - 2: a bool, a negative
    number or 2^63 - 1, the int64 code of None, would change meaning."""
    with pytest.raises(TdaError, match="bar degree"):
        P.Bar(degree, 0.0, 1.0)


def test_barcode_degrees_are_none_or_0_to_2_to_the_63_minus_2():
    with pytest.raises(TdaError, match="bar degree"):
        P.Barcode([P.Bar(-1, 0, 1)])
    with pytest.raises(TdaError, match="bar degree"):
        P.Barcode.from_columns([-1], [0.0], [1.0])
    for degree in (None, 0, np.int64(2), 2**63 - 2):
        assert P.Barcode([P.Bar(degree, 0.0, 1.0)]).columns == ([degree], [0.0], [1.0])


@pytest.mark.parametrize(
    "birth, death", [(math.inf, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (1.0, 0.5), (0.0, math.nan)]
)
def test_column_barcode_checks_bars(birth, death):
    with pytest.raises(TdaError):
        P.Bar(0, birth, death)
    with pytest.raises(TdaError):
        P.Barcode.from_columns([0, 1], [0.0, birth], [1.0, death])


def test_barcode_single_point():
    bc = P.compute_barcode(P.rips_filtration(np.zeros((1, 2)), 2, 1.0))
    assert [(b.degree, b.birth, b.death) for b in bc] == [(0, 0.0, math.inf)]


def test_barcode_two_points():
    bc = P.compute_barcode(P.rips_filtration(np.array([[0.0, 0.0], [3.0, 0.0]]), 1, 9.0))
    assert bc.counter() == {(0, 0.0, math.inf): 1, (0, 0.0, 1.5): 1}


def test_barcode_circle_sample():
    rng = np.random.default_rng(10)
    angles = np.linspace(0, 2 * math.pi, 24, endpoint=False)
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    bc = P.compute_barcode(P.rips_filtration(pts, 2, 1.2))
    ones = bc.in_degree(1)
    assert len([b for b in ones if b.death - b.birth > 0.5]) == 1
    assert len([b for b in bc.in_degree(0) if b.infinite]) == 1


def test_zero_length_bars_suppressed_by_default():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    fc = P.rips_filtration(pts, 2, 2.0)
    default = P.compute_barcode(fc)
    assert all(b.death > b.birth for b in default)
    kept = P.compute_barcode(fc, include_zero_bars=True)
    assert len(kept) > len(default)
    assert default.counter() == P.Barcode([b for b in kept if b.death > b.birth]).counter()


def test_barcode_invariant_under_tie_relabeling():
    rng = np.random.default_rng(12)
    for field in (2, 3):
        for _ in range(5):
            K = random_complex(rng, max_vertices=7)
            values = {v: float(rng.integers(0, 3)) for v in K.vertices()}
            fc = P.lower_star_filtration(K, values)
            perm = {v: w for v, w in zip(K.vertices(), rng.permutation(K.vertices()))}
            K2 = tda.build_complex([sorted(perm[v] for v in s) for s in K.simplices] or [[0]])
            fc2 = P.lower_star_filtration(K2, {perm[v]: values[v] for v in K.vertices()})
            left = P.compute_barcode(fc, field).counter()
            right = P.compute_barcode(fc2, field).counter()
            assert left == right


def random_monotone_filtration(rng: np.random.Generator) -> P.FilteredComplex:
    """A random complex valued at least at each simplex's faces, with small
    integer values so ties are common; not a lower-star filtration."""
    K = random_complex(rng, max_vertices=9)
    values: dict = {}
    for s in sorted(K.simplices, key=len):
        faces = [values[s[:k] + s[k + 1 :]] for k in range(len(s))] if len(s) > 1 else []
        values[s] = max([float(rng.integers(0, 4))] + faces)
    return P.FilteredComplex(values.items())


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5]), st.booleans(), st.booleans())
def test_barcode_equals_homology_reduction(seed, field, include_zero_bars, lattice):
    """The coboundary route pairs like the boundary reduction, ties and
    zero-length bars included: random monotone filtrations, and Rips
    filtrations of points on a coarse lattice (many equal distances)."""
    rng = np.random.default_rng(seed)
    if lattice:
        pts = rng.integers(0, 4, size=(int(rng.integers(1, 11)), 2)) / 4.0
        fc = P.rips_filtration(pts, int(rng.integers(1, 4)), float(rng.uniform(0.1, 0.8)))
    else:
        fc = random_monotone_filtration(rng)
    assert P.compute_barcode(fc, field, include_zero_bars) == homology_barcode(fc, field, include_zero_bars)


@given(small_clouds(), st.sampled_from([2, 3, 5]), st.booleans())
# Over F3 a non-apparent edge column here reduces by an apparent one whose
# pivot coefficient is 2, so that column must be scaled when it is built.
@example((np.array([[0.0], [1.0], [1.0], [0.1]]), 0.7, 2), 3, False)
def test_rips_barcode_equals_homology_reduction(cloud, field, include_zero_bars):
    pts, r, max_dim = cloud
    fc = P.rips_filtration(pts, max_dim, r, precomputed=False)
    assert P.compute_barcode(fc, field, include_zero_bars) == homology_barcode(fc, field, include_zero_bars)


@pytest.mark.parametrize("field", [2, 3, 5, 7])
def test_apparent_column_with_pivot_coefficient_2_is_scaled(field):
    """A cell complex: vertex v, loops e1 and e2 (zero boundary), and a
    2-cell f attached along e1 + 2 e2, at values 0, 1, 2, 3. e2 is the
    latest face of its earliest coface f, so it is apparent with pivot
    coefficient 2; e1's column looks it up and subtracts it scaled to
    pivot 1 (over F5 and F7 the inverse of 2 is not 2). Over F2 the
    attaching map is e1, so f kills e1 instead."""
    coboundary = ([1, 2], [3, 3], [1, 2])  # (face, coface, coefficient) for e1 and e2 in f
    bc = P._filtration_barcode([0.0, 1.0, 2.0, 3.0], [0, 1, 1, 2], np.arange(4), coboundary, field)
    killed = (1.0, 3.0) if field == 2 else (2.0, 3.0)
    survives = 2.0 if field == 2 else 1.0
    assert bc.counter() == {(0, 0.0, math.inf): 1, (1, *killed): 1, (1, survives, math.inf): 1}


@st.composite
def disconnected_filtrations(draw):
    """A filtration with several components: Rips on 2-4 clusters of 1-4
    points, 10 apart, plus 0-3 isolated points, at a radius under the
    gaps; or a random monotone filtration plus 1-3 isolated vertices.
    Union-find never reaches n0 - 1 merges on either."""
    if draw(st.booleans()):
        clusters = [draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=4))
                    for _ in range(draw(st.integers(2, 4)))]
        pts = [(x + 10 * k, y) for k, cluster in enumerate(clusters) for x, y in cluster]
        pts += [(-10.0 * (k + 1), 5.0) for k in range(draw(st.integers(0, 3)))]
        return P.rips_filtration(np.array(pts), draw(st.integers(1, 2)), draw(st.floats(0.1, 1.0)))
    fc = random_monotone_filtration(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    top = max(s[0] for s, _ in fc.entries if len(s) == 1)
    extra = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    return P.FilteredComplex(fc.entries + [((top + 1 + k,), float(v)) for k, v in enumerate(extra)])


@given(disconnected_filtrations(), st.sampled_from([2, 3, 5]), st.booleans())
def test_disconnected_barcode_equals_homology_reduction(fc, field, include_zero_bars):
    """Several components: the union-find leaves more than one root, and
    an isolated vertex's bar is infinite."""
    bc = P.compute_barcode(fc, field, include_zero_bars)
    assert sum(b.infinite for b in bc.in_degree(0)) >= 2
    assert bc == homology_barcode(fc, field, include_zero_bars)


@pytest.mark.parametrize(
    "entries, bars",
    [
        ([((0,), -0.0), ((1,), 0.0), ((2,), 0.0), ((0, 2), 2.0)],
         [("0.0", 2.0), ("0.0", math.inf), ("-0.0", math.inf)]),
        ([((0,), -0.0), ((1,), 0.0), ((2,), -0.0), ((3,), 0.0), ((0, 3), 2.0), ((1, 2), 1.0), ((2, 3), 1.0)],
         [("0.0", 1.0), ("-0.0", 1.0), ("0.0", 2.0), ("-0.0", math.inf)]),
        ([((0,), -0.0), ((1,), 0.0), ((2,), -0.0), ((3,), -0.0), ((0, 1), 2.0), ((1, 2), 2.0), ((2, 3), 1.0)],
         [("-0.0", 1.0), ("0.0", 2.0), ("-0.0", 2.0), ("-0.0", math.inf)]),
        ([((0,), 0.0), ((1,), -0.0), ((2,), 0.0), ((3,), -0.0), ((0, 1), 1.0), ((1, 3), 1.0), ((2, 3), 1.0)],
         [("-0.0", 1.0), ("-0.0", 1.0), ("0.0", 1.0), ("0.0", math.inf)]),
    ],
)
def test_degree_0_bars_equal_but_for_a_zero_sign_keep_their_order(entries, bars):
    """Barcode keeps input order among bars equal but for the sign of a
    zero, and the JSON spells 0.0 and -0.0 apart. Degree 0 lists vertices
    without an edge, then each vertex that is the later end of its
    earliest edge, then the rest, each by decreasing position, as a
    degree's column pass does."""
    degrees, births, deaths = P.compute_barcode(P.FilteredComplex(entries), 2).columns
    assert degrees == [0] * len(bars)
    assert list(zip(map(repr, births), deaths)) == bars


def test_degree_1_cell_with_one_vertex_face_raises():
    """Cells 1 and 2 are vertices; cell 0, of degree 1, has only vertex 1
    as a face."""
    coboundary = ([1], [0], [1])
    with pytest.raises(InternalInconsistencyError, match="cell 0 has 1 faces of degree 0, not 0 or 2"):
        P._filtration_barcode([1.0, 0.0, 0.0], [1, 0, 0], np.array([1, 2, 0]), coboundary, 2)


@pytest.mark.parametrize("field", [2, 3])
def test_degree_1_cell_whose_vertex_coefficients_do_not_cancel(field):
    """Cell 0 has vertex faces 1 and 2 with coefficients (1, 1): an edge
    over F2, where 1 + 1 = 0; over F3 the faces do not cancel."""
    coboundary = ([1, 2], [0, 0], [1, 1])
    args = ([1.0, 0.0, 0.0], [1, 0, 0], np.array([1, 2, 0]), coboundary, field)
    if field == 2:
        assert P._filtration_barcode(*args).counter() == {(0, 0.0, math.inf): 1, (0, 0.0, 1.0): 1}
    else:
        with pytest.raises(InternalInconsistencyError, match="cell 0 has degree-0 faces with coefficients 1 and 1"):
            P._filtration_barcode(*args)


def test_filtration_barcode_refuses_2_to_the_31_cells_before_allocating():
    """Positions are int32, so 2^31 cells raise a TdaError; the zero-stride
    inputs allocate nothing, and neither may the guard."""
    n = 2**31
    cells = [np.broadcast_to(x, (n,)) for x in (0.0, np.int64(0), np.int64(0))]
    tracemalloc.start()
    try:
        with pytest.raises(TdaError, match="2,147,483,648 cells is too large"):
            P._filtration_barcode(*cells, ([], [], []), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak:,} bytes"


def test_pointwise_dimension_matches_homology():
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 1, size=(7, 2))
    fc = P.rips_filtration(pts, 2, 1.5)
    bc = P.compute_barcode(fc)
    for t in fc.grades():
        Kt = fc.complex_at(t)
        for deg in (0, 1):
            assert bc.alive_at(t, deg) == tda.homology(Kt, deg).dimension


def test_decompose_rank_two_map():
    m = Z.ExplicitModule(dims=[3, 2], maps=[np.array([[1, 0, 0], [0, 1, 0]])])
    bc = Z.decompose_explicit(m)
    assert bc.counter() == {(None, 0.0, 1.0): 2, (None, 0.0, 0.0): 1}


def test_decompose_identity_chain_complex():
    m = Z.ExplicitModule(dims=[1, 1], maps=[np.array([[1]])])
    bc = Z.decompose_explicit(m, 5)
    assert bc.counter() == {(None, 0.0, 1.0): 1}
    # homology of the chain complex: nothing is left once the pair is removed
    assert not [b for b in bc if b.birth == b.death]


def test_decompose_zero_maps_gives_singletons():
    m = Z.ExplicitModule(dims=[2, 3], maps=[np.zeros((3, 2), dtype=int)])
    bc = Z.decompose_explicit(m)
    assert bc.counter() == {(None, 0.0, 0.0): 2, (None, 1.0, 1.0): 3}


def test_decompose_reconstruction_random():
    rng = np.random.default_rng(14)
    for field in (2, 3):
        for _ in range(10):
            dims = [int(rng.integers(0, 4)) for _ in range(int(rng.integers(1, 5)))]
            maps = [
                rng.integers(0, field, size=(dims[i + 1], dims[i]))
                for i in range(len(dims) - 1)
            ]
            module = Z.ExplicitModule(dims=dims, maps=maps)
            bc = Z.decompose_explicit(module, field)
            bars = [(int(b.birth), int(b.death)) for b in bc]
            for i, d in enumerate(dims):
                assert sum(1 for lo, hi in bars if lo <= i <= hi) == d
            for b in range(len(dims)):
                M = np.eye(module.dims[b], dtype=np.int64)
                for d in range(b, len(dims)):
                    if d > b:
                        M = matmul(module.maps[d - 1], M, field)
                    r = fields.rank(M, field)
                    assert sum(1 for lo, hi in bars if lo <= b and d <= hi) == r


def test_diagram_points():
    bc = P.Barcode([P.Bar(0, 0.0, 1.0)])
    assert P.barcode_to_diagram(bc) == [(0.0, 1.0)]
    assert P.barcode_to_diagram(P.Barcode([])) == []


def test_diagram_of_torus_height_has_four_points():
    K, values = grid_torus(18)
    bc = P.compute_barcode(P.lower_star_filtration(K, values))
    diagram = P.barcode_to_diagram(bc)
    assert len(diagram) == 4
    assert diagram == [(-3.0, math.inf), (-1.0, math.inf), (1.0, math.inf), (3.0, math.inf)]


def test_rank_oracle_small():
    rng = np.random.default_rng(15)
    pts = rng.uniform(0, 1, size=(6, 2))
    fc = P.rips_filtration(pts, 2, 1.5)
    bc = P.compute_barcode(fc)
    grades = fc.grades()
    quotients = {}
    for t in grades:
        Kt = fc.complex_at(t)
        quotients[t] = Kt
    for deg in (0, 1):
        for i, r in enumerate(grades):
            for s in grades[i:]:
                inc = {v: v for v in quotients[r].vertices()}
                M = tda.induced_map(inc, quotients[r], quotients[s], deg, 2)
                assert bc.rank(r, s, deg) == fields.rank(M, 2)
