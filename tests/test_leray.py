"""Leray cosheaves: preimages, reconstruction, and sublevel recovery."""

import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import tda
from conftest import (
    FIXTURES,
    TupleComplex,
    admissible_random_cover,
    dense_quotient,
    homology_barcode,
    octagon_circle,
    random_banded_mapped_complex,
    random_complex,
    random_mapped_complex,
    tuple_faces,
)
from tda import cosheaf as C
from tda import fields
from tda import leray as L
from tda import persistence as P
from tda.complexes import IntervalCover, nerve_of_interval_cover
from tda.errors import CoverGranularityError, InternalInconsistencyError
from tda.homology import boundary_matrix


def octagon_mapped():
    K, values = octagon_circle()
    return L.MappedComplex(K, values)


GOLDEN = os.path.join(FIXTURES, "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
OCTAGON_COVER = IntervalCover([(-1.5, -0.3), (-0.8, 0.8), (0.3, 1.5)])


def test_preimage_whole_complex():
    M = octagon_mapped()
    assert L.preimage_subcomplex(M, (-2.0, 2.0)) == M.complex


def test_preimage_below_min_is_empty():
    M = octagon_mapped()
    assert len(L.preimage_subcomplex(M, (-9.0, -5.0))) == 0


def test_preimage_lower_half_is_an_arc():
    M = octagon_mapped()
    arc = L.preimage_subcomplex(M, (-1.5, 0.1))
    assert tda.homology(arc, 0).dimension == 1
    assert tda.homology(arc, 1).dimension == 0
    assert len(arc.p_simplices(0)) == 5
    assert len(arc.p_simplices(1)) == 4


def test_granularity_violation_names_a_simplex():
    M = octagon_mapped()
    with pytest.raises(CoverGranularityError) as err:
        L.build_leray_cosheaf(M, IntervalCover([(-1.5, -0.5), (-0.45, 1.5)]), 0)
    assert "(" in str(err.value)  # message carries the offending simplex


def full_scan_granularity_message(M, cover):
    """The first simplex, by dimension then vertices, whose value range
    fits in no interval, as the error names it; None if there is none."""
    for s in sorted(M.complex.simplices, key=lambda s: (len(s), s)):
        vmin = min(M.values[v] for v in s)
        vmax = max(M.values[v] for v in s)
        if not any(lo < vmin and vmax < hi for lo, hi in cover.intervals):
            return f"simplex {s} has value range [{vmin}, {vmax}] inside no cover interval"
    return None


def random_cover(rng, M):
    """A random linear cover near the value range, often inadmissible:
    up to four cuts, intervals padded past them by less than half the
    smallest gap, so only consecutive intervals overlap."""
    vals = [M.values[v] for v in M.complex.vertices()]
    lo = min(vals) - float(rng.uniform(-0.5, 1.0))
    hi = max(vals) + float(rng.uniform(-0.5, 1.0))
    points = np.unique(np.concatenate([[lo, hi], rng.uniform(lo, hi, int(rng.integers(0, 5)))]))
    pad = float(rng.uniform(0.0, np.diff(points).min() / 2))
    return IntervalCover([(a - pad, b + pad) for a, b in zip(points, points[1:])])


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_granularity_names_the_full_scans_first_offender(seed, banded):
    """Vertices and edges alone name the same first offending simplex,
    with the same message, as a scan over every simplex."""
    rng = np.random.default_rng(seed)
    M = (random_banded_mapped_complex if banded else random_mapped_complex)(rng)
    for cover in (random_cover(rng, M), admissible_random_cover(rng, M)):
        try:
            L.check_cover_granularity(M, cover)
            message = None
        except CoverGranularityError as err:
            message = str(err)
        assert message == full_scan_granularity_message(M, cover)


def test_octagon_leray_cosheaf_stalks():
    M = octagon_mapped()
    built = L.build_leray_cosheaf(M, OCTAGON_COVER, 0)
    stalks = built.cosheaf.stalks
    assert [stalks[(i,)] for i in range(3)] == [1, 2, 1]
    assert [stalks[(0, 1)], stalks[(1, 2)]] == [2, 2]
    assert C.validate(built.cosheaf, 2) is None


def test_constant_map_single_interval():
    K = tda.build_complex([[0, 1], [1, 2], [0, 2]])  # hollow triangle
    M = L.MappedComplex(K, {v: 5.0 for v in K.vertices()})
    cover = IntervalCover([(4.0, 6.0)])
    built = L.build_leray_cosheaf(M, cover, 1)
    assert built.cosheaf.stalks == {(0,): 1}
    for i in (0, 1, 2):
        assert L.global_homology(M, cover, i) == tda.homology(K, i).dimension


def test_octagon_global_homology_is_a_circle():
    M = octagon_mapped()
    assert L.global_homology(M, OCTAGON_COVER, 0) == 1
    assert L.global_homology(M, OCTAGON_COVER, 1) == 1
    assert L.global_homology(M, OCTAGON_COVER, 2) == 0


def test_two_octagons_global_homology():
    K, values = octagon_circle()
    shifted = [[i + 10, (i + 1) % 8 + 10] for i in range(8)]
    K2 = tda.build_complex([list(s) for s in K.simplices] + shifted)
    values2 = dict(values)
    values2.update({i + 10: values[i] for i in range(8)})
    M = L.MappedComplex(K2, values2)
    assert L.global_homology(M, OCTAGON_COVER, 0) == 2
    assert L.global_homology(M, OCTAGON_COVER, 1) == 2


def test_cover_refinement_keeps_global_homology():
    M = octagon_mapped()
    refined = IntervalCover([(-1.5, -0.3), (-0.8, 0.25), (-0.25, 0.8), (0.3, 1.5)])
    for i in (0, 1):
        assert L.global_homology(M, refined, i) == L.global_homology(M, OCTAGON_COVER, i)


def test_reconstruction_on_random_mapped_complexes():
    # Banded draws give covers of several intervals, so edge pieces occur.
    rng = np.random.default_rng(34)
    widest = 0
    for make in [random_mapped_complex] * 10 + [random_banded_mapped_complex] * 5:
        M = make(rng)
        cover = admissible_random_cover(rng, M)
        widest = max(widest, len(cover))
        for field in (2, 3):
            for i in (0, 1, 2):
                assert (
                    L.global_homology(M, cover, i, field)
                    == tda.homology(M.complex, i, field).dimension
                )
    assert widest >= 2


def test_leray_cosheaf_validates_on_random_inputs():
    rng = np.random.default_rng(35)
    widest = 0
    for make in [random_mapped_complex] * 5 + [random_banded_mapped_complex] * 5:
        M = make(rng)
        cover = admissible_random_cover(rng, M)
        widest = max(widest, len(cover))
        built = L.build_leray_cosheaf(M, cover, int(rng.integers(0, 2)))
        assert C.validate(built.cosheaf, 2) is None
    assert widest >= 2


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(0, 2), st.booleans())
def test_leray_maps_equal_dense_recipe(seed, field, degree, banded):
    """Stalks, piece representatives and extension maps of the Leray
    cosheaf are the rref recipe's: its coordinates, in the vertex piece,
    of the edge piece's representatives pushed forward by inclusion."""
    rng = np.random.default_rng(seed)
    M = (random_banded_mapped_complex if banded else random_mapped_complex)(rng)
    built = L.build_leray_cosheaf(M, admissible_random_cover(rng, M), degree, field)

    def recipe(ns, V):
        P = built.pieces[ns]
        return dense_quotient(boundary_matrix(P, degree, field), boundary_matrix(P, degree + 1, field), field, V)

    reps = {
        ns: recipe(ns, np.zeros((len(P.p_simplices(degree)), 0), dtype=np.int64))[0]
        for ns, P in built.pieces.items()
    }
    for ns, q in built.piece_homology.items():
        assert built.cosheaf.stalks[ns] == reps[ns].shape[1]
        assert np.array_equal(q.representatives, reps[ns])
    for (vertex, edge), got in built.cosheaf.maps.items():
        sub, sup = (built.pieces[ns].p_simplices(degree) for ns in (edge, vertex))
        inclusion = np.zeros((len(sup), len(sub)), dtype=np.int64)
        inclusion[[sup.index(s) for s in sub], range(len(sub))] = 1
        assert np.array_equal(got, recipe(vertex, inclusion @ reps[edge])[1])


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_inclusion_equals_tuple_membership(seed, relabel):
    """Per dimension, ``_inclusion(sub, sup)`` marks exactly the simplices
    of sup that the tuple oracle of sub holds, for sub a full subcomplex of
    sup on no vertex, on every vertex, or on a random subset, and sup the
    complex or a full subcomplex of it; ids are relabelled to large, spread
    values when ``relabel`` is set."""
    rng = np.random.default_rng(seed)
    K = random_complex(rng)
    if relabel:
        ids = rng.choice(2**62, size=len(K.vertices()), replace=False).tolist()
        K = tda.build_complex([[ids[v] for v in s] for s in K.simplices])
    vertices = K.vertices()
    for sup in (K, K.full_subcomplex(v for v in vertices if rng.random() < 0.8)):
        kept = sup.vertices()
        for subset in ([], kept, [v for v in kept if rng.random() < 0.5]):
            sub = sup.full_subcomplex(subset)
            ref = TupleComplex(sub.simplices)
            masks = L._inclusion(sub, sup)
            assert len(masks) == sup.dimension + 1
            for p, mask in enumerate(masks):
                assert mask.tolist() == [s in ref for s in sup.p_simplices(p)]


def test_levelset_commands_do_not_import_numpy_ma():
    """``tda leray`` and ``tda sublevel`` on the torus fixture leave
    ``numpy.ma`` unimported (``np.unique`` and ``np.isin`` import it)."""
    cover = "-4.2,-1.05;-2.95,0.97;-0.97,2.95;1.05,4.2;3.3,5.5"
    files = ["--complex", os.path.join(GOLDEN, "torus18.complex"), "--values", os.path.join(GOLDEN, "torus18.values")]
    script = "\n".join([
        "import io, sys",
        "from contextlib import redirect_stdout",
        "from tda import cli",
        "with redirect_stdout(io.StringIO()):",
        f"    codes = [cli.main(['leray', *{files!r}, '--cover={cover}', '--degree', '1']),",
        f"             cli.main(['sublevel', *{files!r}, '--cover={cover}', '--degree', '1', '--thresholds=-2,0,2'])]",
        "print(codes, 'numpy.ma' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0] False\n"


def test_sublevel_constant_map_is_constant_module():
    K = tda.build_complex([[0, 1], [1, 2], [0, 2]])
    M = L.MappedComplex(K, {v: 5.0 for v in K.vertices()})
    cover = IntervalCover([(4.0, 6.0)])
    for degree in (0, 1):
        module = L.sublevel_module(M, cover, degree, [5.5, 6.5, 7.5])
        expected = tda.homology(K, degree).dimension
        assert module.dims == [expected] * 3
        for Mx in module.maps:
            assert np.array_equal(Mx, np.eye(expected, dtype=np.int64))


def test_sublevel_matches_direct_lower_star_on_octagon():
    M = octagon_mapped()
    thresholds = [-0.9, -0.2, 0.5, 1.2]
    fc = P.lower_star_filtration(M.complex, M.values)
    for field in (2, 3):
        bc = P.compute_barcode(fc, field)
        for degree in (0, 1):
            module = L.sublevel_module(M, OCTAGON_COVER, degree, thresholds, field)
            assert module.dims == [bc.alive_at(t, degree) for t in thresholds]
            for j, Mx in enumerate(module.maps):
                rank = bc.rank(thresholds[j], thresholds[j + 1], degree)
                assert fields.rank(Mx, field) == rank
                # the bar basis: a 0/1 matrix with one 1 per surviving bar
                assert set(np.unique(Mx)) <= {0, 1}
                assert Mx.sum() == rank
                assert (Mx.sum(axis=0) <= 1).all() and (Mx.sum(axis=1) <= 1).all()


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.booleans())
def test_sublevel_barcode_equals_lower_star_barcode(seed, field, banded):
    """Level data recovers sublevel persistence bar for bar, checked
    against the boundary-reduction oracle. Banded complexes give covers of
    several intervals; the others mostly one."""
    rng = np.random.default_rng(seed)
    M = (random_banded_mapped_complex if banded else random_mapped_complex)(rng)
    cover = admissible_random_cover(rng, M)
    fc = P.lower_star_filtration(M.complex, M.values)
    expected = homology_barcode(fc, field)
    assert P.compute_barcode(fc, field) == expected
    assert L.sublevel_barcode(M, cover, field) == expected


def tuple_blowup(M, cover, field):
    """The blowup (total) complex of the cover's preimage pieces from tuples:
    the cells (ns, tau), piece by piece in nerve order, then by dimension
    and lexicographically, and the multiset of its (face cell, coface cell,
    coefficient mod field) terms. A piece's boundary keeps its signs on a
    nerve vertex and is negated on a nerve edge (a, b); each simplex of the
    edge's piece maps into b's piece with +1 and into a's with -1."""
    K, ivs = TupleComplex(M.complex.simplices), cover.intervals
    spans = {(i,): iv for i, iv in enumerate(ivs)}
    spans.update({(i, i + 1): (max(a[0], b[0]), min(a[1], b[1])) for i, (a, b) in enumerate(zip(ivs, ivs[1:]))})
    pieces = {ns: K.full_subcomplex(v for v in K.vertices() if lo < M.values[v] < hi) for ns, (lo, hi) in spans.items()}
    cells = [(ns, tau) for ns in sorted(pieces) for tau in sorted(pieces[ns].simplices, key=lambda s: (len(s), s))]
    terms = Counter()
    for ns, piece in pieces.items():
        for tau in piece.simplices:
            for face, sign in tuple_faces(tau):
                terms[(ns, face), (ns, tau), sign * (1 if len(ns) == 1 else -1) % field] += 1
            if len(ns) == 2:
                terms[((ns[1],), tau), (ns, tau), 1] += 1
                terms[((ns[0],), tau), (ns, tau), -1 % field] += 1
    return cells, terms


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.booleans())
def test_blowup_terms_equal_the_tuple_total_complex(seed, field, banded):
    """The cells, values, degrees and coboundary terms that
    ``_blowup_barcode`` hands to the pairing routine are the tuple-built
    total complex's, term for term, and its differential squares to zero."""
    rng = np.random.default_rng(seed)
    M = (random_banded_mapped_complex if banded else random_mapped_complex)(rng)
    cover = admissible_random_cover(rng, M)
    calls = []

    def capture(values, degrees, order, coboundary, field):
        calls.append((values, degrees, [np.asarray(t) for t in coboundary]))
        return P._filtration_barcode(values, degrees, order, coboundary, field)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(L, "_filtration_barcode", capture)
        L.sublevel_barcode(M, cover, field)
    [(values, degrees, (faces, cofaces, coefficients))] = calls
    cells, terms = tuple_blowup(M, cover, field)
    assert values.tolist() == [max(M.values[v] for v in tau) for _, tau in cells]
    assert degrees.tolist() == [len(ns) + len(tau) - 2 for ns, tau in cells]
    got = Counter(zip(faces.tolist(), cofaces.tolist(), (coefficients % field).tolist()))
    assert Counter({(cells[f], cells[c], x): k for (f, c, x), k in got.items()}) == terms
    D = np.zeros((len(cells), len(cells)), dtype=np.int64)
    np.add.at(D, (faces, cofaces), coefficients)
    assert not (D @ D % field).any()


def sublevel_complex(M, t):
    """The full subcomplex on the vertices with value at most t, same values."""
    K = M.complex.full_subcomplex(v for v in M.complex.vertices() if M.values[v] <= t)
    return L.MappedComplex(K, M.values)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.booleans())
@example(1, 3, True)
def test_sublevel_module_check_holds_at_every_threshold(seed, field, banded):
    """The per-threshold nerve-formula check never fires, and its dims
    agree with the lower-star barcode and with the formula on the
    sublevel complex, at a threshold below the minimum, at every vertex
    value, at every midpoint between consecutive values and above the
    maximum. The nerve is the cover's at every threshold, also where
    pieces are empty. Vertex ids are shuffled, so that lexicographic order
    does not follow value order."""
    rng = np.random.default_rng(seed)
    M = (random_banded_mapped_complex if banded else random_mapped_complex)(rng)
    label = dict(zip(M.complex.vertices(), rng.permutation(M.complex.vertices()).tolist()))
    K = tda.build_complex([label[v] for v in s] for s in M.complex.simplices)
    M = L.MappedComplex(K, {label[v]: x for v, x in M.values.items()})
    cover = admissible_random_cover(rng, M)
    nerve = nerve_of_interval_cover(cover)
    vals = sorted(set(M.values.values()))
    mids = [(a + b) / 2 for a, b in zip(vals, vals[1:])]
    thresholds = sorted({vals[0] - 1.0, vals[-1] + 1.0, *vals, *mids})
    bc = P.compute_barcode(P.lower_star_filtration(M.complex, M.values), field)
    for degree in (0, 1, 2):
        module = L.sublevel_module(M, cover, degree, thresholds, field)
        assert module.dims == [bc.alive_at(t, degree) for t in thresholds]
        # a midpoint's sublevel complex, and the top threshold's, is that of the value below it
        direct = {t: L.global_homology(sublevel_complex(M, t), cover, degree, field) for t in [thresholds[0], *vals]}
        assert module.dims == [direct[max(s for s in direct if s <= t)] for t in thresholds]
    assert L.build_leray_cosheaf(M, cover, 1, field).cosheaf.base == nerve
    for t in (thresholds[0], vals[0]):
        built = L.build_leray_cosheaf(sublevel_complex(M, t), cover, 1, field)
        assert built.cosheaf.base == nerve
    # below the minimum every piece is empty; at the minimum, with two or
    # more intervals, the top interval's piece is empty and the bottom's not
    empty = L._leray_pieces(sublevel_complex(M, thresholds[0]), cover)
    assert not any(len(piece) for piece in empty.values())
    if len(cover) > 1:
        lowest = L._leray_pieces(sublevel_complex(M, vals[0]), cover)
        assert len(lowest[(0,)]) > 0 and len(lowest[(len(cover) - 1,)]) == 0


@pytest.mark.parametrize("field", [2, 3])
def test_sublevel_check_fires_when_the_blowup_loses_a_bar(monkeypatch, field):
    """The nerve formula is evaluated apart from the blowup reduction, so a
    blowup barcode missing the octagon's degree-1 bar fails the check."""
    blowup = L._blowup_barcode

    def dropped(*args):
        bars = list(blowup(*args).bars)
        bars.remove(next(b for b in bars if b.degree == 1))
        return P.Barcode(bars)

    monkeypatch.setattr(L, "_blowup_barcode", dropped)
    with pytest.raises(InternalInconsistencyError, match=r"^cosheaf formula gives 1 at t=1\.2, blowup complex gives 0$"):
        L.sublevel_module(octagon_mapped(), OCTAGON_COVER, 1, [-0.9, -0.2, 0.5, 1.2], field)


def test_nested_consecutive_intervals_overlap_in_the_inner_one():
    """(1, 2) lies inside (0, 10), so their overlap is (1, 2), and level data
    on that cover recovers the path's lower-star barcode."""
    cover = IntervalCover([(0, 10), (1, 2)])
    assert cover.overlap(0) == (1.0, 2.0)
    M = L.MappedComplex(tda.build_complex([[0, 1], [1, 2], [2, 3]]), {0: 0.5, 1: 1.5, 2: 5.0, 3: 9.0})
    thresholds = [1.0, 2.0, 6.0, 10.0]
    for field in (2, 3):
        bc = P.compute_barcode(P.lower_star_filtration(M.complex, M.values), field)
        assert L.sublevel_barcode(M, cover, field) == bc
        module = L.sublevel_module(M, cover, 0, thresholds, field)
        assert module.dims == [bc.alive_at(t, 0) for t in thresholds]


def test_sublevel_module_maps_are_behind_the_guard(monkeypatch):
    """40 vertices under one interval, so no Leray edge piece has
    coordinates to build: each map, 40 x 40 int64, is the one dense view,
    built at the guard's bound and refused one byte under it."""
    M = L.MappedComplex(tda.build_complex([[v] for v in range(40)]), {v: 1.0 for v in range(40)})
    cover = IntervalCover([(0.0, 2.0)])
    monkeypatch.setattr(fields, "MAX_DENSE_BYTES", 40 * 40 * 8)
    module = L.sublevel_module(M, cover, 0, [1.5, 2.5])
    assert np.array_equal(module.maps[0], np.eye(40, dtype=np.int64))
    monkeypatch.setattr(fields, "MAX_DENSE_BYTES", 40 * 40 * 8 - 1)
    with pytest.raises(tda.TdaError, match=r"^a dense 40 x 40 matrix would take 12,800 bytes"):
        L.sublevel_module(M, cover, 0, [1.5, 2.5])


def test_sublevel_rejects_bad_thresholds():
    M = octagon_mapped()
    with pytest.raises(ValueError):
        L.sublevel_module(M, OCTAGON_COVER, 0, [0.5, 0.5])
    with pytest.raises(ValueError):
        L.sublevel_module(M, OCTAGON_COVER, 0, [])
