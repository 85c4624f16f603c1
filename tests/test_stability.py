"""Stability as a randomized correctness net: the bottleneck distance of
two barcodes is at most the sup distance of the functions that filter
them (Cohen-Steiner, Edelsbrunner and Harer 2007), whatever route
computes them. Function values are multiples of 1/4, so the lower-star
and sublevel bounds hold exactly; the Rips bound allows 1e-12 for the
square roots."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import tda
from conftest import bottleneck
from tda import leray
from tda.complexes import IntervalCover
from tda.persistence import Bar, Barcode, compute_barcode, lower_star_filtration, rips_filtration

def brute_bottleneck(A: Barcode, B: Barcode) -> float:
    """The bottleneck distance by trying, in each degree, every matching of
    the finite bars, each bar of A to a bar of B or to the diagonal, and
    matching the infinite bars by sorted birth."""
    distance = 0.0
    for degree in set(A.columns[0]) | set(B.columns[0]):
        P, Q = ([(b.birth, b.death) for b in bc.in_degree(degree)] for bc in (A, B))
        P_inf, Q_inf = ([b for b, d in bars if math.isinf(d)] for bars in (P, Q))
        if len(P_inf) != len(Q_inf):
            return math.inf
        P, Q = ([(b, d) for b, d in bars if not math.isinf(d)] for bars in (P, Q))

        def best(i: int, free: frozenset) -> float:  # P[i:] matched into Q[free] or the diagonal
            if i == len(P):
                return max([0.0, *((Q[j][1] - Q[j][0]) / 2 for j in free)])
            linf = (max(abs(P[i][0] - Q[j][0]), abs(P[i][1] - Q[j][1])) for j in free)
            return min(
                [max((P[i][1] - P[i][0]) / 2, best(i + 1, free))]
                + [max(d, best(i + 1, free - {j})) for d, j in zip(linf, free)]
            )

        infinite = (abs(p - q) for p, q in zip(sorted(P_inf), sorted(Q_inf)))
        distance = max(distance, best(0, frozenset(range(len(Q)))), *infinite)
    return distance


@st.composite
def small_barcodes(draw, size: int):
    """Up to ``size`` bars in degrees 0 and 1, a third of them infinite,
    births and lengths multiples of 1/4 so that distances tie."""
    bars = []
    for _ in range(draw(st.integers(0, size))):
        birth, length = draw(st.integers(0, 8)) / 4, draw(st.integers(0, 8)) / 4
        death = math.inf if draw(st.integers(0, 2)) == 0 else birth + length
        bars.append(Bar(draw(st.integers(0, 1)), birth, death))
    return Barcode(bars)


@given(small_barcodes(3), small_barcodes(3))
def test_bottleneck_equals_brute_force(A, B):
    """On at most 6 bars in all."""
    assert bottleneck(A, B) == brute_bottleneck(A, B) == bottleneck(B, A)
    assert bottleneck(A, A) == 0.0


def test_bottleneck_of_known_pairs():
    one, other = Barcode([Bar(0, 0.0, 4.0)]), Barcode([Bar(0, 1.0, 4.0)])
    assert bottleneck(one, other) == 1.0
    assert bottleneck(one, Barcode()) == 2.0  # to the diagonal
    assert bottleneck(Barcode([Bar(1, 0.0, 1.0), Bar(1, 3.0, 3.5)]), Barcode([Bar(1, 0.25, 1.0)])) == 0.25
    assert bottleneck(Barcode([Bar(0, 0.0, math.inf)]), Barcode([Bar(0, 2.5, math.inf)])) == 2.5
    assert bottleneck(Barcode([Bar(0, 0.0, math.inf)]), Barcode([Bar(1, 0.0, math.inf)])) == math.inf


@st.composite
def complexes_with_two_functions(draw):
    """A complex on 2-7 vertices with edges and triangles, f with integer
    values in [0, 4] (so cells tie) and g = f + delta, |delta| <= 1."""
    n = draw(st.integers(2, 7))
    simplices = [[v] for v in range(n)]
    simplices += draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=3, unique=True), max_size=12))
    f = {v: float(draw(st.integers(0, 4))) for v in range(n)}
    delta = {v: draw(st.integers(-4, 4)) / 4 for v in range(n)}
    return tda.build_complex(simplices), f, delta


@given(complexes_with_two_functions(), st.sampled_from([2, 3]))
def test_lower_star_barcodes_are_stable(case, field):
    K, f, delta = case
    g = {v: f[v] + delta[v] for v in f}
    A, B = (compute_barcode(lower_star_filtration(K, h), field) for h in (f, g))
    assert bottleneck(A, B) <= max(map(abs, delta.values()))


@st.composite
def banded_with_two_functions(draw):
    """A complex on 4-14 vertices whose simplices join vertices at most two
    ids apart, f(v) = v plus a quarter at most and g = f + delta with
    |delta| <= 1/2, with a cover admissible for both: each simplex's range
    under f and g together fits in one interval, as its width is at most
    ``span`` and consecutive cuts are over 2 * span apart."""
    n = draw(st.integers(4, 14))
    simplices = [[v] for v in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        a = draw(st.integers(0, n - 2))
        simplices.append(draw(st.lists(st.integers(a, min(a + 2, n - 1)), min_size=2, max_size=3, unique=True)))
    K = tda.build_complex(simplices)
    f = {v: v + draw(st.integers(-1, 1)) / 4 for v in range(n)}
    delta = {v: draw(st.integers(-2, 2)) / 4 for v in range(n)}
    g = {v: f[v] + delta[v] for v in range(n)}
    span = max(max(h[v] for h in (f, g) for v in s) - min(h[v] for h in (f, g) for v in s) for s in K)
    lo, hi = min(min(f.values()), min(g.values())), max(max(f.values()), max(g.values()))
    cuts = np.arange(lo + span + 0.5, hi - span, 2 * span + 1).tolist()
    ends, reach = [lo - 1, *cuts, hi + 1], span + 0.25
    intervals = [(ends[i] - reach * (i > 0), ends[i + 1] + reach * (i < len(cuts))) for i in range(len(cuts) + 1)]
    return K, f, g, IntervalCover(intervals)


@given(banded_with_two_functions(), st.sampled_from([2, 3]))
def test_sublevel_barcodes_are_stable(case, field):
    K, f, g, cover = case
    A, B = (leray.sublevel_barcode(leray.MappedComplex(K, h), cover, field) for h in (f, g))
    assert bottleneck(A, B) <= max(abs(f[v] - g[v]) for v in f)


@st.composite
def clouds_with_a_move(draw):
    """3-6 points on the integer grid of [0, 3]^2, where distances tie, and
    the same points each moved by 1/16 at most per coordinate, which
    breaks the ties."""
    n = draw(st.integers(3, 6))
    points = np.array([[draw(st.integers(0, 3)), draw(st.integers(0, 3))] for _ in range(n)], dtype=float)
    moves = np.array([[draw(st.integers(-1, 1)) / 16 for _ in range(2)] for _ in range(n)])
    return points, points + moves


@given(clouds_with_a_move(), st.sampled_from([2, 3]))
def test_rips_barcodes_are_stable(case, field):
    """Half the diameter moves by at most the largest move of a point, so
    with every simplex present the barcodes lie within it. The points are
    coordinates even where they look like a distance matrix."""
    points, moved = case
    radius = 1 + max(np.ptp(p, axis=0).max() for p in (points, moved)) * 2  # beyond either diameter
    A, B = (compute_barcode(rips_filtration(p, 2, radius, precomputed=False), field) for p in (points, moved))
    assert bottleneck(A, B) <= np.linalg.norm(points - moved, axis=1).max() + 1e-12
