"""Acceptance criteria, one test per criterion, all tolerances exact.

Each test prints a `criterion N: PASS` line (visible with pytest -s) with
its elapsed time; a failed assertion means the criterion is red.
"""

import math
import time

import numpy as np

import tda
from conftest import (
    TORUS_THRESHOLDS,
    admissible_random_cover,
    circle60,
    grid_torus,
    interval_complex,
    torus_leray_zigzag,
    random_banded_mapped_complex,
    random_complex,
    random_mapped_complex,
    random_zigzag,
    torus_cover,
    twisted_constant_cosheaf,
)
from tda import cosheaf as C
from tda import fields
from tda import leray as L
from tda import persistence as P
from tda import zigzag as Z


def _report(number: int, started: float, detail: str) -> None:
    print(f"criterion {number}: PASS ({time.perf_counter() - started:.2f}s) {detail}")


def test_criterion_1_interval_homology():
    started = time.perf_counter()
    K = interval_complex()
    for field in (2, 3):
        assert tda.homology(K, 0, field).dimension == 1
        assert tda.homology(K, 1, field).dimension == 0
    _report(1, started, "interval complex H_0=1, H_1=0 over F2 and F3")


def test_criterion_2_interval_cosheaves():
    started = time.perf_counter()
    K = interval_complex()
    closed = C.constant_cosheaf(K, 1)
    half_open = C.SimplicialCosheaf(
        K,
        {(0,): 1, (1,): 0, (0, 1): 1},
        {((0,), (0, 1)): np.ones((1, 1), int), ((1,), (0, 1)): np.zeros((0, 1), int)},
    )
    open_iv = C.SimplicialCosheaf(
        K,
        {(0,): 0, (1,): 0, (0, 1): 1},
        {((0,), (0, 1)): np.zeros((0, 1), int), ((1,), (0, 1)): np.zeros((0, 1), int)},
    )
    constant = C.constant_cosheaf(K, 1)
    expected = [(closed, 1, 0), (half_open, 0, 0), (open_iv, 0, 1), (constant, 1, 0)]
    for F, h0, h1 in expected:
        assert C.cosheaf_homology(F, 0).dimension == h0
        assert C.cosheaf_homology(F, 1).dimension == h1
        census = C.bar_census(F)
        assert census[0] == h0  # closed bars count H_0
        assert census[1] == h1  # open bars count H_1
    _report(2, started, "closed/half-open/open/constant cosheaves on the interval")


def test_criterion_3_torus_leray_pipeline():
    started = time.perf_counter()
    K, values = grid_torus(18)
    assert len(K.p_simplices(0)) >= 49  # at least a 7x7 grid
    M = L.MappedComplex(K, values)
    cover = torus_cover()
    assert len(cover) == 5
    built = L.build_leray_cosheaf(M, cover, 1)
    h0 = C.cosheaf_homology(built.cosheaf, 0)
    h1 = C.cosheaf_homology(built.cosheaf, 1)
    assert h0.dimension == 1
    assert h1.dimension == 1
    _, offsets = C.chain_offsets(built.cosheaf, 1)
    assert offsets[-1] == 4  # edge chain space is k^4
    generator = h1.cycle_basis[0]
    assert generator.tolist() == [1, 1, 1, 1]
    globals_ = [L.global_homology(M, cover, i) for i in (0, 1, 2)]
    assert globals_ == [1, 2, 1]
    _report(3, started, "torus Leray cosheaf (1,1), generator (1,1,1,1), global (1,2,1)")


def test_criterion_4_leray_reconstruction_random():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(50):
        M = random_mapped_complex(rng, max_vertices=30)
        cover = admissible_random_cover(rng, M)
        for i in (0, 1, 2):
            assert L.global_homology(M, cover, i) == tda.homology(M.complex, i).dimension
    _report(4, started, "50 random mapped complexes reconstruct H_0, H_1, H_2")


def test_criterion_5_persistence_rank_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(50):
        n = int(rng.integers(4, 9))
        pts = rng.uniform(0, 1, size=(n, int(rng.integers(2, 4))))
        fc = P.rips_filtration(pts, 2, 2.0)
        bc = P.compute_barcode(fc)
        grades = fc.grades()
        complexes = [fc.complex_at(t) for t in grades]
        for degree in (0, 1, 2):
            steps = [
                tda.induced_map(
                    {v: v for v in complexes[i].vertices()},
                    complexes[i],
                    complexes[i + 1],
                    degree,
                    2,
                )
                for i in range(len(grades) - 1)
            ]
            for i in range(len(grades)):
                M = np.eye(tda.homology(complexes[i], degree).dimension, dtype=np.int64)
                for j in range(i, len(grades)):
                    if j > i:
                        M = fields.matmul(steps[j - 1], M, 2)
                    assert bc.rank(grades[i], grades[j], degree) == fields.rank(M, 2)
    _report(5, started, "bar counts equal induced-map ranks over every grade pair")


def test_criterion_6_zigzag_reconstruction():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(100):
        z = random_zigzag(rng, max_len=6, max_dim=3, field=2)
        bars = Z.decompose_zigzag(z, 2)
        n = len(z.dims)
        for i in range(n):
            assert sum(b.multiplicity for b in bars if b.lo <= i <= b.hi) == z.dims[i]
        for b in range(n):
            for d in range(b, n):
                covering = sum(bar.multiplicity for bar in bars if bar.lo <= b and d <= bar.hi)
                assert covering == Z.generalized_rank(z, b, d, 2)
    torus_bars = Z.decompose_zigzag(torus_leray_zigzag())
    assert sorted((b.lo, b.hi, b.multiplicity) for b in torus_bars) == [(1, 5, 1), (2, 4, 1)]
    _report(6, started, "100 random zigzags reconstruct; torus zigzag gives the two intervals")


def test_criterion_7_rips_cech_sandwich():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    for _ in range(30):
        n = int(rng.integers(4, 13))
        dim = int(rng.integers(2, 5))
        pts = rng.uniform(0, 1, size=(n, dim))
        r = float(rng.uniform(0.1, 0.6))
        rips_r = tda.build_rips(pts, r, 2)
        cech_mid = tda.build_cech(pts, math.sqrt(2) * r, 2)
        rips_big = tda.build_rips(pts, math.sqrt(2) * r, 2)
        assert rips_r.simplices <= cech_mid.simplices
        assert cech_mid.simplices <= rips_big.simplices
    _report(7, started, "V_r within Cech_sqrt2r within V_sqrt2r on 30 random clouds")


def test_criterion_8_circle_radius_estimate():
    started = time.perf_counter()
    pts = circle60()
    radius = 1.0
    bc = P.compute_barcode(P.rips_filtration(pts, 2, 1.1 * radius))
    long_bars = [b for b in bc.in_degree(1) if b.death - b.birth > 0.5 * radius]
    assert len(long_bars) == 1
    death = long_bars[0].death
    assert abs(death - radius) <= 0.25 * radius
    _report(8, started, f"one long H_1 bar, death {death:.3f} within 25% of the radius")


def test_criterion_9_sublevel_recovery():
    started = time.perf_counter()
    K, values = grid_torus(18)
    M = L.MappedComplex(K, values)
    bc = P.compute_barcode(P.lower_star_filtration(K, values))
    ts = TORUS_THRESHOLDS
    for degree in (0, 1, 2):
        module = L.sublevel_module(M, torus_cover(), degree, ts)
        assert module.dims == [bc.alive_at(t, degree) for t in ts]
        for j, step in enumerate(module.maps):
            assert fields.rank(step, 2) == bc.rank(ts[j], ts[j + 1], degree)
    rng = np.random.default_rng(105)
    widest = 0
    for make in [random_mapped_complex] * 20 + [random_banded_mapped_complex] * 5:
        M = make(rng)
        cover = admissible_random_cover(rng, M)
        widest = max(widest, len(cover))
        vals = [M.values[v] for v in M.complex.vertices()]
        ts = sorted(float(t) for t in rng.uniform(min(vals), max(vals) + 1.0, size=3))
        if len(set(ts)) < 3:
            continue
        direct = P.compute_barcode(P.lower_star_filtration(M.complex, M.values))
        for degree in (0, 1):
            module = L.sublevel_module(M, cover, degree, ts)
            assert module.dims == [direct.alive_at(t, degree) for t in ts]
            for j, step in enumerate(module.maps):
                assert fields.rank(step, 2) == direct.rank(ts[j], ts[j + 1], degree)
    assert widest >= 2  # some draw has edge pieces
    _report(9, started, "sublevel module matches direct lower-star persistence")


def test_criterion_10_algebra_invariants():
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    for trial in range(6):
        field = (2, 3, 5)[trial % 3]
        K = random_complex(rng, max_vertices=9)
        for p in range(1, K.dimension + 1):
            assert not fields.matmul(
                tda.boundary_matrix(K, p, field), tda.boundary_matrix(K, p + 1, field), field
            ).any()
        F = twisted_constant_cosheaf(rng, K, 2, field)
        for p in range(1, K.dimension + 1):
            assert not fields.matmul(
                C.cosheaf_boundary(F, p, field), C.cosheaf_boundary(F, p + 1, field), field
            ).any()
        for p in range(K.dimension + 2):
            assert tda.homology(K, p, field).dimension == tda.cohomology(K, p, field).dimension
        chi_chain = sum((-1) ** p * len(K.p_simplices(p)) for p in range(K.dimension + 1))
        chi_hom = sum(
            (-1) ** p * tda.homology(K, p, field).dimension for p in range(K.dimension + 1)
        )
        assert chi_chain == chi_hom
        f = {v: int(rng.integers(0, 6)) for v in K.vertices()}
        Lx = tda.build_complex([sorted({f[v] for v in s}) for s in K.simplices] or [[0]])
        g = {v: int(rng.integers(0, 4)) for v in Lx.vertices()}
        Mx = tda.build_complex([sorted({g[v] for v in s}) for s in Lx.simplices] or [[0]])
        for p in range(1, K.dimension + 1):
            lhs = fields.matmul(
                tda.chain_map(f, K, Lx, p - 1, field), tda.boundary_matrix(K, p, field), field
            )
            rhs = fields.matmul(
                tda.boundary_matrix(Lx, p, field), tda.chain_map(f, K, Lx, p, field), field
            )
            assert np.array_equal(lhs, rhs)
        gf = {v: g[f[v]] for v in K.vertices()}
        for p in (0, 1):
            composed = fields.matmul(
                tda.induced_map(g, Lx, Mx, p, field), tda.induced_map(f, K, Lx, p, field), field
            )
            assert np.array_equal(tda.induced_map(gf, K, Mx, p, field), composed)
    _report(10, started, "boundary, duality, Euler, chain-map and functoriality invariants")
