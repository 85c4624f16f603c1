"""Limits, colimits, generalized ranks, and zigzag decomposition."""

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    dense_colimit,
    dense_limit,
    gf2_rank_reference,
    long_zigzags,
    matmul,
    random_invertible,
    random_zigzag,
    small_diagrams,
    small_zigzags,
    solve,
    torus_leray_zigzag,
    zigzag_bars_oracle,
)
from tda import fields
from tda import zigzag as Z


def random_diagram(rng, max_objects=4, max_dim=2, field=2):
    n = int(rng.integers(1, max_objects + 1))
    dims = [int(rng.integers(0, max_dim + 1)) for _ in range(n)]
    morphisms = []
    for _ in range(int(rng.integers(0, 2 * n))):
        s, t = int(rng.integers(0, n)), int(rng.integers(0, n))
        morphisms.append((s, t, rng.integers(0, field, size=(dims[t], dims[s]))))
    return Z.FiniteDiagram(dims=dims, morphisms=morphisms)


def brute_force_limit_dim_f2(diagram):
    """Oracle: enumerate all compatible tuples over F2 and count them."""
    total = sum(diagram.dims)
    offsets = [0]
    for d in diagram.dims:
        offsets.append(offsets[-1] + d)
    count = 0
    for bits in product((0, 1), repeat=total):
        v = np.asarray(bits, dtype=np.int64)
        ok = True
        for s, t, M in diagram.morphisms:
            lhs = (M @ v[offsets[s] : offsets[s + 1]]) % 2
            if not np.array_equal(lhs, v[offsets[t] : offsets[t + 1]]):
                ok = False
                break
        if ok:
            count += 1
    return int(round(np.log2(count)))


def brute_force_colimit_dim_f2(diagram):
    """Oracle: total dimension minus the GF(2) rank of all relations."""
    total = sum(diagram.dims)
    offsets = [0]
    for d in diagram.dims:
        offsets.append(offsets[-1] + d)
    relations = []
    for s, t, M in diagram.morphisms:
        for j in range(diagram.dims[s]):
            rel = np.zeros(total, dtype=np.int64)
            rel[offsets[t] : offsets[t + 1]] += M[:, j]
            rel[offsets[s] + j] -= 1
            relations.append(rel % 2)
    if not relations:
        return total
    return total - gf2_rank_reference(np.stack(relations))


def test_limit_single_object():
    dim, projections = Z.limit(Z.FiniteDiagram(dims=[3], morphisms=[]))
    assert dim == 3
    assert np.array_equal(projections[0], np.eye(3, dtype=np.int64))


def test_limit_of_identity_span():
    eye = np.eye(1, dtype=np.int64)
    span = Z.FiniteDiagram(dims=[1, 1, 1], morphisms=[(1, 0, eye), (1, 2, eye)])
    assert Z.limit(span)[0] == 1
    cospan = Z.FiniteDiagram(dims=[1, 1, 1], morphisms=[(0, 1, eye), (2, 1, eye)])
    assert Z.limit(cospan)[0] == 1


def test_limit_matches_brute_force_enumeration():
    rng = np.random.default_rng(20)
    checked = 0
    while checked < 15:
        d = random_diagram(rng)
        if sum(d.dims) > 8:
            continue
        assert Z.limit(d)[0] == brute_force_limit_dim_f2(d)
        checked += 1


def test_limit_projections_commute_with_morphisms():
    rng = np.random.default_rng(21)
    for field in (2, 3):
        for _ in range(10):
            d = random_diagram(rng, field=field)
            _, projections = Z.limit(d, field)
            for s, t, M in d.morphisms:
                assert np.array_equal(
                    matmul(M, projections[s], field), projections[t] % field
                )


def test_colimit_single_object():
    dim, inclusions = Z.colimit(Z.FiniteDiagram(dims=[4], morphisms=[]))
    assert dim == 4
    assert fields.rank(inclusions[0], 2) == 4


def test_colimit_pushout_of_identities():
    eye = np.eye(1, dtype=np.int64)
    span = Z.FiniteDiagram(dims=[1, 1, 1], morphisms=[(1, 0, eye), (1, 2, eye)])
    assert Z.colimit(span)[0] == 1


def test_colimit_matches_brute_force_rank():
    rng = np.random.default_rng(22)
    for _ in range(15):
        d = random_diagram(rng)
        assert Z.colimit(d)[0] == brute_force_colimit_dim_f2(d)


def test_colimit_inclusions_commute_with_morphisms():
    rng = np.random.default_rng(23)
    for field in (2, 5):
        for _ in range(10):
            d = random_diagram(rng, field=field)
            _, inclusions = Z.colimit(d, field)
            for s, t, M in d.morphisms:
                assert np.array_equal(
                    matmul(inclusions[t], M, field), inclusions[s] % field
                )


def test_limit_colimit_duality():
    rng = np.random.default_rng(24)
    for field in (2, 3):
        for _ in range(10):
            d = random_diagram(rng, field=field)
            transposed = Z.FiniteDiagram(
                dims=list(d.dims), morphisms=[(t, s, M.T) for s, t, M in d.morphisms]
            )
            assert Z.limit(d, field)[0] == Z.colimit(transposed, field)[0]


@given(small_diagrams())
@example(([], [], 3))
@example(([0, 2], [(1, 1, np.array([[1, 2], [0, 1]])), (0, 1, np.zeros((2, 0), dtype=np.int64))], 3))
@example(([2, 1, 0], [(0, 1, np.array([[1, 1]])), (0, 1, np.array([[0, 1]])), (1, 0, np.array([[1], [0]]))], 2))
@example(([3], [(0, 0, np.eye(3, dtype=np.int64)), (0, 0, 2 * np.eye(3, dtype=np.int64))], 5))
@settings(max_examples=150)
def test_limit_and_colimit_equal_the_dense_recipe(diagram):
    """limit and colimit, from the difference map's sparse terms, give
    exactly the bases of the dense recipe: the dimension and every block,
    its dtype, shape and entries. The examples pin no objects, a
    self-loop beside a zero-dimensional object, parallel arrows, and two
    self-loops on one object."""
    dims, morphisms, field = diagram
    d = Z.FiniteDiagram(dims, morphisms)
    for route, reference in ((Z.limit, dense_limit), (Z.colimit, dense_colimit)):
        dim, blocks = route(d, field)
        ref_dim, ref_blocks = reference(d.dims, d.morphisms, field)
        assert dim == ref_dim
        assert [(B.dtype, B.shape, B.tolist()) for B in blocks] == [
            (R.dtype, R.shape, R.tolist()) for R in ref_blocks
        ]


def test_generalized_rank_single_slot():
    z = random_zigzag(np.random.default_rng(25))
    for b in range(len(z.dims)):
        assert Z.generalized_rank(z, b, b) == z.dims[b]


def test_generalized_rank_identity_zigzag():
    eye = np.eye(1, dtype=np.int64)
    z = Z.ZigzagModule(dims=[1, 1, 1], arrows=[(Z.BACKWARD, eye), (Z.FORWARD, eye)])
    assert Z.generalized_rank(z, 0, 2) == 1


def test_generalized_rank_equals_composite_rank_when_forward():
    rng = np.random.default_rng(26)
    for field in (2, 3):
        for _ in range(10):
            dims = [int(rng.integers(0, 4)) for _ in range(4)]
            maps = [
                rng.integers(0, field, size=(dims[i + 1], dims[i])) for i in range(3)
            ]
            module = Z.ExplicitModule(dims=dims, maps=maps)
            z = Z.forward_module_to_zigzag(module)
            for b in range(4):
                M = np.eye(dims[b], dtype=np.int64)
                for d in range(b, 4):
                    if d > b:
                        M = matmul(maps[d - 1], M, field)
                    assert Z.generalized_rank(z, b, d, field) == fields.rank(M, field)


def test_generalized_rank_monotone_under_interval_inclusion():
    rng = np.random.default_rng(27)
    for _ in range(10):
        z = random_zigzag(rng)
        n = len(z.dims)
        for b in range(n):
            for d in range(b, n):
                r = Z.generalized_rank(z, b, d)
                if b > 0:
                    assert Z.generalized_rank(z, b - 1, d) <= r
                if d + 1 < n:
                    assert Z.generalized_rank(z, b, d + 1) <= r


def test_torus_zigzag_support_rank_is_one():
    z = torus_leray_zigzag()
    assert Z.generalized_rank(z, 1, 5) == 1


def test_torus_zigzag_decomposes_into_two_intervals():
    bars = Z.decompose_zigzag(torus_leray_zigzag())
    assert sorted((b.lo, b.hi, b.multiplicity) for b in bars) == [(1, 5, 1), (2, 4, 1)]


def test_all_identity_zigzag_single_bar():
    eye = np.eye(2, dtype=np.int64)
    z = Z.ZigzagModule(
        dims=[2, 2, 2, 2],
        arrows=[(Z.FORWARD, eye), (Z.BACKWARD, eye), (Z.FORWARD, eye)],
    )
    assert Z.decompose_zigzag(z) == [Z.IntegerBar(0, 3, 2)]


def test_decompose_zigzag_reconstruction_random():
    rng = np.random.default_rng(28)
    for _ in range(25):
        z = random_zigzag(rng, max_len=5, max_dim=3)
        bars = Z.decompose_zigzag(z)
        n = len(z.dims)
        for i in range(n):
            pointwise = sum(b.multiplicity for b in bars if b.lo <= i <= b.hi)
            assert pointwise == z.dims[i]
        for b in range(n):
            for d in range(b, n):
                covering = sum(
                    bar.multiplicity for bar in bars if bar.lo <= b and d <= bar.hi
                )
                assert covering == Z.generalized_rank(z, b, d)


def test_forward_module_roundtrip_examples():
    one = Z.ExplicitModule(dims=[1, 1], maps=[np.array([[1]])])
    assert Z.decompose_zigzag(Z.forward_module_to_zigzag(one)) == [Z.IntegerBar(0, 1, 1)]
    zero = Z.ExplicitModule(dims=[1, 1], maps=[np.array([[0]])])
    assert Z.decompose_zigzag(Z.forward_module_to_zigzag(zero)) == [
        Z.IntegerBar(0, 0, 1),
        Z.IntegerBar(1, 1, 1),
    ]


def test_shape_validation_errors():
    import pytest

    from tda.errors import TdaError

    with pytest.raises(TdaError):
        Z.FiniteDiagram(dims=[1, 2], morphisms=[(0, 1, np.zeros((1, 1), int))])
    with pytest.raises(TdaError):
        Z.ZigzagModule(dims=[1, 2], arrows=[(Z.FORWARD, np.zeros((1, 1), int))])
    with pytest.raises(TdaError):
        Z.ZigzagModule(dims=[1, 2], arrows=[("sideways", np.zeros((2, 1), int))])
    with pytest.raises(TdaError):
        Z.FiniteDiagram(dims=[1, -1], morphisms=[])
    with pytest.raises(TdaError):
        Z.ZigzagModule(dims=[-1], arrows=[])
    with pytest.raises(TdaError):
        Z.ExplicitModule(dims=[2, -1], maps=[np.zeros((0, 2), int)])


def test_non_integral_entries_are_rejected():
    from tda.errors import TdaError

    half = [[0.5]]
    with pytest.raises(TdaError, match=r"^matrix entries must be integers, got 0.5 at \(0, 0\)$"):
        Z.ZigzagModule([1, 1], [(Z.FORWARD, half)])
    with pytest.raises(TdaError, match=r"got 0.5 at \(0, 0\)"):
        Z.FiniteDiagram(dims=[1, 1], morphisms=[(0, 1, half)])
    with pytest.raises(TdaError, match=r"got 0.5 at \(0, 0\)"):
        Z.ExplicitModule(dims=[1, 1], maps=[half])
    eye = np.eye(2)
    assert Z.decompose_zigzag(Z.ZigzagModule([2, 2], [(Z.BACKWARD, eye)])) == [Z.IntegerBar(0, 1, 2)]
    assert Z.ExplicitModule(dims=[2, 2], maps=[eye]).maps[0].dtype == np.int64


def test_matrix_errors_name_the_matrix():
    """Each constructor names the matrix it rejects; a morphism's endpoints
    are checked before its matrix is read."""
    from tda.errors import TdaError

    wide, tall = np.zeros((1, 2), int), np.zeros((2, 1), int)
    cases = {
        "morphism 0->1 has shape (1, 2), expected (2, 1)": lambda: Z.FiniteDiagram([1, 2], [(0, 1, wide)]),
        "morphism endpoints (0, 2) out of range": lambda: Z.FiniteDiagram([1, 2], [(0, 2, [[0.5]])]),
        "arrow 0 has shape (1, 2), expected (2, 1)": lambda: Z.ZigzagModule([1, 2], [(Z.FORWARD, wide)]),
        "arrow 0 has shape (2, 1), expected (1, 2)": lambda: Z.ZigzagModule([1, 2], [(Z.BACKWARD, tall)]),
        "map 1 has shape (1, 2), expected (2, 1)": lambda: Z.ExplicitModule([1, 1, 2], [np.eye(1), wide]),
    }
    for message, build in cases.items():
        with pytest.raises(TdaError) as info:
            build()
        assert str(info.value) == message


def test_forward_module_agrees_with_decompose_explicit():
    rng = np.random.default_rng(29)
    for field in (2, 3):
        for _ in range(10):
            dims = [int(rng.integers(0, 4)) for _ in range(int(rng.integers(1, 5)))]
            maps = [
                rng.integers(0, field, size=(dims[i + 1], dims[i]))
                for i in range(len(dims) - 1)
            ]
            module = Z.ExplicitModule(dims=dims, maps=maps)
            from_zigzag = {
                (b.lo, b.hi): b.multiplicity
                for b in Z.decompose_zigzag(Z.forward_module_to_zigzag(module), field)
            }
            from_module = {}
            for bar in Z.decompose_explicit(module, field):
                key = (int(bar.birth), int(bar.death))
                from_module[key] = from_module.get(key, 0) + 1
            assert from_zigzag == from_module


def assert_bars_match_definition(z, bars, field):
    """Bars cover every slot dims[i] times and every interval [b, d] as
    often as its generalized rank, computed from the definition."""
    n = len(z.dims)
    for i in range(n):
        assert sum(bar.multiplicity for bar in bars if bar.lo <= i <= bar.hi) == z.dims[i]
    for b in range(n):
        for d in range(b, n):
            covering = sum(bar.multiplicity for bar in bars if bar.lo <= b and d <= bar.hi)
            assert covering == Z.generalized_rank(z, b, d, field)


@given(small_zigzags())
def test_decompose_zigzag_sweep_matches_generalized_rank(case):
    z, field = case
    assert_bars_match_definition(z, Z.decompose_zigzag(z, field), field)


def test_decompose_zigzag_sweep_matches_generalized_rank_on_16_slots():
    rng = np.random.default_rng(30)
    for field in (2, 3):
        z = Z.ZigzagModule(
            dims=[5] * 16,
            arrows=[
                (Z.FORWARD if rng.random() < 0.5 else Z.BACKWARD, rng.integers(0, 3, (5, 5)))
                for _ in range(15)
            ],
        )
        assert_bars_match_definition(z, Z.decompose_zigzag(z, field), field)


def test_decompose_zigzag_rejects_non_prime_field():
    eye = np.eye(2, dtype=np.int64)
    one_slot = Z.ZigzagModule(dims=[2], arrows=[])
    three_slots = Z.ZigzagModule(dims=[2, 2, 2], arrows=[(Z.FORWARD, eye), (Z.BACKWARD, eye)])
    for z in (one_slot, three_slots):
        with pytest.raises(ValueError):
            Z.decompose_zigzag(z, 4)


def _zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


@pytest.mark.parametrize(
    "dims, arrows, expected",
    [
        ([], [], []),
        ([0], [], []),
        ([0, 0, 0], [(Z.FORWARD, _zeros(0, 0)), (Z.BACKWARD, _zeros(0, 0))], []),
        (
            [2, 3, 1],
            [(Z.FORWARD, _zeros(3, 2)), (Z.BACKWARD, _zeros(3, 1))],
            [(0, 0, 2), (1, 1, 3), (2, 2, 1)],
        ),
        (
            [3, 3, 3, 3],
            [(Z.BACKWARD, np.eye(3, dtype=np.int64))] * 2 + [(Z.FORWARD, np.eye(3, dtype=np.int64))],
            [(0, 3, 3)],
        ),
        ([2, 0, 2], [(Z.FORWARD, _zeros(0, 2)), (Z.BACKWARD, _zeros(0, 2))], [(0, 0, 2), (2, 2, 2)]),
        ([1, 0, 1], [(Z.BACKWARD, _zeros(1, 0)), (Z.FORWARD, _zeros(1, 0))], [(0, 0, 1), (2, 2, 1)]),
    ],
)
def test_decompose_zigzag_degenerate(dims, arrows, expected):
    z = Z.ZigzagModule(dims=dims, arrows=arrows)
    for field in (2, 3):
        bars = Z.decompose_zigzag(z, field)
        assert [(b.lo, b.hi, b.multiplicity) for b in bars] == expected
        assert bars == zigzag_bars_oracle(z, field)


@given(long_zigzags())
def test_decompose_zigzag_matches_rank_oracle(case):
    z, field = case
    assert Z.decompose_zigzag(z, field) == zigzag_bars_oracle(z, field)


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5, 7]), st.integers(50, 300))
def test_decompose_zigzag_is_invariant_under_a_change_of_basis(seed, field, n):
    """The bars are those of the isomorphism class: conjugating every arrow
    by a random invertible P_i at each slot i (P_{i+1} M P_i^-1 forward,
    P_i M P_{i+1}^-1 backward) leaves them as they were, on zigzags longer
    than the O(n^2) oracle can check. Half the arrows are identities, so
    long bars cross many slots."""
    rng = np.random.default_rng(seed)
    dims = rng.integers(0, 5, n).tolist()
    arrows = []
    for i in range(n - 1):
        direction = Z.FORWARD if rng.random() < 0.5 else Z.BACKWARD
        shape = (dims[i + 1], dims[i]) if direction == Z.FORWARD else (dims[i], dims[i + 1])
        M = np.eye(*shape, dtype=np.int64) if rng.random() < 0.5 else rng.integers(0, field, shape)
        arrows.append((direction, M))
    P = [random_invertible(rng, d, field) for d in dims]
    inverse = [solve(Q, np.eye(len(Q), dtype=np.int64), field) for Q in P]
    moved = [
        (direction, P[i + 1] @ M @ inverse[i] if direction == Z.FORWARD else P[i] @ M @ inverse[i + 1])
        for i, (direction, M) in enumerate(arrows)
    ]
    bars = Z.decompose_zigzag(Z.ZigzagModule(dims, arrows), field)
    assert Z.decompose_zigzag(Z.ZigzagModule(dims, moved), field) == bars
    assert sum(bar.multiplicity * (bar.hi - bar.lo + 1) for bar in bars) == sum(dims)
