"""Shared builders for the test suite: reference complexes, the grid
torus with its height function, random complexes, admissible covers, and
tiny self-contained oracles kept independent of the library internals."""

from __future__ import annotations

import math
import os
import tempfile
from itertools import combinations

import numpy as np
from hypothesis import configuration, settings
from hypothesis import strategies as st

import tda
from tda import fields, leray
from tda.complexes import IntervalCover, SimplicialComplex
from tda.persistence import Bar, Barcode

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# Property tests replay the same examples on every run and keep no example
# database, so the suite stays deterministic. Hypothesis still caches
# constants parsed from source files; that cache goes to the temp directory,
# not to a .hypothesis/ in the checkout.
settings.register_profile("tda", derandomize=True, database=None, deadline=None)
# A deeper run of the same properties: `pytest --hypothesis-profile=ci`.
settings.register_profile("ci", settings.get_profile("tda"), max_examples=1000)
settings.load_profile("tda")
configuration.set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "tda-hypothesis"))


@st.composite
def small_clouds(draw):
    """(points, r, max_dim): 1-12 points in R^1..R^3 drawn from the unit
    cube, a radius in (0.05, 1) and max_dim <= 3."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    coords = draw(st.lists(st.floats(0.0, 1.0), min_size=n * d, max_size=n * d))
    r = draw(st.floats(0.05, 1.0, exclude_min=True, exclude_max=True))
    return np.array(coords).reshape(n, d), r, draw(st.integers(0, 3))


def face_closure(simplices) -> set[tuple[int, ...]]:
    """Every nonempty face of the given sorted vertex tuples."""
    closed: set[tuple[int, ...]] = set()
    for s in simplices:
        for k in range(1, len(s) + 1):
            closed.update(combinations(s, k))
    return closed


class TupleComplex:
    """The reference complex: the face closure of the normalized simplices
    as a frozenset of sorted tuples, with the tuple-set semantics that
    ``SimplicialComplex`` must reproduce on its arrays."""

    def __init__(self, simplices=()):
        self.simplices = frozenset(face_closure({tda.simplex(s) for s in simplices}))

    @property
    def dimension(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def p_simplices(self, p: int) -> list[tuple[int, ...]]:
        return sorted(s for s in self.simplices if len(s) == p + 1)

    def vertices(self) -> list[int]:
        return sorted(s[0] for s in self.simplices if len(s) == 1)

    def full_subcomplex(self, vertex_subset) -> "TupleComplex":
        vs = set(vertex_subset)
        return TupleComplex(s for s in self.simplices if vs.issuperset(s))

    def is_subcomplex_of(self, other: "TupleComplex") -> bool:
        return self.simplices <= other.simplices

    def __contains__(self, s) -> bool:
        return tuple(s) in self.simplices

    def __len__(self) -> int:
        return len(self.simplices)

    def __iter__(self):
        return iter(sorted(self.simplices, key=lambda s: (len(s), s)))

    def __eq__(self, other) -> bool:
        return isinstance(other, TupleComplex) and self.simplices == other.simplices

    def __hash__(self) -> int:
        return hash(self.simplices)


def interval_complex() -> SimplicialComplex:
    """Two vertices and one edge."""
    return tda.build_complex([[0, 1]])


def hollow_triangle() -> SimplicialComplex:
    return tda.build_complex([[0, 1], [1, 2], [0, 2]])


def solid_triangle() -> SimplicialComplex:
    return tda.build_complex([[0, 1, 2]])


def octagon_circle():
    """An 8-vertex circle model with the height (y coordinate) per vertex."""
    import math

    angles = [math.pi / 2 + i * math.pi / 4 for i in range(8)]
    pts = [(math.cos(a), math.sin(a)) for a in angles]
    K = tda.build_complex([[i, (i + 1) % 8] for i in range(8)])
    values = {i: pts[i][1] for i in range(8)}
    return K, values


def grid_torus(n: int = 18, big: float = 2.0, small: float = 1.0):
    """Grid-triangulated torus standing upright, with vertex heights.

    The angular samples are spaced evenly in sin (tube-center angle) and
    cos (tube angle), which caps each triangle's height span at 8/(n/2)
    and keeps the four critical vertices exactly on the grid.
    """
    m = n // 2
    sins = [0.0] * n
    coss = [0.0] * n
    for i in range(n):
        k = i if i <= m else n - i
        sins[i] = -1.0 + 2.0 * k / m
        coss[i] = 1.0 - 2.0 * k / m

    def vid(i, j):
        return (i % n) * n + (j % n)

    tris = []
    for i in range(n):
        for j in range(n):
            tris.append([vid(i, j), vid(i + 1, j), vid(i, j + 1)])
            tris.append([vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)])
    K = tda.build_complex(tris)
    values = {
        vid(i, j): (big + small * coss[j]) * sins[i] for i in range(n) for j in range(n)
    }
    return K, values


def torus_cover() -> IntervalCover:
    """Five intervals: one per critical value of the height, plus a
    padding interval past the maximum; the nerve is a 5-vertex path."""
    return IntervalCover([(-4.2, -1.05), (-2.95, 0.97), (-0.97, 2.95), (1.05, 4.2), (3.3, 5.5)])


TORUS_THRESHOLDS = [-2.0, 0.0, 2.0, 3.5]


def circle60() -> np.ndarray:
    rows = []
    with open(os.path.join(FIXTURES, "circle60.csv")) as fh:
        for line in fh:
            x, y = line.strip().split(",")
            rows.append((float(x), float(y)))
    return np.asarray(rows)


def random_complex(rng: np.random.Generator, max_vertices: int = 12) -> SimplicialComplex:
    """A random 2-dimensional complex: sprinkled triangles and edges."""
    nv = int(rng.integers(3, max_vertices + 1))
    simplices = [[v] for v in range(nv)]
    n_edges = int(rng.integers(0, 2 * nv))
    for _ in range(n_edges):
        a, b = rng.choice(nv, size=2, replace=False)
        simplices.append([int(a), int(b)])
    n_tris = int(rng.integers(0, nv))
    for _ in range(n_tris):
        t = rng.choice(nv, size=3, replace=False)
        simplices.append([int(v) for v in t])
    return tda.build_complex(simplices)


def random_mapped_complex(rng: np.random.Generator, max_vertices: int = 12) -> leray.MappedComplex:
    K = random_complex(rng, max_vertices)
    values = {v: float(rng.uniform(0.0, 10.0)) for v in K.vertices()}
    return leray.MappedComplex(K, values)


def random_banded_mapped_complex(rng: np.random.Generator, max_vertices: int = 40) -> leray.MappedComplex:
    """A random 2-dimensional complex whose simplices join vertices at most
    two ids apart, valued by id plus jitter. Simplex value ranges stay
    below 2.4 while the values span up to 40, so admissible covers
    usually have several intervals and the blowup complex has edge pieces."""
    nv = int(rng.integers(3, max_vertices + 1))
    simplices = [[v] for v in range(nv)]
    for _ in range(int(rng.integers(0, 3 * nv))):
        a = int(rng.integers(0, nv - 1))
        size = int(rng.integers(2, 4))
        simplices.append(sorted({int(v) for v in rng.integers(a, min(a + 3, nv), size=size)}))
    values = {v: v + float(rng.uniform(-0.2, 0.2)) for v in range(nv)}
    return leray.MappedComplex(tda.build_complex(simplices), values)


def admissible_random_cover(rng: np.random.Generator, M: leray.MappedComplex) -> IntervalCover:
    """A random linear cover that every simplex's value range fits into.

    Cut points are separated by more than twice the largest simplex span,
    and each interval extends one span past its neighbouring cuts.
    """
    vals = [M.values[v] for v in M.complex.vertices()]
    lo, hi = min(vals), max(vals)
    span = max(
        (
            max(M.values[v] for v in s) - min(M.values[v] for v in s)
            for s in M.complex.simplices
        ),
        default=0.0,
    )
    delta = span + 0.05 * (hi - lo) + 1e-6
    cuts = []
    pos = lo + 2 * delta
    while pos < hi - 2 * delta and len(cuts) < 4:
        if rng.random() < 0.7:
            cuts.append(pos + float(rng.uniform(0.0, delta / 2)))
        pos += 2.5 * delta
    if not cuts:
        return IntervalCover([(lo - 1.0, hi + 1.0)])
    points = [lo - 1.0] + cuts + [hi + 1.0]
    intervals = []
    for i in range(len(points) - 1):
        a = points[i] - delta if i > 0 else points[i]
        b = points[i + 1] + delta if i + 1 < len(points) - 1 else points[i + 1]
        intervals.append((a, b))
    cover = IntervalCover(intervals)
    leray.check_cover_granularity(M, cover)
    return cover


def random_zigzag(rng: np.random.Generator, max_len: int = 6, max_dim: int = 3, field: int = 2):
    from tda.zigzag import BACKWARD, FORWARD, ZigzagModule

    n = int(rng.integers(1, max_len + 1))
    dims = [int(rng.integers(0, max_dim + 1)) for _ in range(n)]
    arrows = []
    for i in range(n - 1):
        direction = FORWARD if rng.random() < 0.5 else BACKWARD
        shape = (dims[i + 1], dims[i]) if direction == FORWARD else (dims[i], dims[i + 1])
        arrows.append((direction, rng.integers(0, field, size=shape)))
    return ZigzagModule(dims=dims, arrows=arrows)


@st.composite
def small_zigzags(draw):
    """(zigzag, field): 1-8 slots of dimension 0-3, arrows of either
    direction with arbitrary entries, over F2, F3 or F5."""
    from tda.zigzag import BACKWARD, FORWARD, ZigzagModule

    field = draw(st.sampled_from([2, 3, 5]))
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    arrows = []
    for i in range(len(dims) - 1):
        direction = draw(st.sampled_from([FORWARD, BACKWARD]))
        shape = (dims[i + 1], dims[i]) if direction == FORWARD else (dims[i], dims[i + 1])
        size = shape[0] * shape[1]
        entries = draw(st.lists(st.integers(0, field - 1), min_size=size, max_size=size))
        arrows.append((direction, np.array(entries, dtype=np.int64).reshape(shape)))
    return ZigzagModule(dims=dims, arrows=arrows), field


@st.composite
def small_diagrams(draw):
    """(dims, morphisms, field): 0-4 objects of dimension 0-3 and 0-6
    morphisms between any two of them, self-loops and parallel arrows
    included, with entries -2p..3p, over F2, F3 or F5."""
    field = draw(st.sampled_from([2, 3, 5]))
    dims = draw(st.lists(st.integers(0, 3), max_size=4))
    morphisms = []
    for _ in range(draw(st.integers(0, 6)) if dims else 0):
        s, t = draw(st.integers(0, len(dims) - 1)), draw(st.integers(0, len(dims) - 1))
        size = dims[t] * dims[s]
        entries = draw(st.lists(st.integers(-2 * field, 3 * field), min_size=size, max_size=size))
        morphisms.append((s, t, np.array(entries, dtype=np.int64).reshape(dims[t], dims[s])))
    return dims, morphisms, field


@st.composite
def linear_cosheaves(draw):
    """(cosheaf, field, paths) over a disjoint union of paths and isolated
    vertices: 0-12 vertices with distinct large int64 ids, cut into runs of
    random length, simplices listed in shuffled order, stalks of dimension
    0-3 and random maps (any maps are valid over a base of dimension <= 1).
    ``paths`` lists each path's vertices in walking order."""
    from tda.cosheaf import SimplicialCosheaf, codim1_pairs

    field = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 12))
    ids = draw(st.lists(st.integers(2**32, 2**63 - 1), min_size=n, max_size=n, unique=True))
    joined = draw(st.lists(st.booleans(), min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
    paths = [ids[:1]] if ids else []
    for v, join in zip(ids[1:], joined):
        if join:
            paths[-1].append(v)
        else:
            paths.append([v])
    simplices = [[v] for v in ids] + [[a, b] for path in paths for a, b in zip(path, path[1:])]
    K = tda.build_complex(draw(st.permutations(simplices)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stalks = {s: int(rng.integers(0, 4)) for s in K.simplices}
    maps = {
        (face, coface): rng.integers(0, field, (stalks[face], stalks[coface]))
        for face, coface in codim1_pairs(K)
    }
    return SimplicialCosheaf(K, stalks, maps), field, paths


def dense_limit(dims, morphisms, field: int):
    """The dense recipe for a diagram's limit, the library's former one:
    the difference map (v_x)_x -> (M v_src - v_tgt) per morphism written
    block by block into an np.zeros matrix, then ``fields.kernel_basis``
    cut into one block per object. The oracle for ``zigzag.limit``."""
    off = np.cumsum([0] + list(dims)).tolist()
    Phi = np.zeros((sum(dims[t] for _, t, _ in morphisms), off[-1]), dtype=np.int64)
    r = 0
    for s, t, M in morphisms:
        h = dims[t]
        Phi[r : r + h, off[s] : off[s + 1]] += M
        Phi[r : r + h, off[t] : off[t + 1]] -= np.eye(h, dtype=np.int64)
        r += h
    K = fields.kernel_basis(Phi % field, field)
    return K.shape[1], [K[off[x] : off[x + 1], :] for x in range(len(dims))]


def dense_colimit(dims, morphisms, field: int):
    """The transposed :func:`dense_limit` of the dual diagram (every
    morphism reversed and transposed). The oracle for ``zigzag.colimit``."""
    dim, blocks = dense_limit(dims, [(t, s, M.T) for s, t, M in morphisms], field)
    return dim, [B.T for B in blocks]


def _cross(ends, M: np.ndarray, pull: bool, field: int):
    """Carry the end maps (Eb, Ed) of a limit over [b, d] across M.

    With ``pull`` false, M leaves slot d and the limit is unchanged, so
    only Ed becomes M Ed. With ``pull`` true, M points into slot d and the
    new limit is the pullback of Ed and M: with K a kernel basis of
    [Ed | -M], Eb becomes Eb K[:L] and the new end map K[L:]. A colimit's
    inclusions, transposed, are a limit's projections for the transposed
    arrows, so pushouts use the same step.
    """
    Eb, Ed = ends
    if not pull:
        return Eb, (M @ Ed) % field
    L = Ed.shape[1]
    K = fields.kernel_basis(np.hstack([Ed, -M]), field)
    return (Eb @ K[:L]) % field, K[L:]


def _left_end_ranks(dim: int, arrows, field: int) -> list[int]:
    """Generalized ranks of [b, d] for d = b..n-1, in one sweep, given the
    dimension of slot b and the arrows from slot b on, reduced mod field.

    Keeps the limit's projections onto slots b and d and the colimit's
    inclusions of slots b and d (transposed), starting from the identity
    on slot b; rank [b, d] is the rank of (inclusion of b) (projection to b).
    """
    from tda.zigzag import FORWARD

    eye = np.eye(dim, dtype=np.int64)
    lim = col = (eye, eye)
    ranks = [dim]
    for direction, M in arrows:
        forward = direction == FORWARD
        lim = _cross(lim, M, not forward, field)
        col = _cross(col, M.T, forward, field)
        ranks.append(fields.rank(col[0].T @ lim[0], field))
    return ranks


def interval_multiplicities(ranks) -> list[tuple[int, int, int]]:
    """Closed intervals [b, d] with positive multiplicity
    r(b,d) - r(b-1,d) - r(b,d+1) + r(b-1,d+1), from interval ranks given
    for every 0 <= b <= d < n (ranks outside the table count as 0)."""

    def rk(b: int, d: int) -> int:
        return ranks.get((b, d), 0)

    out = []
    for b, d in sorted(ranks):
        mult = rk(b, d) - rk(b - 1, d) - rk(b, d + 1) + rk(b - 1, d + 1)
        assert mult >= 0, f"negative multiplicity {mult} for interval [{b}, {d}]"
        if mult:
            out.append((b, d, mult))
    return out


def zigzag_bars_oracle(z, field: int = 2):
    """Bars of a zigzag by generalized-rank inclusion-exclusion: the
    library's former decomposition, one incremental limit/colimit sweep
    per left end, O(n²) slot-sized kernels for n slots. The oracle for
    ``decompose_zigzag``; returns IntegerBars sorted by (lo, hi)."""
    from tda.zigzag import IntegerBar

    arrows = [(direction, M % field) for direction, M in z.arrows]
    ranks = {
        (b, d): r
        for b, dim in enumerate(z.dims)
        for d, r in enumerate(_left_end_ranks(dim, arrows[b:], field), start=b)
    }
    return [IntegerBar(b, d, mult) for b, d, mult in interval_multiplicities(ranks)]


@st.composite
def long_zigzags(draw):
    """(zigzag, field): 1-40 slots of dimension 0-6 over F2, F3, F5 or F7.
    Each arrow, of either direction, is zero, a (partial) identity, rank
    one or random, so kernels and cokernels of all sizes interleave. The
    structure is drawn; the entries come from a drawn seed."""
    from tda.zigzag import BACKWARD, FORWARD, ZigzagModule

    field = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 40))
    dims = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrows = []
    for i in range(len(dims) - 1):
        direction = draw(st.sampled_from([FORWARD, BACKWARD]))
        shape = (dims[i + 1], dims[i]) if direction == FORWARD else (dims[i], dims[i + 1])
        kind = draw(st.sampled_from(["zero", "identity", "rank1", "random"]))
        if kind == "zero":
            M = np.zeros(shape, dtype=np.int64)
        elif kind == "identity":
            M = np.eye(*shape, dtype=np.int64)
        elif kind == "rank1":
            M = np.outer(rng.integers(0, field, shape[0]), rng.integers(0, field, shape[1]))
        else:
            M = rng.integers(0, field, shape)
        arrows.append((direction, M))
    return ZigzagModule(dims=dims, arrows=arrows), field


def random_invertible(rng: np.random.Generator, n: int, field: int) -> np.ndarray:
    """Unit lower-triangular times unit upper-triangular, always invertible."""
    L = np.tril(rng.integers(0, field, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
    U = np.triu(rng.integers(0, field, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
    return (L @ U) % field


def twisted_constant_cosheaf(rng: np.random.Generator, K: SimplicialComplex, n: int, field: int):
    """A valid random cosheaf: the constant cosheaf conjugated per simplex.

    With r = inv(A_face) A_coface, compositions along any two face chains
    agree, so path independence holds by construction.
    """
    from tda import fields
    from tda.cosheaf import SimplicialCosheaf, codim1_pairs

    twists = {s: random_invertible(rng, n, field) for s in K.simplices}
    inverses = {
        s: solve(A, np.eye(n, dtype=np.int64), field) for s, A in twists.items()
    }
    maps = {
        (face, coface): matmul(inverses[face], twists[coface], field)
        for face, coface in codim1_pairs(K)
    }
    return SimplicialCosheaf(base=K, stalks={s: n for s in K.simplices}, maps=maps)


def square_violation(F, field: int):
    """The first codimension-2 square of a cosheaf whose two compositions
    differ mod field, by a loop over every square: p-simplices tau for p =
    2, 3, ... in lex order, then vertex pairs i < j of tau, comparing the
    composition via tau minus vertex i with the one via tau minus vertex j
    down to sigma, tau minus both. The library's former check, kept as the
    oracle for ``cosheaf.validate``; None when every square commutes."""
    from tda.cosheaf import CosheafViolation

    for p in range(2, F.base.dimension + 1):
        for tau in F.base.p_simplices(p):
            for i, j in combinations(range(p + 1), 2):
                gamma1, gamma2 = tau[:i] + tau[i + 1 :], tau[:j] + tau[j + 1 :]
                sigma = tau[:i] + tau[i + 1 : j] + tau[j + 1 :]
                via1 = (F.maps[(sigma, gamma1)] % field) @ (F.maps[(gamma1, tau)] % field) % field
                via2 = (F.maps[(sigma, gamma2)] % field) @ (F.maps[(gamma2, tau)] % field) % field
                if not np.array_equal(via1, via2):
                    return CosheafViolation(sigma, tau, gamma1, gamma2)
    return None


def torus_leray_zigzag():
    """The degree-1 Leray zigzag of the upright torus over a four-piece
    cover: 0 <- k -> k^2 <- k^2 -> k^2 <- k -> 0 with diagonal end maps."""
    from tda.zigzag import BACKWARD, FORWARD, ZigzagModule

    diag = np.array([[1], [1]], dtype=np.int64)
    eye2 = np.eye(2, dtype=np.int64)
    none = np.zeros((0, 1), dtype=np.int64)
    return ZigzagModule(
        dims=[0, 1, 2, 2, 2, 1, 0],
        arrows=[
            (BACKWARD, none),
            (FORWARD, diag),
            (BACKWARD, eye2),
            (FORWARD, eye2),
            (BACKWARD, diag),
            (FORWARD, none),
        ],
    )


def gf2_rank_reference(A) -> int:
    """Plain-python GF(2) rank, used as an oracle independent of tda.fields."""
    M = np.atleast_2d(np.asarray(A, dtype=np.int64)) % 2
    if M.size == 0:
        return 0
    rows = [int("".join(str(int(x)) for x in row), 2) for row in M]
    rank = 0
    while True:
        rows = [r for r in rows if r]
        if not rows:
            return rank
        pivot = max(rows)
        top = 1 << (pivot.bit_length() - 1)
        rows = [r ^ pivot if r & top else r for r in rows if r != pivot]
        rank += 1


# The former dense routines of ``tda.fields``, which no library code calls:
# kept here as oracles, and for building test inputs.
def normalize(A, p: int) -> np.ndarray:
    """Coerce to a 2-D int64 array with entries in [0, p), p a prime."""
    M = fields.integer_array(A)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
    return M % fields.check_prime(p)


def rref(A, p: int):
    """Reduced row echelon form mod p. Returns (R, pivot_columns), read off
    :func:`reduce_columns` with unit tracks. A column that stays nonzero
    is a pivot column, independent of the earlier ones. A column j that
    reduces to zero has a track e_j plus earlier pivot columns; negated,
    its entries there are the coordinates of column j on them, column j
    of R. Checked against ``rref_oracle``."""
    cols = fields.as_columns(A, p)
    rows: dict[int, int] = {}  # pivot column -> its row of R
    out = []
    units = ({j: 1} for j in range(len(cols.cols)))
    for j, (piv, _, track) in enumerate(fields.reduce_columns(cols.cols, p, None, units)):
        if piv is not None:
            rows[j] = len(rows)
            out.append({rows[j]: 1})
        else:
            out.append({rows[i]: -c % p for i, c in track.items() if i != j})
    return fields.ColumnMatrix(cols.n_rows, out).dense(), list(rows)


def solve(A, B, p: int):
    """One solution X of A X = B mod p, or None if inconsistent.

    B may be a vector or a matrix of stacked right-hand sides; X is zero
    at every free variable, so the solution is deterministic.
    """
    rhs = np.asarray(B)
    squeeze = rhs.ndim == 1
    rhs = fields.as_columns(rhs[:, None] if squeeze else rhs, p)
    cols = fields.as_columns(A, p)
    if rhs.n_rows != cols.n_rows:
        raise ValueError("right-hand side has wrong number of rows")
    pivots: dict = {}
    units = ({j: 1} for j in range(len(cols.cols)))
    for _ in fields.reduce_columns(cols.cols, p, pivots, units):
        pass
    X = fields._coordinates(rhs.cols, pivots, len(cols.cols), p)
    return X[:, 0] if squeeze and X is not None else X


def matmul(A, B, p: int) -> np.ndarray:
    return (normalize(A, p) @ normalize(B, p)) % p


def rref_oracle(A, p: int):
    """Reduced row echelon form mod p by numpy row operations, one numpy
    call per pivot: the library's former elimination, kept as the oracle
    for ``rref``. Same pivot rule: leftmost column, then topmost
    row. Returns (R, pivot_columns)."""
    R = np.asarray(A, dtype=np.int64) % p
    m, n = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        inv = pow(int(R[r, c]), -1, p)
        R[r] = (R[r] * inv) % p
        coeffs = R[:, c].copy()
        coeffs[r] = 0
        rows = np.nonzero(coeffs)[0]
        if rows.size:
            R[rows] = (R[rows] - np.outer(coeffs[rows], R[r])) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R, pivots


def dense_quotient(low, high, p: int, V):
    """The rref recipe for ker(low) / im(high): kernel basis, leftmost
    pivots of [high | Z], then the unique solution over [representatives |
    image basis]. Returns (representatives, coordinates of the columns of
    V), the coordinates None when some column of V is not a cycle."""
    Z = fields.kernel_basis(low, p)
    _, pivots = rref(np.hstack([high, Z]), p)
    nb = high.shape[1]
    reps = Z[:, [c - nb for c in pivots if c >= nb]]
    image = high[:, [c for c in pivots if c < nb]]
    X = solve(np.hstack([reps, image]), V, p)
    return reps, None if X is None else X[: reps.shape[1]]


def tuple_faces(tau: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The codimension-1 faces of a sorted vertex tuple with their signs:
    deleting vertex j gives sign (-1)^j; a vertex has none."""
    return [(tau[:j] + tau[j + 1 :], (-1) ** j) for j in range(len(tau))] if len(tau) > 1 else []


def tuple_cosheaf_boundary(stalks, maps, p: int, field: int) -> np.ndarray:
    """d_p of a cosheaf given by stalk dimensions and extension maps (face
    stalk <- coface stalk), as one dense block per (face, coface) pair:
    (-1)^j maps[(face, coface)] mod field when the face deletes vertex j.
    Rows and columns run over the simplices in lexicographic order, each
    spanning its stalk."""

    def blocks(q):
        simplices = sorted(s for s in stalks if len(s) == q + 1)
        offsets = np.cumsum([0] + [stalks[s] for s in simplices]).tolist()
        return {s: slice(a, b) for s, a, b in zip(simplices, offsets, offsets[1:])}, offsets[-1]

    (rows, n_rows), (cols, n_cols) = blocks(p - 1), blocks(p)
    D = np.zeros((n_rows, n_cols), dtype=np.int64)
    for tau, where in cols.items():
        for face, sign in tuple_faces(tau):
            D[rows[face], where] = sign * np.asarray(maps[(face, tau)])
    return D % field


def tuple_chain_map(f, source_simplices, target_simplices, p: int, field: int) -> np.ndarray:
    """C_p(f) over the lexicographic p-simplices of two complexes given as
    sets of sorted tuples: a p-simplex whose image repeats a vertex maps to
    zero, any other to its sorted image with the sign of the sorting
    permutation (the determinant of its permutation matrix)."""
    rows = sorted(s for s in target_simplices if len(s) == p + 1)
    cols = sorted(s for s in source_simplices if len(s) == p + 1)
    D = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, s in enumerate(cols):
        image = [f[v] for v in s]
        if len(set(image)) == len(image):
            sign = round(np.linalg.det(np.eye(len(image))[np.argsort(image)]))
            D[rows.index(tuple(sorted(image))), j] = sign % field
    return D


def homology_barcode(fc, field: int = 2, include_zero_bars: bool = False) -> Barcode:
    """Barcode of a filtration by the boundary (homology) reduction, the
    oracle for the library's coboundary route: boundary columns in
    filtration order through ``fields.reduce_columns``. A column j with
    pivot i gives the bar [value_i, value_j) in dim i; a column that
    reduces to zero and is no pivot gives an infinite bar."""
    cells = [s for s, _ in fc.entries]
    values = [v for _, v in fc.entries]
    index = {s: i for i, s in enumerate(cells)}
    columns = [{index[f]: c % field for f, c in tuple_faces(s)} for s in cells]
    pivots = [i for i, _, _ in fields.reduce_columns(columns, field)]
    paired = set(pivots)
    bars = []
    for j, i in enumerate(pivots):
        if i is None and j not in paired:
            bars.append(Bar(len(cells[j]) - 1, values[j], math.inf))
        elif i is not None and (values[i] != values[j] or include_zero_bars):
            bars.append(Bar(len(cells[i]) - 1, values[i], values[j]))
    return Barcode(bars)


def bottleneck(A: Barcode, B: Barcode) -> float:
    """The bottleneck distance of two barcodes, the largest over degrees.
    Finite bars are matched to each other or to the diagonal at L-infinity
    cost, the diagonal being (death - birth) / 2 away; infinite bars are
    matched to each other by birth, in sorted order, and inf is returned
    if their counts differ in some degree."""
    bars = ({}, {})
    for side, bc in zip(bars, (A, B)):
        for degree, birth, death in zip(*bc.columns):
            finite, infinite = side.setdefault(degree, ([], []))
            if death < math.inf:
                finite.append((birth, death))
            else:
                infinite.append(birth)
    distance = 0.0
    for degree in bars[0].keys() | bars[1].keys():
        (P, P_inf), (Q, Q_inf) = (side.get(degree, ([], [])) for side in bars)
        if len(P_inf) != len(Q_inf):
            return math.inf
        births = (abs(p - q) for p, q in zip(sorted(P_inf), sorted(Q_inf)))
        distance = max(distance, _finite_bottleneck(P, Q), *births)
    return distance


def _finite_bottleneck(P, Q) -> float:
    """The least candidate eps at which the matching graph has a perfect
    matching. Left nodes are the points of P, then Q's diagonal copies;
    right nodes the points of Q, then P's diagonal copies. A point meets
    its own diagonal copy at its distance to the diagonal and any point of
    the other side at their L-infinity distance; diagonal copies meet at 0."""
    m, n = len(P), len(Q)

    def cost(i, j) -> float:
        if i < m and j < n:
            return max(abs(P[i][0] - Q[j][0]), abs(P[i][1] - Q[j][1]))
        if i < m:
            return (P[i][1] - P[i][0]) / 2 if j - n == i else math.inf
        if j < n:
            return (Q[j][1] - Q[j][0]) / 2 if i - m == j else math.inf
        return 0.0

    costs = [[cost(i, j) for j in range(m + n)] for i in range(m + n)]

    def matched(eps: float) -> bool:  # a perfect matching by augmenting paths (Kuhn)
        owner = [-1] * (m + n)

        def augment(i, seen) -> bool:
            for j in range(m + n):
                if costs[i][j] <= eps and j not in seen:
                    seen.add(j)
                    if owner[j] < 0 or augment(owner[j], seen):
                        owner[j] = i
                        return True
            return False

        return all(augment(i, set()) for i in range(m + n))

    candidates = sorted({0.0, *(c for row in costs for c in row if c < math.inf)})
    lo, hi = 0, len(candidates) - 1  # the last candidate always admits a matching
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if matched(candidates[mid]) else (mid + 1, hi)
    return candidates[lo]
