"""Simplicial complexes and their builders.

A complex has one layout: per dimension, the simplices' ascending vertex
ids in lexicographic rows and the positions of their facets, which
``_layout`` finds. Boundaries, subcomplexes and vertex maxima read those
arrays. Explicit complexes come from simplex lists, Vietoris-Rips and
Čech complexes from point clouds; also nerves of interval covers and
eccentricity vertex functions. All constructions use closed-ball
conventions (<= comparisons) with an absolute tolerance of 1e-9: Rips
compares squared distances (d² <= 4r² + 1e-9), Čech compares
minimum-enclosing-ball radii (radius <= r + 1e-9), and an enclosing ball
holds a point at distance <= radius + 1e-9.

Rips and Čech complexes and filtrations have one construction path:
``_rips_entries`` is the only clique enumerator and ``_cech_entries`` the
only enclosing-ball filter. Both return numpy arrays per dimension, the
simplices' sorted vertex ids and their values, laid out as the complexes
here and as the filtrations of ``persistence``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidMetricError, MalformedSimplexError, NonlinearNerveError, TdaError

TOL = 1e-9
# Largest predicted Rips/Čech simplex count. `tda rips --output` peaks at ~250 bytes
# per simplex near it (noisy circle, radius 0.3: 1,000 points, 4,649,194 simplices,
# 1,096 MiB; 600 points, 1,002,826 simplices, 283 MiB), so about 1.2 GB.
MAX_SIMPLICES = 5_000_000
# Largest block, in bytes, of coordinate differences (squared_distance_matrix)
# or adjacency rows (_rips_entries) held at once. Each distance is the same
# einsum over its row's block, so the result equals the unblocked einsum bit
# for bit.
DISTANCE_BLOCK_BYTES = 16 * 2**20

Simplex = tuple[int, ...]


def simplex(vertices: Iterable[int]) -> Simplex:
    """Normalize an iterable of vertex ids into a sorted simplex tuple."""
    vs = tuple(int(v) for v in vertices)
    if not vs:
        raise MalformedSimplexError("a simplex needs at least one vertex")
    if any(v < 0 for v in vs):
        raise MalformedSimplexError(f"negative vertex id in {vs!r}")
    if len(set(vs)) != len(vs):
        raise MalformedSimplexError(f"duplicate vertices in {vs!r}")
    return tuple(sorted(vs))


def faces(sigma: Simplex) -> list[Simplex]:
    """All codimension-1 faces of sigma, in vertex-deletion order."""
    return [sigma[:j] + sigma[j + 1 :] for j in range(len(sigma))]


def _facet_terms(facets: np.ndarray, first: int = 0, sign: int = 1) -> tuple[np.ndarray, ...]:
    """The (row, column, coefficient) terms of the boundary whose column first + i
    has the facet positions facets[i]: the facet deleting vertex j has sign * (-1)^j."""
    n, w = facets.shape
    return facets.ravel(), np.repeat(np.arange(first, first + n), w), np.tile(sign * (-1) ** np.arange(w), n)


def _id_rows(simplices: Sequence[Sequence[int]], size: int) -> np.ndarray:
    """The simplices, each of ``size`` vertex ids, as an (N, size) int64 array."""
    try:
        return np.array(simplices, dtype=np.int64).reshape(len(simplices), size)
    except OverflowError as exc:
        raise MalformedSimplexError("vertex ids must fit in 64-bit integers") from exc


def _size_groups(simplices: Iterable[Sequence[int]]) -> dict[int, np.ndarray]:
    """Per size, the simplices' ascending vertex ids as an (N, size) int64
    array, each size sorted and checked at once. Only if some row is bad
    does ``simplex`` run over the input, naming the first bad simplex."""
    simplices, groups = list(simplices), {}
    try:
        for s in simplices:
            groups.setdefault(len(s), []).append(s)
        # A stable sort: the default one pages in SIMD sort code, ~0.1 MB of peak RSS.
        rows = {size: np.sort(np.array(group), axis=1, kind="stable") for size, group in groups.items()}
        if all(r.dtype == np.int64 and r.ndim == 2 and r.size for r in rows.values()):
            if all(r[:, 0].min() >= 0 and (r[:, 1:] > r[:, :-1]).all() for r in rows.values()):
                return rows
    except (TypeError, ValueError, OverflowError):
        pass
    simplices = [simplex(s) for s in simplices]
    return {n: _id_rows([s for s in simplices if len(s) == n], n) for n in set(map(len, simplices))}


def _lookup(keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of each x in the sorted, distinct keys, or -1 if absent. Keys
    that form one run lo..lo+n-1 (a Rips complex's vertex ids are 0..n-1)
    are answered by subtraction, without a search."""
    if not len(keys):
        return np.full(np.shape(x), -1)
    lo, hi = keys[0], keys[-1]
    if hi - lo == len(keys) - 1:
        return np.where((x >= lo) & (x <= hi), x - lo, -1)  # x - lo may wrap only where it is not kept
    i = np.minimum(np.searchsorted(keys, x), len(keys) - 1)
    return np.where(keys[i] == x, i, -1)


def _layout(layers) -> tuple["SimplicialComplex", list[np.ndarray]]:
    """The complex of per-dimension (N_k, k+1) arrays of ascending vertex
    ids, and the order that sorts each layer's rows, once the rows are
    checked to be distinct simplices closed under faces (only filtrations
    can fail that, so the errors name them). A vertex is keyed by its rank
    among the ids and a k-simplex by (position of its prefix face, rank of
    its last vertex), so keys stay below (simplex count)^2 whatever the ids."""
    laid, facets, orders, keys = [], [], [], []

    def find(ranks: np.ndarray) -> np.ndarray:
        """Position of each row of vertex ranks among the laid-out simplices
        of its dimension, or -1 if absent."""
        pos = ranks[:, 0]
        for level in range(1, ranks.shape[1]):
            key = np.where(pos >= 0, pos * len(keys[0]) + ranks[:, level], -1)
            pos = _lookup(keys[level], key)
        return pos

    def require(found: np.ndarray, faces: np.ndarray) -> None:
        if (found < 0).any():
            face = tuple(faces[found < 0][0].tolist())
            raise TdaError(f"filtration is not face-closed: missing {face}")

    for k, verts in enumerate(layers):
        if k == 0:
            key = verts[:, 0]
        else:
            ranks = _lookup(keys[0], verts)
            require(ranks.ravel(), verts.reshape(-1, 1))
            prefix = find(ranks[:, :k])
            require(prefix, verts[:, :k])
            key = prefix * len(keys[0]) + ranks[:, k]
        order = np.argsort(key)
        key, verts = key[order], verts[order]
        if (key[1:] == key[:-1]).any():
            raise TdaError("duplicate simplex in filtration")
        keys.append(key)
        found = [np.zeros((len(verts), 0), dtype=np.int64)]
        if k:
            ranks, prefix = ranks[order], prefix[order]
            found = [find(ranks[:, np.arange(k + 1) != j]) for j in range(k)] + [prefix]
        for j, pos in enumerate(found):
            if (pos < 0).any():  # build the faces only to name a missing one
                require(pos, np.delete(verts, j, axis=1))
        facets.append(np.column_stack(found))
        laid.append(verts)
        orders.append(order)
    return SimplicialComplex._of(laid, facets), orders


class SimplicialComplex:
    """A finite, face-closed set of simplices over vertex ids in [0, 2^63).

    Per dimension k it holds an (N_k, k+1) array of ascending vertex ids,
    rows in lexicographic order, and an (N_k, k+1) array of facet
    positions among the (k-1)-simplices, column j deleting vertex j (none
    for vertices). The constructor normalizes each simplex and closes
    under faces, so it is idempotent on closed input. The frozenset of
    simplex tuples is built when first asked for.
    """

    __slots__ = ("_verts", "_faces", "_simplices")

    def __init__(self, simplices: Iterable[Sequence[int]] = ()):
        groups = _size_groups(simplices)
        layers: list[np.ndarray] = []
        for size in range(max(groups, default=0), 0, -1):
            rows = [groups.get(size, np.zeros((0, size), dtype=np.int64))]
            rows += [layers[-1][:, np.arange(size + 1) != j] for j in range(size + 1)] if layers else []
            rows = np.concatenate(rows)
            rows = rows[np.lexsort(rows.T[::-1])]  # lexicographic, so repeats are adjacent
            layers.append(rows[np.concatenate([[True], (rows[1:] != rows[:-1]).any(axis=1)])])
        K = _layout(layers[::-1])[0]
        self._verts, self._faces, self._simplices = K._verts, K._faces, None

    @classmethod
    def _of(cls, verts: list[np.ndarray], faces: list[np.ndarray]) -> "SimplicialComplex":
        """The complex of laid-out layers, trailing empty ones dropped."""
        K = cls.__new__(cls)
        while verts and not len(verts[-1]):
            verts, faces = verts[:-1], faces[:-1]
        K._verts, K._faces, K._simplices = verts, faces, None
        return K

    def _layer(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """The p-simplices' vertex ids and facet positions (empty past the ends)."""
        if 0 <= p < len(self._verts):
            return self._verts[p], self._faces[p]
        empty = np.zeros((0, max(p + 1, 0)), dtype=np.int64)
        return empty, empty

    def _fold(self, f: np.ndarray, ufunc: np.ufunc) -> list[np.ndarray]:
        """Per dimension in row order, ``ufunc`` (np.maximum, np.minimum)
        of f over each simplex's vertices; f has one entry per vertex."""
        folded = [np.asarray(f)][: len(self._verts)]
        for faces in self._faces[1:]:
            folded.append(ufunc.reduce(folded[-1][faces], axis=1))
        return folded

    def _restrict(self, masks: Sequence[np.ndarray]) -> "SimplicialComplex":
        """The face-closed subcomplex the per-dimension masks keep."""
        below = [np.zeros(0, dtype=np.int64), *masks]
        faces = [(np.cumsum(b) - 1)[f[keep]] for b, f, keep in zip(below, self._faces, masks)]
        return SimplicialComplex._of([v[keep] for v, keep in zip(self._verts, masks)], faces)

    def _full(self, keep: np.ndarray) -> "SimplicialComplex":
        """The full subcomplex on the vertices the vertex mask keeps."""
        return self._restrict(self._fold(keep, np.minimum))

    @property
    def simplices(self) -> frozenset[Simplex]:
        if self._simplices is None:
            self._simplices = frozenset(self)
        return self._simplices

    @property
    def dimension(self) -> int:
        """Top simplex dimension; -1 for the empty complex."""
        return len(self._verts) - 1

    def p_simplices(self, p: int) -> list[Simplex]:
        """The p-simplices in lexicographic vertex order."""
        return list(map(tuple, self._layer(p)[0].tolist()))

    def vertices(self) -> list[int]:
        return self._layer(0)[0][:, 0].tolist()

    def full_subcomplex(self, vertex_subset: Iterable[int]) -> "SimplicialComplex":
        """Simplices all of whose vertices lie in the given set."""
        vs = set(vertex_subset)
        return self._full(np.array([v in vs for v in self.vertices()], dtype=bool))

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self.simplices <= other.simplices

    def __contains__(self, s) -> bool:
        return tuple(s) in self.simplices

    def __len__(self) -> int:
        return sum(map(len, self._verts))

    def __iter__(self):
        """Simplices by dimension, each dimension in lexicographic order."""
        return (tuple(s) for verts in self._verts for s in verts.tolist())

    def __eq__(self, other) -> bool:
        same = isinstance(other, SimplicialComplex) and len(self._verts) == len(other._verts)
        return same and all(np.array_equal(a, b) for a, b in zip(self._verts, other._verts))

    def __hash__(self) -> int:
        return hash(self.simplices)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self)} simplices, dim {self.dimension})"


def build_complex(simplices: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Face closure of the given simplices."""
    return SimplicialComplex(simplices)


def as_point_cloud(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise ValueError(f"a point cloud must be a 2-D array of coordinates, got shape {pts.shape}")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if len(bad):
        raise TdaError(f"point {bad[0]} (counting from 0) has a non-finite coordinate {pts[bad[0]].tolist()}")
    return pts


def _looks_like_distance_matrix(arr: np.ndarray) -> bool:
    return (
        arr.ndim == 2
        and arr.shape[0] == arr.shape[1]
        and np.allclose(arr, arr.T, atol=TOL)
        and np.allclose(np.diag(arr), 0.0, atol=TOL)
    )


def squared_distance_matrix(data, precomputed: bool | None = None) -> np.ndarray:
    """Squared pairwise distances from points or a precomputed matrix.

    With precomputed=None, a square symmetric zero-diagonal array is taken
    to be a distance matrix; anything else is taken to be coordinates.
    """
    arr = np.asarray(data, dtype=float)
    if precomputed is None:
        precomputed = _looks_like_distance_matrix(arr)
    if precomputed:
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidMetricError(f"distance matrix must be square, got shape {arr.shape}")
        if np.isnan(arr).any():
            i, j = np.argwhere(np.isnan(arr))[0].tolist()
            raise InvalidMetricError(f"distance matrix has a NaN entry at ({i}, {j})")
        if not np.allclose(arr, arr.T, atol=TOL):
            raise InvalidMetricError("distance matrix must be symmetric")
        if np.any(arr < -TOL):
            raise InvalidMetricError("distances must be nonnegative")
        return arr**2
    pts = as_point_cloud(arr)
    n, d = pts.shape
    rows = max(1, DISTANCE_BLOCK_BYTES // max(1, n * d * pts.itemsize))
    D2 = np.empty((n, n))
    for i in range(0, n, rows):
        diff = pts[i : i + rows, None, :] - pts[None, :, :]
        D2[i : i + rows] = np.einsum("ijk,ijk->ij", diff, diff)
    return D2


def _rips_entries(D2: np.ndarray, max_dim: int, max_radius: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every simplex with at most max_dim+1 vertices and all pairwise
    distances <= 2 max_radius, valued at half its diameter, as one
    (vertices, values) pair of arrays per dimension: row i of the
    (N_k, k+1) vertex array is a k-simplex with ascending vertices, rows in
    lexicographic order. Dimensions stop before the first empty one.

    The one clique enumerator: each layer grows by AND-ing the rows of the
    upper-triangular adjacency matrix over a simplex's vertices, in blocks
    of at most DISTANCE_BLOCK_BYTES of adjacency rows, and values the new
    simplex at max(its prefix face's value, sqrt(max D2 to the new vertex)
    / 2), which is half its diameter bit for bit.
    Before any simplex is built, the count is bounded by
    n + sum_v sum_{k=1..max_dim} C(deg+(v), k), where deg+(v) counts the
    neighbours above v; a bound over MAX_SIMPLICES raises.
    """
    if not max_radius > 0:
        raise ValueError(f"max_radius must be positive, got {max_radius}")
    if max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    n = D2.shape[0]
    adjacent = np.triu(D2 <= 4.0 * max_radius * max_radius + TOL, 1)
    predicted = n
    for deg in np.count_nonzero(adjacent, axis=1).tolist():
        predicted += sum(math.comb(deg, k) for k in range(1, min(deg, max_dim) + 1))
        if predicted > MAX_SIMPLICES:
            raise TdaError(
                f"the complex would have more than {MAX_SIMPLICES:,} simplices; "
                f"lower max_radius or max_dim"
            )
    if n == 0:
        return []
    layers = [(np.arange(n, dtype=np.int64)[:, None], np.zeros(n))]
    rows = max(1, DISTANCE_BLOCK_BYTES // n)
    for _ in range(max_dim):
        verts, vals = layers[-1]
        grown_verts, grown_vals = [], []
        for i in range(0, len(verts), rows):
            block = verts[i : i + rows]
            common = adjacent[block[:, 0]]
            for j in range(1, block.shape[1]):
                common &= adjacent[block[:, j]]
            face, w = np.nonzero(common)
            cliques = np.empty((len(w), block.shape[1] + 1), dtype=np.int64)
            cliques[:, -1] = w
            d2w = np.full(len(w), -np.inf)
            for j in range(block.shape[1]):
                cliques[:, j] = block[face, j]
                np.maximum(d2w, D2[cliques[:, j], w], out=d2w)
            grown_verts.append(cliques)
            grown_vals.append(np.maximum(vals[i + face], np.sqrt(d2w) / 2.0))
        grown = np.concatenate(grown_verts)
        if not len(grown):
            break
        layers.append((grown, np.concatenate(grown_vals)))
    return layers


def build_rips(data, r: float, max_dim: int = 2, precomputed: bool | None = None) -> SimplicialComplex:
    """Vietoris-Rips complex: a simplex iff all pairwise distances <= 2r.

    The underlying complex of ``rips_filtration(data, max_dim, r)``.
    """
    layers = _rips_entries(squared_distance_matrix(data, precomputed), max_dim, r)
    return _layout([verts for verts, _ in layers])[0]


def _ball_from_boundary(boundary: list[np.ndarray]):
    if not boundary:
        return None, -1.0
    q0 = boundary[0]
    if len(boundary) == 1:
        return q0, 0.0
    U = np.stack(boundary[1:]) - q0
    G = U @ U.T
    rhs = np.diag(G).copy()
    try:
        lam = np.linalg.solve(2.0 * G, rhs)
    except np.linalg.LinAlgError:
        lam = np.linalg.lstsq(2.0 * G, rhs, rcond=None)[0]
    center = q0 + U.T @ lam
    radius = max(float(np.linalg.norm(center - q)) for q in boundary)
    return center, radius


def _welzl(pts: np.ndarray, i: int, boundary: list[np.ndarray]):
    if i == len(pts) or len(boundary) == pts.shape[1] + 1:
        return _ball_from_boundary(boundary)
    center, radius = _welzl(pts, i + 1, boundary)
    p = pts[i]
    if center is not None and math.sqrt(float(np.dot(p - center, p - center))) <= radius + TOL:
        return center, radius
    return _welzl(pts, i + 1, boundary + [p])


def min_enclosing_ball(points) -> tuple[np.ndarray, float]:
    """Smallest ball containing all points: (center, radius).

    Welzl's move-to-front recursion without shuffling, so the result is a
    deterministic function of the input order. A point counts as inside
    when its distance from the center is at most radius + TOL.
    """
    pts = as_point_cloud(points)
    if len(pts) == 0:
        raise ValueError("min_enclosing_ball needs at least one point")
    center, radius = _welzl(pts, 0, [])
    return center, radius


def _cech_entries(points, max_dim: int, max_radius: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every simplex whose minimum enclosing ball has radius <= max_radius
    (+TOL), valued at that radius, in ``_rips_entries``' per-dimension
    array layout.

    The one Čech filter, run over the Rips candidates. The exact radius is
    never below a facet's, but rounding can put it an ulp below, so each
    value is clamped by its facets'; a facet dropped for its radius (valued
    inf here) drops the simplex too.
    """
    pts = as_point_cloud(points)
    layers = _rips_entries(squared_distance_matrix(pts, precomputed=False), max_dim, max_radius)
    K = _layout([verts for verts, _ in layers])[0]  # the Rips rows are already in lexicographic order
    values = [vals for _, vals in layers[:2]]  # below three vertices the radius is 0 or half the distance
    for verts, facets in zip(K._verts[2:], K._faces[2:]):
        radii = np.array([min_enclosing_ball(pts[s])[1] for s in verts])
        values.append(np.maximum(radii, values[-1][facets].max(axis=1)))
        values[-1][values[-1] > max_radius + TOL] = math.inf
        if np.isinf(values[-1]).all():
            break
    kept = [(verts[vals < math.inf], vals[vals < math.inf]) for verts, vals in zip(K._verts, values)]
    return [layer for layer in kept if len(layer[1])]


def build_cech(points, r: float, max_dim: int = 2) -> SimplicialComplex:
    """Čech complex: a simplex iff the radius-r closed balls around its
    points intersect, decided exactly via the minimum enclosing ball.

    The underlying complex of ``cech_filtration(points, max_dim, r)``.
    """
    return _layout([verts for verts, _ in _cech_entries(points, max_dim, r)])[0]


@dataclass(frozen=True)
class IntervalCover:
    """Ordered open intervals where only consecutive ones may overlap."""

    intervals: tuple[tuple[float, float], ...]

    def __init__(self, intervals: Iterable[Sequence[float]]):
        ivs = tuple(sorted((float(lo), float(hi)) for lo, hi in intervals))
        for lo, hi in ivs:
            if not lo < hi:
                raise NonlinearNerveError(f"degenerate interval ({lo}, {hi})")
        for i in range(len(ivs) - 2):
            if ivs[i + 2][0] < ivs[i][1]:
                raise NonlinearNerveError(
                    f"intervals {i} and {i + 2} overlap; only consecutive overlaps are allowed"
                )
        object.__setattr__(self, "intervals", ivs)

    def __len__(self) -> int:
        return len(self.intervals)

    def overlap(self, i: int) -> tuple[float, float] | None:
        """The open intersection of intervals i and i+1, or None if disjoint."""
        lo = self.intervals[i + 1][0]
        hi = min(self.intervals[i][1], self.intervals[i + 1][1])  # i + 1 may lie inside i
        return (lo, hi) if lo < hi else None


def nerve_of_interval_cover(cover: IntervalCover) -> SimplicialComplex:
    """One vertex per interval, one edge per overlapping consecutive pair.

    The cover invariants force the result to be linear: every vertex has
    degree at most two and there are no cycles. The path is laid out
    directly, without sorting or checking: vertex i is at position i, so
    edge (i, i + 1) has facets i + 1, i.
    """
    m = len(cover)
    left = np.array([i for i in range(m - 1) if cover.overlap(i) is not None], dtype=np.int64)
    verts = [np.arange(m, dtype=np.int64)[:, None], np.column_stack([left, left + 1])]
    return SimplicialComplex._of(verts, [np.zeros((m, 0), dtype=np.int64), np.column_stack([left + 1, left])])


def eccentricity_values(points, p: float = 2.0) -> np.ndarray:
    """Discrete eccentricity of each point: ((1/n) sum_y d(x,y)^p)^(1/p)."""
    if p < 1:
        raise ValueError(f"eccentricity exponent must be >= 1, got {p}")
    pts = as_point_cloud(points)
    if len(pts) == 0:
        raise ValueError("eccentricity of an empty point cloud is undefined")
    D = np.sqrt(squared_distance_matrix(pts, precomputed=False))
    return (np.mean(D**p, axis=1)) ** (1.0 / p)
