"""Simplicial complex builders.

Explicit complexes from simplex lists, Vietoris-Rips and Čech complexes of
point clouds, nerves of interval covers, and eccentricity vertex functions.
All constructions use closed-ball conventions (<= comparisons) with an
absolute tolerance of 1e-9: Rips compares squared distances (d² <= 4r² +
1e-9), Čech compares minimum-enclosing-ball radii (radius <= r + 1e-9),
and an enclosing ball holds a point at distance <= radius + 1e-9.

Rips and Čech complexes and filtrations have one construction path:
``_rips_entries`` is the only clique enumerator and ``_cech_entries`` the
only enclosing-ball filter. Both return numpy arrays per dimension, the
simplices' sorted vertex ids and their values. The builders here return
the underlying complexes of those arrays; ``persistence`` validates the
same arrays into filtrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidMetricError, MalformedSimplexError, NonlinearNerveError, TdaError

TOL = 1e-9
# Largest predicted Rips/Čech simplex count: a build plus an F2 barcode
# costs about 500 bytes per simplex, so this is about 2.5 GB.
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


def face_closure(simplices: Iterable[Simplex]) -> set[Simplex]:
    closed: set[Simplex] = set()
    for s in simplices:
        for k in range(1, len(s) + 1):
            closed.update(combinations(s, k))
    return closed


class SimplicialComplex:
    """A finite, face-closed set of simplices over integer vertex ids.

    The constructor normalizes each input simplex and takes the face
    closure, so the result is always a valid complex; construction is
    idempotent on already-closed input. Library code that already holds
    normalized, face-closed simplices passes ``_closed=True`` to skip both.
    """

    __slots__ = ("_simplices", "_dim", "_by_dim")

    def __init__(self, simplices: Iterable[Sequence[int]] = (), *, _closed: bool = False):
        if _closed:
            self._simplices = frozenset(simplices)
        else:
            self._simplices = frozenset(face_closure({simplex(s) for s in simplices}))
        self._dim = max((len(s) - 1 for s in self._simplices), default=-1)
        self._by_dim: dict[int, list[Simplex]] | None = None

    @property
    def simplices(self) -> frozenset[Simplex]:
        return self._simplices

    @property
    def dimension(self) -> int:
        """Top simplex dimension; -1 for the empty complex."""
        return self._dim

    def p_simplices(self, p: int) -> list[Simplex]:
        """The p-simplices in lexicographic vertex order (sorted once)."""
        if self._by_dim is None:
            self._by_dim = {}
            for s in sorted(self._simplices):
                self._by_dim.setdefault(len(s) - 1, []).append(s)
        return list(self._by_dim.get(p, ()))

    def vertices(self) -> list[int]:
        return sorted(s[0] for s in self._simplices if len(s) == 1)

    def full_subcomplex(self, vertex_subset: Iterable[int]) -> "SimplicialComplex":
        """Simplices all of whose vertices lie in the given set."""
        vs = set(vertex_subset)
        kept = {s for s in self._simplices if vs.issuperset(s)}
        return SimplicialComplex(kept, _closed=True)

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self._simplices <= other._simplices

    def __contains__(self, s) -> bool:
        return tuple(s) in self._simplices

    def __len__(self) -> int:
        return len(self._simplices)

    def __iter__(self):
        return iter(sorted(self._simplices, key=lambda s: (len(s), s)))

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self._simplices == other._simplices

    def __hash__(self) -> int:
        return hash(self._simplices)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self._simplices)} simplices, dim {self._dim})"


def build_complex(simplices: Iterable[Sequence[int]]) -> SimplicialComplex:
    """Face closure of the given simplices."""
    return SimplicialComplex(simplices)


def as_point_cloud(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise ValueError(f"a point cloud must be a 2-D array of coordinates, got shape {pts.shape}")
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
            d2w = D2[block[face], w[:, None]].max(axis=1)
            grown_verts.append(np.column_stack([block[face], w]))
            grown_vals.append(np.maximum(vals[i + face], np.sqrt(d2w) / 2.0))
        grown = np.concatenate(grown_verts)
        if not len(grown):
            break
        layers.append((grown, np.concatenate(grown_vals)))
    return layers


def _layer_simplices(layers) -> list[Simplex]:
    """The simplices of per-dimension vertex arrays, as tuples."""
    return [tuple(s) for verts, _ in layers for s in verts.tolist()]


def build_rips(data, r: float, max_dim: int = 2, precomputed: bool | None = None) -> SimplicialComplex:
    """Vietoris-Rips complex: a simplex iff all pairwise distances <= 2r.

    The underlying complex of ``rips_filtration(data, max_dim, r)``.
    """
    layers = _rips_entries(squared_distance_matrix(data, precomputed), max_dim, r)
    return SimplicialComplex(_layer_simplices(layers), _closed=True)


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
    value is clamped by its facets'; a facet dropped for its radius drops
    the simplex too.
    """
    pts = as_point_cloud(points)
    layers = _rips_entries(squared_distance_matrix(pts, precomputed=False), max_dim, max_radius)
    kept = layers[:2]  # below three vertices the radius is 0 or half the distance
    values: dict[Simplex, float] = {}
    if len(layers) > 1:
        values.update(zip(map(tuple, layers[1][0].tolist()), layers[1][1].tolist()))
    for verts, _ in layers[2:]:
        rows, row_vals = [], []
        for i, s in enumerate(map(tuple, verts.tolist())):
            _, rad = min_enclosing_ball(pts[list(s)])
            val = max(rad, *(values.get(f, math.inf) for f in faces(s)))
            if val <= max_radius + TOL:
                values[s] = val
                rows.append(i)
                row_vals.append(val)
        if not rows:
            break
        kept.append((verts[rows], np.array(row_vals)))
    return kept


def build_cech(points, r: float, max_dim: int = 2) -> SimplicialComplex:
    """Čech complex: a simplex iff the radius-r closed balls around its
    points intersect, decided exactly via the minimum enclosing ball.

    The underlying complex of ``cech_filtration(points, max_dim, r)``.
    """
    return SimplicialComplex(_layer_simplices(_cech_entries(points, max_dim, r)), _closed=True)


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
        hi = self.intervals[i][1]
        return (lo, hi) if lo < hi else None


def nerve_of_interval_cover(cover: IntervalCover) -> SimplicialComplex:
    """One vertex per interval, one edge per overlapping consecutive pair.

    The cover invariants force the result to be linear: every vertex has
    degree at most two and there are no cycles.
    """
    simplices: list[Simplex] = [(i,) for i in range(len(cover))]
    for i in range(len(cover) - 1):
        if cover.overlap(i) is not None:
            simplices.append((i, i + 1))
    return SimplicialComplex(simplices, _closed=True)


def eccentricity_values(points, p: float = 2.0) -> np.ndarray:
    """Discrete eccentricity of each point: ((1/n) sum_y d(x,y)^p)^(1/p)."""
    if p < 1:
        raise ValueError(f"eccentricity exponent must be >= 1, got {p}")
    pts = as_point_cloud(points)
    if len(pts) == 0:
        raise ValueError("eccentricity of an empty point cloud is undefined")
    D = np.sqrt(squared_distance_matrix(pts, precomputed=False))
    return (np.mean(D**p, axis=1)) ** (1.0 / p)
