"""Filtrations, the persistence reduction algorithm, and barcodes.

A filtration is a ``SimplicialComplex`` (vertex and facet-position arrays
per dimension) with its values in the same row order, checked once to be
monotone, and its filtration order. A barcode is three numpy columns:
int64 degrees, ``_NONE`` standing for None, and float births and deaths.

Barcodes come from one pairing routine: it pairs degree 0 by union-find
and reduces the anti-transposed coboundary (persistent cohomology) of
every higher degree, degree by degree with clearing, which gives the
same pairs as reducing the boundary. Filtration barcodes use
half-open bars [birth, death): the pairing makes pointwise dimension
counts exact under that convention. Module decompositions over integer
grades (see :func:`tda.zigzag.decompose_explicit`) use closed bars
instead, with degree None.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import fields
from .complexes import (
    Simplex,
    SimplicialComplex,
    _cech_entries,
    _facet_terms,
    _id_rows,
    _layout,
    _rips_entries,
    squared_distance_matrix,
)
from .errors import InternalInconsistencyError, MalformedSimplexError, MissingVertexValueError, TdaError

_NONE = np.iinfo(np.int64).max  # the degree code of degree None, after every degree


@dataclass(frozen=True)
class Bar:
    """A bar: half-open [birth, death) for filtrations, closed [birth,
    death] integer grades for module decompositions (degree None)."""

    degree: int | None
    birth: float
    death: float

    def __post_init__(self):
        if (d := self.degree) is not None and not (np.issubdtype(type(d), np.integer) and 0 <= d < _NONE):
            raise TdaError(f"bar degree must be an integer from 0 to 2^63 - 2 or None, got {d!r}")
        if not math.isfinite(self.birth):
            raise TdaError(f"bar birth must be finite, got {self.birth}")
        if not self.death >= self.birth:
            raise TdaError(f"bar death {self.death} precedes birth {self.birth} or is not a number")

    @property
    def infinite(self) -> bool:
        return math.isinf(self.death)


class Barcode:
    """A multiset of bars in canonical order: by degree, None last, then by
    birth and death, ties in input order. ``Bar`` objects and the
    ``columns`` lists are built when asked for."""

    def __init__(self, bars: Iterable[Bar] = ()):
        bars = list(bars)
        degree = [_NONE if b.degree is None else b.degree for b in bars]
        self._columns = self.from_columns(degree, [b.birth for b in bars], [b.death for b in bars])._columns

    @classmethod
    def from_columns(cls, degree, birth, death) -> "Barcode":
        """The bars (degree[i], birth[i], death[i]) with integer degrees,
        checked as ``Bar`` checks each bar, in canonical order."""
        degree, birth, death = np.asarray(degree, np.int64), np.asarray(birth, float), np.asarray(death, float)
        if (degree < 0).any():
            raise TdaError(f"bar degree must be an integer from 0 to 2^63 - 2 or None, got {degree.min()}")
        if not np.isfinite(birth).all():
            raise TdaError(f"bar birth must be finite, got {birth[~np.isfinite(birth)][0]}")
        if (bad := ~(death >= birth)).any():
            i = int(np.flatnonzero(bad)[0])
            raise TdaError(f"bar death {death[i]} precedes birth {birth[i]} or is not a number")
        order = np.lexsort((death, birth, degree))
        bc = cls.__new__(cls)
        bc._columns = (degree[order], birth[order], death[order])
        return bc

    @property
    def columns(self) -> tuple[list, list, list]:
        """New lists of the degrees (ints or None), births and deaths, in canonical order."""
        degree, birth, death = self._columns
        return np.where(degree == _NONE, None, degree).tolist(), birth.tolist(), death.tolist()

    @property
    def bars(self) -> tuple[Bar, ...]:
        return tuple(map(Bar, *self.columns))

    def in_degree(self, degree: int | None) -> list[Bar]:
        codes, birth, death = self._columns
        keep = codes == (_NONE if degree is None else degree)
        return list(map(Bar, [degree] * int(keep.sum()), birth[keep].tolist(), death[keep].tolist()))

    def _containing(self, r: float, s: float, degree: int | None = None) -> np.ndarray:
        """Mask of the bars with birth <= r and death > s (optionally one degree)."""
        codes, birth, death = self._columns
        mask = (birth <= r) & (death > s)
        return mask if degree is None else mask & (codes == degree)

    def alive_at(self, t: float, degree: int | None = None) -> int:
        """Number of bars with birth <= t < death (optionally one degree)."""
        return int(np.count_nonzero(self._containing(t, t, degree)))

    def rank(self, r: float, s: float, degree: int | None = None) -> int:
        """Number of bars containing [r, s]; equals rank of the map r -> s."""
        if s < r:
            raise ValueError(f"need r <= s, got {r} > {s}")
        return int(np.count_nonzero(self._containing(r, s, degree)))

    def counter(self) -> Counter:
        return Counter(zip(*self.columns))

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        return iter(self.bars)

    def __eq__(self, other) -> bool:
        return isinstance(other, Barcode) and all(map(np.array_equal, self._columns, other._columns))

    def __repr__(self) -> str:
        return f"Barcode({len(self)} bars)"


def barcode_to_diagram(bc: Barcode) -> list[tuple[float, float]]:
    """One planar point (birth, death) per bar; +inf marks infinite death."""
    return sorted(zip(*bc.columns[1:]))


class FilteredComplex:
    """A complex with monotone appearance values.

    The complex holds the simplices as per-dimension arrays (see
    ``SimplicialComplex``); the values are stored per dimension in the same
    row order. The filtration orders simplices by (value, dimension,
    lexicographic vertex order); ``entries`` lists its (simplex, value)
    pairs in that order. The simplex set must be face-closed and every face
    must appear no later than its cofaces.
    """

    def __init__(self, entries: Iterable[tuple[Sequence[int], float]]):
        by_size: dict[int, tuple[list, list]] = {}
        for s, v in entries:
            s = tuple(s)
            simplices, values = by_size.setdefault(len(s), ([], []))
            simplices.append(s)
            values.append(v)
        if 0 in by_size:
            raise MalformedSimplexError("a simplex needs at least one vertex")
        layers = []
        for size in range(1, max(by_size, default=0) + 1):
            simplices, values = by_size.get(size, ([], []))
            layers.append((_id_rows(simplices, size), values))
        self._attach(*_checked(layers))

    @classmethod
    def from_layers(cls, layers: Sequence[tuple[np.ndarray, np.ndarray]]) -> "FilteredComplex":
        """The filtration of per-dimension (vertices, values) arrays, layer k
        holding (N_k, k+1) vertex ids, validated as the constructor validates."""
        return cls._of(*_checked(layers))

    @classmethod
    def _of(cls, K: SimplicialComplex, vals: list[np.ndarray]) -> "FilteredComplex":
        fc = cls.__new__(cls)
        fc._attach(K, vals)
        return fc

    def _attach(self, K: SimplicialComplex, vals: list[np.ndarray]) -> None:
        """Hold complex K with values per dimension in its row order, after
        checking that no facet appears later than its simplex."""
        vals = vals[: K.dimension + 1]
        for k in range(1, len(vals)):
            late = vals[k - 1][K._faces[k]] > vals[k][:, None]
            if late.any():
                i, j = np.argwhere(late)[0].tolist()
                verts = K._verts[k]
                face, s = tuple(np.delete(verts[i], j).tolist()), tuple(verts[i].tolist())
                raise TdaError(f"filtration not monotone: value({face}) > value({s})")
        self._complex, self._vals = K, vals
        # Rows are grouped by dimension in lexicographic order, so a stable
        # sort by value gives the (value, dimension, lexicographic) order.
        self._order = np.argsort(np.concatenate(vals or [np.zeros(0)]), kind="stable")
        self._entries: list[tuple[Simplex, float]] | None = None

    @property
    def entries(self) -> list[tuple[Simplex, float]]:
        """(simplex, value) pairs in filtration order, built once."""
        if self._entries is None:
            simplices = list(self._complex)
            values = np.concatenate(self._vals or [np.zeros(0)]).tolist()
            self._entries = [(simplices[i], values[i]) for i in self._order.tolist()]
        return self._entries

    def values(self) -> dict[Simplex, float]:
        return dict(self.entries)

    def grades(self) -> list[float]:
        return sorted({v for _, v in self.entries})

    def complex_at(self, t: float) -> SimplicialComplex:
        return self._complex._restrict([vals <= t for vals in self._vals])

    def underlying_complex(self) -> SimplicialComplex:
        return self._complex

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return iter(self.entries)


def _checked(layers) -> tuple[SimplicialComplex, list[np.ndarray]]:
    """The complex of per-dimension (vertices, values) arrays, and its
    values. A layer is sorted only if some row is not ascending."""
    checked = []
    for k, (verts, vals) in enumerate(layers):
        verts, vals = np.asarray(verts, dtype=np.int64), np.asarray(vals, dtype=float)
        if verts.shape != (len(vals), k + 1):
            raise ValueError(f"layer {k} needs {len(vals)} rows of {k + 1} vertex ids, got {verts.shape}")
        if not (verts[:, 1:] > verts[:, :-1]).all():
            verts = np.sort(verts, axis=1)
        negative, repeated = verts[:, :1] < 0, verts[:, 1:] == verts[:, :-1]
        for bad, what in ((negative, "negative vertex id"), (repeated, "duplicate vertices")):
            if bad.any():
                s = tuple(verts[bad.any(axis=1)][0].tolist())
                raise MalformedSimplexError(f"{what} in {s}")
        checked.append((verts, vals))
    K, orders = _layout([verts for verts, _ in checked])
    return K, [vals[order] for (_, vals), order in zip(checked, orders)]


def rips_filtration(
    data,
    max_dim: int = 2,
    max_radius: float = math.inf,
    precomputed: bool | None = None,
) -> FilteredComplex:
    """Rips filtration: each simplex appears at half its diameter."""
    D2 = squared_distance_matrix(data, precomputed)
    return FilteredComplex.from_layers(_rips_entries(D2, max_dim, max_radius))


def cech_filtration(
    points, max_dim: int = 2, max_radius: float = math.inf
) -> FilteredComplex:
    """Čech filtration: each simplex appears at its minimum enclosing ball
    radius, which is exactly the smallest r whose closed balls intersect."""
    return FilteredComplex.from_layers(_cech_entries(points, max_dim, max_radius))


def lower_star_filtration(K: SimplicialComplex, vertex_values: Mapping[int, float]) -> FilteredComplex:
    """Each simplex appears at the max of its vertices' values, so the
    sublevel complex at t is the full subcomplex on {v : f(v) <= t}."""
    for v in K.vertices():
        if v not in vertex_values:
            raise MissingVertexValueError(f"vertex {v} has no value")
    f = np.array([vertex_values[v] for v in K.vertices()], dtype=float)
    return FilteredComplex._of(K, K._fold(f, np.maximum))


def superlevel_filtration(K: SimplicialComplex, vertex_values: Mapping[int, float]) -> FilteredComplex:
    """Superlevel filtration, encoded as the lower-star filtration of -f.

    A grade g in the result corresponds to the superlevel threshold
    t = -g; negate grades back when reporting in terms of f.
    """
    negated = {v: -float(x) for v, x in vertex_values.items()}
    return lower_star_filtration(K, negated)


class _ApparentPivots(dict):
    """Pivots for ``reduce_columns`` that store ``build(row)`` on a missed row, unless None."""

    def __init__(self, build):
        self.build = build

    def get(self, row):
        if row not in self and (col := self.build(row)) is not None:
            self[row] = (col, None)
        return super().get(row)


def _merges(n_vertices: int, edges, ends_a, ends_b) -> tuple[list[int], list[int]]:
    """Union-find over vertices 0..n_vertices-1, numbered by age, taking
    the edges in the given order: each edge that joins two components
    yields (the younger root, the edge), and the older root stays the
    root (the elder rule). Stops after n_vertices - 1 merges."""
    parent = list(range(n_vertices))
    younger, killers = [], []
    for edge, a, b in zip(edges.tolist(), ends_a.tolist(), ends_b.tolist()):
        while (up := parent[a]) != a:  # path halving
            parent[a] = a = parent[up]
        while (up := parent[b]) != b:
            parent[b] = b = parent[up]
        if a != b:
            a, b = max(a, b), min(a, b)
            parent[a] = b
            younger.append(a)
            killers.append(edge)
            if len(younger) == n_vertices - 1:
                break
    return younger, killers


def _filtration_barcode(
    values, degrees, order, coboundary, field: int, include_zero_bars: bool = False
) -> Barcode:
    """Barcode of cells with the given values and degrees, filtered in the
    given order. ``coboundary`` holds three integer arrays, one term each:
    a face, a coface one degree up (later in the order), and the incidence
    coefficient.

    Degree 0 is paired by union-find (Edelsbrunner-Letscher-Zomorodian
    2002). Each degree-1 cell must have no degree-0 face or two whose
    coefficients sum to 0 mod field, as an edge's b - a does; any other
    raises ``InternalInconsistencyError``. The degree-1 cells are taken in
    filtration order. A component's root is its earliest vertex; an edge
    joining two roots kills the later one, giving the bar [value(root),
    value(edge)) in degree 0, and is cleared from the degree-1 columns.
    The roots left give infinite bars. Pairs are unique for a total order,
    so these are the pairs that reducing the degree-0 columns gives.

    Every higher degree is paired by reducing columns. Each cell's column
    has a row per coface, rows in reverse filtration order, so a column's
    largest row is its earliest coface. Columns are reduced degree by
    degree from low to high, each degree in decreasing filtration order,
    skipping the cells already paired one degree down (clearing). The
    column of cell i with the pivot row of cell j yields the bar [value_i,
    value_j) in degree_i; a zero column yields an infinite bar.

    Cell i is apparent (Bauer 2021, §3.5) when it is the latest face of
    its earliest coface c. No column reduced before i holds row c, as every
    face of c is at or before i, so column i keeps pivot c: the bar [value_i,
    value_c) needs no column. An apparent column is built, as given and
    scaled to pivot 1, only when a later column looks up its pivot row.

    Positions, rows, earliest cofaces and latest faces are int32, every
    ``np.minimum.at``/``np.maximum.at`` operand of one dtype, so at most
    2^31 - 1 cells fit: more raise a ``TdaError`` before any allocation."""
    fields.check_prime(field)
    n = len(order)
    if n >= 2**31:
        raise TdaError(f"a filtration of {n:,} cells is too large: int32 positions hold at most 2^31 - 1")
    position = np.empty(n, dtype=np.int32)
    position[order] = np.arange(n, dtype=np.int32)
    values = np.asarray(values, dtype=float)[order]
    degrees = np.asarray(degrees, dtype=np.int64)[order]
    face, coface, coef = coboundary
    del coboundary  # so that, unless the caller holds them, each term array is freed once converted
    face, coface = position[face], position[coface]
    coef = np.asarray(coef, dtype=np.int64) % field
    vertex_face = degrees[face] == 0
    low = np.flatnonzero(vertex_face & (coef != 0))
    low = low[np.argsort(coface[low], kind="stable")]
    edge_of = coface[low]
    head = np.flatnonzero(np.diff(edge_of, prepend=-1))  # each degree-1 cell's first term
    if (bad := (sizes := np.diff(head, append=len(low))) != 2).any():
        i = int(np.flatnonzero(bad)[0])
        raise InternalInconsistencyError(f"cell {order[edge_of[head[i]]]} has {sizes[i]} faces of degree 0, not 0 or 2")
    a, b = low[head], low[head + 1]
    if (bad := (coef[a] + coef[b]) % field != 0).any():
        i = int(np.flatnonzero(bad)[0])
        raise InternalInconsistencyError(
            f"cell {order[edge_of[head[i]]]} has degree-0 faces with coefficients {coef[a[i]]} and"
            f" {coef[b[i]]}, which do not sum to 0 mod {field}")
    vertices, edges = np.flatnonzero(degrees == 0), edge_of[head]
    ends = np.searchsorted(vertices, face[[a, b]])  # vertices are numbered by age
    younger, killers = _merges(len(vertices), edges, *ends)
    killer = np.full(len(vertices), -1, dtype=np.int64)  # -1 for an infinite bar
    killer[younger] = killers
    cleared = np.zeros(n, dtype=bool)
    cleared[killers] = True
    # Barcode keeps input order among bars equal but for the sign of a zero,
    # which the JSON spells apart, so degree 0 lists its bars as the column
    # pass lists a degree: no coface, then apparent, then the rest, each by
    # decreasing position. A vertex is apparent if it is the later end of
    # its earliest edge.
    first_edge = np.full(len(vertices), n, dtype=np.int32)  # n for no edge
    np.minimum.at(first_edge, ends.ravel(), np.tile(edges, 2))
    later = ends.max(axis=0)
    group = np.where(first_edge < n, 2, 0)
    group[later[first_edge[later] == edges]] = 1
    listed = np.lexsort((-np.arange(len(vertices)), group))
    born, dies = [vertices[listed]], [killer[listed]]
    del low, edge_of, head, sizes, a, b, vertices, edges, ends, killer, first_edge, later, group, listed
    by_column = np.flatnonzero(~vertex_face & (coef != 0))
    by_column = by_column[np.argsort(face[by_column])]  # the order within a column does not matter
    face, coface, coefs = face[by_column], coface[by_column], coef[by_column]
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(face, minlength=n), out=start[1:])
    earliest = np.full(n, n, dtype=np.int32)  # n for no coface
    latest_face = np.full(n + 1, -1, dtype=np.int32)  # the last entry stands for no coface
    np.minimum.at(earliest, face, coface)
    np.maximum.at(latest_face, coface, face)
    rows = n - 1 - coface
    del face, coface, coef, vertex_face, by_column

    def apparent_column(row):  # None unless row is the earliest coface of apparent cell i
        if earliest[i := latest_face[n - 1 - row]] == n - 1 - row:
            [col] = fields.sparse_columns(rows, coefs, [(start[i], start[i + 1])])
            inv = pow(col[row], -1, field)
            return col if inv == 1 else {r: c * inv % field for r, c in col.items()}

    for degree in (np.flatnonzero(np.bincount(degrees)[1:]) + 1).tolist():
        unpaired = np.flatnonzero((degrees == degree) & ~cleared)[::-1]
        # A cell without nonzero coboundary terms has a zero column.
        has_cofaces = start[unpaired + 1] > start[unpaired]
        apparent = latest_face[earliest[unpaired]] == unpaired
        paired = unpaired[has_cofaces & ~apparent]
        bounds = zip(start[paired].tolist(), start[paired + 1].tolist())
        columns = fields.sparse_columns(rows, coefs, bounds)
        reduced = fields.reduce_columns(columns, field, _ApparentPivots(apparent_column))
        killers = np.fromiter((-1 if piv is None else n - 1 - piv for piv, _, _ in reduced), np.int64, len(paired))
        zero = unpaired[~has_cofaces]
        born.append(np.concatenate([zero, unpaired[apparent], paired]))
        dies.append(np.concatenate([np.full(len(zero), -1), earliest[unpaired[apparent]], killers]))
        cleared[dies[-1][dies[-1] >= 0]] = True
    del rows, coefs, start, earliest, latest_face, cleared  # before the bars are assembled
    born, dies = np.concatenate(born), np.concatenate(dies)
    birth = values[born]
    death = np.where(dies >= 0, values[dies], math.inf)
    keep = (dies < 0) | (birth != death) | include_zero_bars
    return Barcode.from_columns(degrees[born][keep], birth[keep], death[keep])


def _boundary_terms(K: SimplicialComplex, start, sign: int = 1) -> list[np.ndarray]:
    """The (face, coface, coefficient) terms of K's boundary, row i of layer
    k being cell start[k] + i; deleting vertex j has sign * (-1)^j."""
    terms = [(np.zeros(0, dtype=np.int64),) * 3]
    for k, facets in enumerate(K._faces[1:], start=1):
        faces, cofaces, signs = _facet_terms(facets, start[k], sign)
        terms.append((start[k - 1] + faces, cofaces, signs))
    return [np.concatenate(t) for t in zip(*terms)]


def compute_barcode(fc: FilteredComplex, field: int = 2, include_zero_bars: bool = False) -> Barcode:
    """Barcode of a filtration, a simplex's degree being its dimension, by
    union-find in degree 0 and the coboundary reduction with clearing
    above (``_filtration_barcode``). The coboundary terms come from
    the complex's facet positions. Zero-length bars are dropped unless
    include_zero_bars is set.
    """
    sizes = [len(v) for v in fc._vals]
    return _filtration_barcode(  # no name here holds the arrays, so the routine frees each once converted
        np.concatenate(fc._vals or [np.zeros(0)]), np.repeat(np.arange(len(sizes)), sizes), fc._order,
        _boundary_terms(fc._complex, np.cumsum([0] + sizes)), field, include_zero_bars)
