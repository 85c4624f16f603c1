"""Filtrations, the persistence reduction algorithm, and barcodes.

Barcodes come from one pairing routine: it reduces the anti-transposed
coboundary (persistent cohomology) degree by degree with clearing, which
gives the same pairs as reducing the boundary. Filtration barcodes use
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

from . import fields
from .complexes import (
    Simplex,
    SimplicialComplex,
    _cech_entries,
    _rips_entries,
    simplex,
    squared_distance_matrix,
)
from .errors import MissingVertexValueError, TdaError
from .homology import simplex_faces


@dataclass(frozen=True)
class Bar:
    """A bar: half-open [birth, death) for filtrations, closed [birth,
    death] integer grades for module decompositions (degree None)."""

    degree: int | None
    birth: float
    death: float

    def __post_init__(self):
        if not math.isfinite(self.birth):
            raise TdaError(f"bar birth must be finite, got {self.birth}")
        if self.death < self.birth:
            raise TdaError(f"bar death {self.death} precedes birth {self.birth}")

    @property
    def infinite(self) -> bool:
        return math.isinf(self.death)


def _bar_key(bar: Bar):
    return (bar.degree is None, -1 if bar.degree is None else bar.degree, bar.birth, bar.death)


class Barcode:
    """A multiset of bars, kept in canonical (degree, birth, death) order."""

    def __init__(self, bars: Iterable[Bar] = ()):
        self._bars = tuple(sorted(bars, key=_bar_key))

    @property
    def bars(self) -> tuple[Bar, ...]:
        return self._bars

    def in_degree(self, degree: int | None) -> list[Bar]:
        return [b for b in self._bars if b.degree == degree]

    def alive_at(self, t: float, degree: int | None = None) -> int:
        """Number of bars with birth <= t < death (optionally one degree)."""
        return sum(
            1
            for b in self._bars
            if (degree is None or b.degree == degree) and b.birth <= t < b.death
        )

    def rank(self, r: float, s: float, degree: int | None = None) -> int:
        """Number of bars containing [r, s]; equals rank of the map r -> s."""
        if s < r:
            raise ValueError(f"need r <= s, got {r} > {s}")
        return sum(
            1
            for b in self._bars
            if (degree is None or b.degree == degree) and b.birth <= r and b.death > s
        )

    def counter(self) -> Counter:
        return Counter((b.degree, b.birth, b.death) for b in self._bars)

    def __len__(self) -> int:
        return len(self._bars)

    def __iter__(self):
        return iter(self._bars)

    def __eq__(self, other) -> bool:
        return isinstance(other, Barcode) and self._bars == other._bars

    def __repr__(self) -> str:
        return f"Barcode({len(self._bars)} bars)"


def barcode_to_diagram(bc: Barcode) -> list[tuple[float, float]]:
    """One planar point (birth, death) per bar; +inf marks infinite death."""
    return sorted((b.birth, b.death) for b in bc)


class FilteredComplex:
    """Simplices paired with monotone appearance values.

    Entries are sorted by (value, dimension, lexicographic vertex order);
    the underlying simplex set must be face-closed and every face must
    appear no later than its cofaces.
    """

    def __init__(self, entries: Iterable[tuple[Sequence[int], float]]):
        pairs = [(simplex(s), float(v)) for s, v in entries]
        seen = {s for s, _ in pairs}
        if len(seen) != len(pairs):
            raise TdaError("duplicate simplex in filtration")
        values = dict(pairs)
        for s, v in pairs:
            for k in range(len(s)):
                face = s[:k] + s[k + 1 :]
                if not face:
                    continue
                if face not in values:
                    raise TdaError(f"filtration is not face-closed: missing {face}")
                if values[face] > v:
                    raise TdaError(
                        f"filtration not monotone: value({face}) > value({s})"
                    )
        self.entries: list[tuple[Simplex, float]] = sorted(
            pairs, key=lambda e: (e[1], len(e[0]), e[0])
        )

    def values(self) -> dict[Simplex, float]:
        return dict(self.entries)

    def grades(self) -> list[float]:
        return sorted({v for _, v in self.entries})

    def complex_at(self, t: float) -> SimplicialComplex:
        return SimplicialComplex([s for s, v in self.entries if v <= t], _closed=True)

    def underlying_complex(self) -> SimplicialComplex:
        return SimplicialComplex([s for s, _ in self.entries], _closed=True)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def rips_filtration(
    data,
    max_dim: int = 2,
    max_radius: float = math.inf,
    precomputed: bool | None = None,
) -> FilteredComplex:
    """Rips filtration: each simplex appears at half its diameter."""
    D2 = squared_distance_matrix(data, precomputed)
    return FilteredComplex(_rips_entries(D2, max_dim, max_radius))


def cech_filtration(
    points, max_dim: int = 2, max_radius: float = math.inf
) -> FilteredComplex:
    """Čech filtration: each simplex appears at its minimum enclosing ball
    radius, which is exactly the smallest r whose closed balls intersect."""
    return FilteredComplex(_cech_entries(points, max_dim, max_radius))


def lower_star_filtration(K: SimplicialComplex, vertex_values: Mapping[int, float]) -> FilteredComplex:
    """Each simplex appears at the max of its vertices' values, so the
    sublevel complex at t is the full subcomplex on {v : f(v) <= t}."""
    for v in K.vertices():
        if v not in vertex_values:
            raise MissingVertexValueError(f"vertex {v} has no value")
    return FilteredComplex(
        (s, max(vertex_values[v] for v in s)) for s in K.simplices
    )


def superlevel_filtration(K: SimplicialComplex, vertex_values: Mapping[int, float]) -> FilteredComplex:
    """Superlevel filtration, encoded as the lower-star filtration of -f.

    A grade g in the result corresponds to the superlevel threshold
    t = -g; negate grades back when reporting in terms of f.
    """
    negated = {v: -float(x) for v, x in vertex_values.items()}
    return lower_star_filtration(K, negated)


def _coboundary(cells, faces) -> dict[int, list]:
    """Coboundary terms of each cell that has cofaces, keyed by its index,
    as (row, integer coefficient) pairs over rows in reverse filtration
    order, so a column's largest row is its earliest coface."""
    index = {cell: i for i, cell in enumerate(cells)}
    terms: dict[int, list] = {}
    for row, cell in enumerate(reversed(cells)):
        for face, c in faces(cell):
            terms.setdefault(index[face], []).append((row, c))
    return terms


def _filtration_barcode(cells, values, degrees, faces, field: int, include_zero_bars: bool = False) -> Barcode:
    """Barcode of cells ordered as a filtration (``faces`` of a cell come
    earlier), with their values and degrees. Coboundary columns are
    reduced degree by degree from low to high, each degree in decreasing
    filtration order, skipping the cells already paired one degree down
    (clearing). The column of cell i with the pivot row of cell j yields
    the bar [value_i, value_j) in degree_i; a zero column yields an
    infinite bar."""
    fields.check_prime(field)
    n = len(cells)
    terms = _coboundary(cells, faces)
    cleared: set[int] = set()
    bars: list[Bar] = []
    for degree in sorted(set(degrees)):
        unpaired = [i for i in reversed(range(n)) if degrees[i] == degree and i not in cleared]
        # A cell without cofaces has a zero column; the others' terms are
        # freed as they are reduced.
        bars += [Bar(degree=degree, birth=values[i], death=math.inf) for i in unpaired if i not in terms]
        order = [i for i in unpaired if i in terms]
        columns = (fields.sparse_column(terms.pop(i), field) for i in order)
        for i, (row, _, _) in zip(order, fields.reduce_columns(columns, field)):
            if row is None:
                bars.append(Bar(degree=degree, birth=values[i], death=math.inf))
                continue
            j = n - 1 - row
            cleared.add(j)
            if values[i] != values[j] or include_zero_bars:
                bars.append(Bar(degree=degree, birth=values[i], death=values[j]))
    return Barcode(bars)


def compute_barcode(fc: FilteredComplex, field: int = 2, include_zero_bars: bool = False) -> Barcode:
    """Barcode of a filtration, a simplex's degree being its dimension, by
    the coboundary reduction with clearing. Zero-length bars are dropped
    unless include_zero_bars is set.
    """
    simplices = [s for s, _ in fc.entries]
    degrees = [len(s) - 1 for s in simplices]
    values = [v for _, v in fc.entries]
    return _filtration_barcode(simplices, values, degrees, simplex_faces, field, include_zero_bars)
