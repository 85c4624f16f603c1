"""Leray cosheaves of a real-valued vertex function over an interval cover.

One path computes everything: preimage pieces, their boundaries (each
reduced once), a cosheaf per degree and the nerve formula. Pieces are full
subcomplexes on the vertices whose value lands in a nerve simplex's
interval, cut from the complex's arrays by a vertex mask; the
per-simplex granularity precondition (every simplex's value range inside
one piece) makes them a simplexwise cover. F_i has stalks H_i(piece) and
maps induced by inclusions, which are masks of positions, and for a
linear nerve N

    dim H_i(K) = dim H_0(N; F_i) + dim H_1(N; F_{i-1}),

which :func:`leray_formula` evaluates. Sublevel persistence is one
filtered coboundary reduction, with clearing, of the pieces' blowup
(total) chain complex, whose cells and terms are the pieces' arrays,
through the pairing routine of ``compute_barcode``. The formula on the
pieces of K<=t cross-checks it at every threshold t, from one
value-ordered reduction of each piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from . import fields
from .complexes import IntervalCover, Simplex, SimplicialComplex, _lookup, nerve_of_interval_cover
from .cosheaf import SimplicialCosheaf, _quotients as _cosheaf_quotients
from .errors import CoverGranularityError, InternalInconsistencyError, MissingVertexValueError
from .homology import _boundary, _check_degree, _quotients
from .persistence import Barcode, _boundary_terms, _filtration_barcode
from .zigzag import ExplicitModule


@dataclass
class MappedComplex:
    """A complex together with a real value per vertex."""

    complex: SimplicialComplex
    values: dict[int, float]

    def __init__(self, complex: SimplicialComplex, values: Mapping[int, float]):
        self.complex = complex
        self.values = {int(v): float(x) for v, x in values.items()}
        for v in complex.vertices():
            if v not in self.values:
                raise MissingVertexValueError(f"vertex {v} has no value")


def _vertex_values(M: MappedComplex, K: SimplicialComplex) -> np.ndarray:
    """The value of each vertex of K (a subcomplex of M's), in vertex order."""
    return np.array([M.values[v] for v in K.vertices()], dtype=float)


def preimage_subcomplex(M: MappedComplex, interval: Sequence[float]) -> SimplicialComplex:
    """Full subcomplex on the vertices whose value lies in the open interval."""
    lo, hi = float(interval[0]), float(interval[1])
    f = _vertex_values(M, M.complex)
    return M.complex._full((lo < f) & (f < hi))


def check_cover_granularity(M: MappedComplex, cover: IntervalCover) -> None:
    """Every simplex's vertex-value range must fit inside one cover piece.

    A simplex's range is that of its vertex or of the edge between its
    lowest- and highest-valued vertices, a face listed before it, so
    scanning dimensions in order names a vertex or edge first.
    """
    K, (lo, hi) = M.complex, np.array(cover.intervals).reshape(-1, 2).T
    f = _vertex_values(M, K)
    for p, (vmin, vmax) in enumerate(zip(K._fold(f, np.minimum), K._fold(f, np.maximum))):
        bad = np.flatnonzero(~((lo < vmin[:, None]) & (vmax[:, None] < hi)).any(axis=1))
        if len(bad):
            s, i = K.p_simplices(p)[bad[0]], bad[0]
            raise CoverGranularityError(
                f"simplex {s} has value range [{vmin[i]}, {vmax[i]}] inside no cover interval"
            )


def _leray_pieces(M: MappedComplex, cover: IntervalCover) -> dict[Simplex, SimplicialComplex]:
    """Preimage subcomplex per nerve simplex of the cover: each interval,
    then each overlap of consecutive intervals. The cover's granularity is
    checked first."""
    check_cover_granularity(M, cover)
    pieces = {(i,): preimage_subcomplex(M, iv) for i, iv in enumerate(cover.intervals)}
    for i in range(len(cover) - 1):
        overlap = cover.overlap(i)
        if overlap is not None:
            pieces[(i, i + 1)] = preimage_subcomplex(M, overlap)
    return pieces


def _inclusion(sub: SimplicialComplex, sup: SimplicialComplex) -> list[np.ndarray]:
    """Per dimension, which simplices of sup lie in sub, the full subcomplex
    of sup on its vertices (as every smaller Leray piece is of a larger)."""
    return sup._fold(_lookup(sub._layer(0)[0][:, 0], sup._layer(0)[0][:, 0]) >= 0, np.minimum)


def _push(columns: list[dict], to_sup: list[int]) -> list[dict]:
    """Sparse columns over the simplices of a piece, row r re-keyed to to_sup[r]."""
    return [{to_sup[r]: c for r, c in col.items()} for col in columns]


def _leray_cosheaves(
    cover: IntervalCover, pieces: dict[Simplex, SimplicialComplex], degrees: range, field: int
) -> list[tuple[SimplicialCosheaf, dict[Simplex, fields.Quotient]]]:
    """(F_i over the cover's nerve, each piece's H_i) for each degree i in
    ``degrees``; each piece's boundaries are reduced in one sweep."""
    nerve = nerve_of_interval_cover(cover)
    homology = {ns: _quotients(P, degrees, field) for ns, P in pieces.items()}
    maps: list[dict] = [{} for _ in degrees]
    for edge in nerve.p_simplices(1):
        for vertex in ((edge[0],), (edge[1],)):
            keep = _inclusion(pieces[edge], pieces[vertex])
            for k, (i, sub, sup) in enumerate(zip(degrees, homology[edge], homology[vertex])):
                to_sup = np.flatnonzero(keep[i]).tolist() if sub.dimension else []
                pushed = fields.ColumnMatrix(sup.basis.n_rows, _push(sub.basis.cols, to_sup))
                maps[k][(vertex, edge)] = sup.coordinates(pushed)
    out = []
    for k, degree_maps in enumerate(maps):
        quotients = {ns: qs[k] for ns, qs in homology.items()}
        stalks = {ns: q.dimension for ns, q in quotients.items()}
        out.append((SimplicialCosheaf(base=nerve, stalks=stalks, maps=degree_maps), quotients))
    return out


def leray_formula(
    top: SimplicialCosheaf, below: SimplicialCosheaf | None, field: int
) -> int:
    """dim H_0(N; top) + dim H_1(N; below) over the shared nerve N.

    With top = F_i and below = F_{i-1} (None for i = 0, where F_{-1} = 0)
    this is dim H_i of the complex the pieces cover.
    """
    total = _cosheaf_quotients(top, range(0, 1), field)[0].dimension
    if below is not None:
        total += _cosheaf_quotients(below, range(1, 2), field)[0].dimension
    return total


def _value_ordered(M: MappedComplex, P: SimplicialComplex, degrees: range, ts: np.ndarray, field: int):
    """Per degree, the stored columns, births and deaths of the bars of P in
    value order alive at some t in ts, and the pivot table, each such bar's
    entry tracked by its index; then the value orders and their inverses."""
    values = P._fold(_vertex_values(M, P), np.maximum)
    order = [np.argsort(v, kind="stable") for v in values]  # ties stay lexicographic
    rank = [np.argsort(o) for o in order]
    span = range(degrees.start, degrees.stop + 1)
    facets = [rank[k - 1][P._layer(k)[1][order[k]]] if 0 < k <= P.dimension else None for k in span]
    boundaries = [_boundary(P, k, field, x) for k, x in zip(span, facets)]
    ordered = [v[o].tolist() for v, o in zip(values, order)] + [[]] * span.stop
    bars = []
    for k, q in zip(degrees, fields.quotients(boundaries, field)):
        rows = sorted(q._pivots)
        births = np.array([ordered[k][j] for j in rows])
        deaths = np.array([ordered[k + 1][q._paired[j]] if j in q._paired else np.inf for j in rows])
        live = np.searchsorted(ts, births) < np.searchsorted(ts, deaths)
        units = {j: {i: 1} for i, j in enumerate(compress(rows, live))}
        table = {j: (col, units.get(j)) for j, (col, _) in q._pivots.items()}
        bars.append(([table[j][0] for j in units], births[live], deaths[live], table))
    return bars, order, rank


def _sublevel_formulas(
    M: MappedComplex, cover: IntervalCover, pieces: dict, degree: int, ts: list[float], field: int
) -> list[int]:
    """The nerve formula on the pieces of K<=t at each t of ts (see :func:`sublevel_module`)."""
    nerve, ts = nerve_of_interval_cover(cover), np.array(ts)
    degrees = range(max(degree - 1, 0), degree + 1)
    data = {ns: _value_ordered(M, P, degrees, ts, field) for ns, P in pieces.items()}
    coords: list[dict] = [{} for _ in degrees]
    for edge in nerve.p_simplices(1):
        for vertex in ((edge[0],), (edge[1],)):
            keep = _inclusion(pieces[edge], pieces[vertex])
            (sub, order, _), (sup, _, rank) = data[edge], data[vertex]
            for k, i in enumerate(degrees):
                to_sup = rank[i][np.flatnonzero(keep[i])[order[i]]].tolist() if sub[k][0] else []
                pushed = _push(sub[k][0], to_sup)
                X = fields._coordinates(pushed, sup[k][3], len(sup[k][0]), field)
                if X is None:
                    raise InternalInconsistencyError(f"a class of {edge} is no cycle in {vertex}")
                coords[k][(vertex, edge)] = X

    def cosheaf(k: int, t: float) -> SimplicialCosheaf:  # F_{degrees[k]} on the pieces of K<=t
        alive = {ns: (bars[k][1] <= t) & (t < bars[k][2]) for ns, (bars, _, _) in data.items()}
        maps = {(v, e): C[np.ix_(alive[v], alive[e])] for (v, e), C in coords[k].items()}
        return SimplicialCosheaf(nerve, {ns: int(a.sum()) for ns, a in alive.items()}, maps)

    return [leray_formula(cosheaf(-1, t), cosheaf(0, t) if degree > 0 else None, field) for t in ts]


@dataclass
class LerayCosheaf:
    """A Leray cosheaf over the nerve of an interval cover, keeping the
    preimage pieces and their homology bookkeeping so extension maps and
    stalk classes stay interpretable."""

    cosheaf: SimplicialCosheaf
    degree: int
    field: int
    cover: IntervalCover
    pieces: dict[Simplex, SimplicialComplex]
    piece_homology: dict[Simplex, fields.Quotient]


def build_leray_cosheaf(
    M: MappedComplex, cover: IntervalCover, degree: int, field: int = 2
) -> LerayCosheaf:
    """Stalk H_degree(preimage) per nerve simplex, inclusion-induced maps."""
    _check_degree(degree, field)
    pieces = _leray_pieces(M, cover)
    [(cosheaf, quotients)] = _leray_cosheaves(cover, pieces, range(degree, degree + 1), field)
    return LerayCosheaf(cosheaf, degree, field, cover, pieces, quotients)


def global_homology(M: MappedComplex, cover: IntervalCover, degree: int, field: int = 2) -> int:
    """dim H_0(N; F_degree) + dim H_1(N; F_{degree-1}), with F_{-1} = 0.

    For an admissible cover this equals dim H_degree of the complex.
    """
    _check_degree(degree, field)
    degrees = range(max(degree - 1, 0), degree + 1)
    cosheaves = [F for F, _ in _leray_cosheaves(cover, _leray_pieces(M, cover), degrees, field)]
    return leray_formula(cosheaves[-1], cosheaves[0] if degree > 0 else None, field)


def sublevel_barcode(M: MappedComplex, cover: IntervalCover, field: int = 2) -> Barcode:
    """Sublevel-set persistence of f in every degree, from level data.

    The blowup cells (ns, tau) with max f over tau <= t are those of the
    pieces of the sublevel complex K<=t, so one filtration of the blowup
    complex has each threshold's blowup as a sublevel complex. Cells of
    total degree dim tau + dim ns are ordered by (value, degree, cell),
    faces and inclusion images first, and paired by reducing the
    coboundary of that order with clearing, as ``compute_barcode`` does.
    Bars are half-open; zero-length ones are dropped.
    """
    return _blowup_barcode(M, _leray_pieces(M, cover), field)


def _blowup_barcode(M: MappedComplex, pieces: dict[Simplex, SimplicialComplex], field: int) -> Barcode:
    """``sublevel_barcode`` on the given pieces, numbering cells piece by
    piece in nerve order, then by dimension and row. A piece on a nerve
    edge (a, b) has its boundary negated and maps into b's and a's pieces
    with signs +1 and -1."""
    nerve, start, n = sorted(pieces), {}, 0
    values, degrees = [np.zeros(0)], [np.zeros(0, dtype=np.int64)]
    for ns in nerve:
        maxima = pieces[ns]._fold(_vertex_values(M, pieces[ns]), np.maximum)
        start[ns] = n + np.cumsum([0] + [len(vals) for vals in maxima])
        n = start[ns][-1]
        values += maxima
        degrees += [np.full(len(vals), len(ns) - 1 + k) for k, vals in enumerate(maxima)]

    def blocks():  # the (face, coface, coefficient) term arrays, block by block
        yield [np.zeros(0, dtype=np.int64)] * 3
        for ns in nerve:
            yield _boundary_terms(pieces[ns], start[ns], 1 if len(ns) == 1 else -1)
        for ns in (ns for ns in nerve if len(ns) == 2):
            for end, c in (((ns[1],), 1), ((ns[0],), -1)):
                for k, keep in enumerate(_inclusion(pieces[ns], pieces[end])[: pieces[ns].dimension + 1]):
                    cofaces = start[ns][k] + np.arange(np.count_nonzero(keep))
                    yield [start[end][k] + np.flatnonzero(keep), cofaces, np.full(len(cofaces), c)]

    values, degrees = np.concatenate(values), np.concatenate(degrees)
    # lexsort is stable, so ties in (value, degree) keep the cell order. No
    # name holds the terms, so the routine frees each array once converted.
    order = np.lexsort((degrees, values))
    return _filtration_barcode(values, degrees, order, [np.concatenate(t) for t in zip(*blocks())], field)


def sublevel_module(
    M: MappedComplex,
    cover: IntervalCover,
    degree: int,
    thresholds: Sequence[float],
    field: int = 2,
) -> ExplicitModule:
    """Sublevel-set persistence in one degree, recovered from level data.

    Dims and maps are read off :func:`sublevel_barcode`, the one filtered
    blowup reduction; each map is the 0/1 matrix sending a bar alive at
    one threshold to itself at the next, if it is still alive. At every
    threshold t the nerve formula dim H_0(N; F_degree) + dim H_1(N;
    F_{degree-1}) on the pieces of K<=t is asserted against the dimension.
    Each piece P, its simplices in value order so that P<=t is a prefix,
    is swept once. Its stored row j of degree k is the bar [v_k(j),
    v_{k+1}(c)) if column c of d_{k+1} has pivot j, else [v_k(j), inf);
    the stored column, on rows up to j, is a cycle of P<=v_k(j). So the
    bars born by t span Z_k(P<=t) and those dead by t span B_k(P<=t), and
    a cycle of P<=t reduced against the whole table (rows of value <= t
    only) has its class's coordinates on the bars alive at t: F_k at t is
    those bars and the submatrices of the edge-piece bars' coordinates in
    the vertex pieces.
    """
    _check_degree(degree, field)
    ts = [float(t) for t in thresholds]
    if not ts:
        raise ValueError("need at least one threshold")
    if not all(math.isfinite(t) for t in ts):
        raise ValueError("thresholds must be finite")
    if any(not a < b for a, b in zip(ts, ts[1:])):
        raise ValueError(f"thresholds must be strictly increasing, got {ts}")
    pieces = _leray_pieces(M, cover)
    bc = _blowup_barcode(M, pieces, field)
    alive = [np.flatnonzero(bc._containing(t, t, degree)) for t in ts]
    dims = [len(bars) for bars in alive]
    for t, dim, formula in zip(ts, dims, _sublevel_formulas(M, cover, pieces, degree, ts, field)):
        if formula != dim:
            raise InternalInconsistencyError(
                f"cosheaf formula gives {formula} at t={t}, blowup complex gives {dim}"
            )
    maps = []
    for before, now in zip(alive, alive[1:]):  # a bar dead by the later threshold maps to zero
        row = {bar: i for i, bar in enumerate(now.tolist())}
        cols = [{row[bar]: 1} if bar in row else {} for bar in before.tolist()]
        maps.append(fields.ColumnMatrix(len(now), cols).dense())
    return ExplicitModule(dims=dims, maps=maps)
