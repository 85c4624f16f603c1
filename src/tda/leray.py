"""Leray cosheaves of a real-valued vertex function over an interval cover.

One path computes everything: preimage pieces, their boundaries (built
once), a cosheaf per degree and the nerve formula. Pieces are full
subcomplexes on the vertices whose value lands in a nerve simplex's
interval; the per-simplex granularity precondition (every simplex's
value range inside one piece) makes them a simplexwise cover. F_i has
stalks H_i(piece) and inclusion-induced maps, and for a linear nerve N

    dim H_i(K) = dim H_0(N; F_i) + dim H_1(N; F_{i-1}),

which :func:`leray_formula` evaluates. Sublevel persistence is one
filtered coboundary reduction, with clearing, of the pieces' blowup
(total) chain complex, through the pairing routine of
``compute_barcode``; the formula, on the pieces restricted to f <= t
(those of the sublevel complex) at each threshold t, cross-checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from . import fields
from .complexes import IntervalCover, Simplex, SimplicialComplex
from .cosheaf import SimplicialCosheaf, cosheaf_homology
from .errors import (
    CoverGranularityError,
    InternalInconsistencyError,
    MissingVertexValueError,
)
from .homology import _boundary, _check_degree, chain_boundary, simplex_faces
from .persistence import Barcode, _filtration_barcode
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


def preimage_subcomplex(M: MappedComplex, interval: Sequence[float]) -> SimplicialComplex:
    """Full subcomplex on the vertices whose value lies in the open interval."""
    lo, hi = float(interval[0]), float(interval[1])
    return M.complex.full_subcomplex(v for v in M.complex.vertices() if lo < M.values[v] < hi)


def check_cover_granularity(M: MappedComplex, cover: IntervalCover) -> None:
    """Every simplex's vertex-value range must fit inside one cover piece.

    A simplex's range is that of its vertex or of the edge between its
    lowest- and highest-valued vertices, a face listed before it, so the
    vertices and edges in order name the first offending simplex.
    """
    for s in M.complex.p_simplices(0) + M.complex.p_simplices(1):
        vmin = min(M.values[v] for v in s)
        vmax = max(M.values[v] for v in s)
        if not any(lo < vmin and vmax < hi for lo, hi in cover.intervals):
            raise CoverGranularityError(
                f"simplex {s} has value range [{vmin}, {vmax}] inside no cover interval"
            )


def _leray_pieces(M: MappedComplex, cover: IntervalCover) -> dict[Simplex, SimplicialComplex]:
    """Preimage subcomplex per nerve simplex of the cover: each interval,
    then each overlap of consecutive intervals."""
    pieces = {(i,): preimage_subcomplex(M, iv) for i, iv in enumerate(cover.intervals)}
    for i in range(len(cover) - 1):
        overlap = cover.overlap(i)
        if overlap is not None:
            pieces[(i, i + 1)] = preimage_subcomplex(M, overlap)
    return pieces


def _push(reps: np.ndarray, sub: Sequence, sup: Sequence, field: int) -> fields.ColumnMatrix:
    """Columns over the basis ``sub`` rewritten over its superset ``sup``."""
    inclusion = chain_boundary(sub, sup, lambda key: [(key, 1)], field)
    return inclusion.compose(fields.as_columns(reps, field), field)


def _leray_cosheaves(
    pieces: dict[Simplex, SimplicialComplex], degrees: range, field: int
) -> list[tuple[SimplicialCosheaf, dict[Simplex, fields.Quotient]]]:
    """(F_i over the nerve of the pieces, each piece's H_i) for each degree
    i in ``degrees``; each piece boundary is built once."""
    nerve = SimplicialComplex(pieces.keys(), _closed=True)
    span = range(degrees.start, degrees.stop + 1)
    boundaries = {ns: [_boundary(P, i, field) for i in span] for ns, P in pieces.items()}
    out = []
    for k, degree in enumerate(degrees):
        quotients = {ns: fields.Quotient(d[k], d[k + 1], field) for ns, d in boundaries.items()}
        maps = {}
        for edge in nerve.p_simplices(1):
            for vertex in ((edge[0],), (edge[1],)):
                sub, sup = (pieces[ns].p_simplices(degree) for ns in (edge, vertex))
                pushed = _push(quotients[edge].representatives, sub, sup, field)
                maps[(vertex, edge)] = quotients[vertex].coordinates(pushed)
        stalks = {ns: q.dimension for ns, q in quotients.items()}
        out.append((SimplicialCosheaf(base=nerve, stalks=stalks, maps=maps), quotients))
    return out


def leray_formula(
    top: SimplicialCosheaf, below: SimplicialCosheaf | None, field: int
) -> int:
    """dim H_0(N; top) + dim H_1(N; below) over the shared nerve N.

    With top = F_i and below = F_{i-1} (None for i = 0, where F_{-1} = 0)
    this is dim H_i of the complex the pieces cover.
    """
    total = cosheaf_homology(top, 0, field).dimension
    if below is not None:
        total += cosheaf_homology(below, 1, field).dimension
    return total


def _formula_on_pieces(pieces: dict[Simplex, SimplicialComplex], degree: int, field: int) -> int:
    cosheaves = [F for F, _ in _leray_cosheaves(pieces, range(max(degree - 1, 0), degree + 1), field)]
    return leray_formula(cosheaves[-1], cosheaves[0] if degree > 0 else None, field)


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
    check_cover_granularity(M, cover)
    pieces = _leray_pieces(M, cover)
    [(cosheaf, quotients)] = _leray_cosheaves(pieces, range(degree, degree + 1), field)
    return LerayCosheaf(cosheaf, degree, field, cover, pieces, quotients)


def global_homology(M: MappedComplex, cover: IntervalCover, degree: int, field: int = 2) -> int:
    """dim H_0(N; F_degree) + dim H_1(N; F_{degree-1}), with F_{-1} = 0.

    For an admissible cover this equals dim H_degree of the complex.
    """
    _check_degree(degree, field)
    check_cover_granularity(M, cover)
    return _formula_on_pieces(_leray_pieces(M, cover), degree, field)


def _tot_faces(cell):
    """Boundary of a cell (nerve simplex, simplex) of the cover's blowup
    complex: the simplicial boundary within the piece, negated on edge
    pieces, which also map by signed inclusions into their endpoint pieces."""
    ns, tau = cell
    sign = 1 if len(ns) == 1 else -1
    out = [((ns, face), sign * c) for face, c in simplex_faces(tau)]
    if len(ns) == 2:
        out += [(((ns[1],), tau), 1), (((ns[0],), tau), -1)]
    return out


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
    check_cover_granularity(M, cover)
    value = {tau: max(M.values[v] for v in tau) for tau in M.complex.simplices}
    cells = sorted(
        ((ns, tau) for ns, P in _leray_pieces(M, cover).items() for tau in P.simplices),
        key=lambda c: (value[c[1]], len(c[0]) + len(c[1]), c),
    )
    values = [value[tau] for _, tau in cells]
    degrees = [len(ns) + len(tau) - 2 for ns, tau in cells]
    index = {cell: i for i, cell in enumerate(cells)}
    terms = [(index[face], i, c) for i, cell in enumerate(cells) for face, c in _tot_faces(cell)]
    coboundary = np.fromiter(chain.from_iterable(terms), np.int64, 3 * len(terms)).reshape(-1, 3).T
    return _filtration_barcode(values, degrees, coboundary, field)


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
    F_{degree-1}), on the pieces of the sublevel complex K<=t (the pieces
    of K restricted to f <= t), is asserted against the dimension. A piece
    with no vertex at or below t is empty and adds nothing.
    """
    _check_degree(degree, field)
    ts = [float(t) for t in thresholds]
    if not ts:
        raise ValueError("need at least one threshold")
    if any(not a < b for a, b in zip(ts, ts[1:])):
        raise ValueError(f"thresholds must be strictly increasing, got {ts}")
    if not all(math.isfinite(t) for t in ts):
        raise ValueError("thresholds must be finite")
    bc = sublevel_barcode(M, cover, field)
    dims = [bc.alive_at(t, degree) for t in ts]
    pieces = _leray_pieces(M, cover)
    for t, dim in zip(ts, dims):
        below = {v for v, x in M.values.items() if x <= t}
        sublevel_pieces = {ns: P.full_subcomplex(below) for ns, P in pieces.items()}
        formula = _formula_on_pieces(sublevel_pieces, degree, field)
        if formula != dim:
            raise InternalInconsistencyError(
                f"cosheaf formula gives {formula} at t={t}, blowup complex gives {dim}"
            )
    bars = bc.in_degree(degree)
    alive = [[k for k, b in enumerate(bars) if b.birth <= t < b.death] for t in ts]
    maps = [np.equal.outer(now, before).astype(np.int64) for before, now in zip(alive, alive[1:])]
    return ExplicitModule(dims=dims, maps=maps)
