"""Leray cosheaves of a real-valued vertex function over an interval cover.

One path computes everything: preimage pieces, then one cosheaf per
degree, then the nerve formula. Pieces are full subcomplexes on the
vertices whose value lands in a nerve simplex's interval; the
per-simplex granularity precondition (every simplex's value range inside
some single piece) makes them a simplexwise cover. F_i has stalks
H_i(piece) and inclusion-induced maps, and for a linear nerve N

    dim H_i(K) = dim H_0(N; F_i) + dim H_1(N; F_{i-1}),

which :func:`leray_formula` evaluates. Sublevel restriction clips every
piece at a threshold. Maps between thresholds come from the blowup
(total) chain complex of the clipped pieces, whose honest chain
inclusions give exact ranks; the formula cross-checks its dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .homology import homology_quotient
from .persistence import ExplicitModule


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


def _preimage(M: MappedComplex, lo: float, hi: float, clip: float | None = None) -> SimplicialComplex:
    keep = [
        v
        for v in M.complex.vertices()
        if lo < M.values[v] < hi and (clip is None or M.values[v] <= clip)
    ]
    return M.complex.full_subcomplex(keep)


def preimage_subcomplex(M: MappedComplex, interval: Sequence[float]) -> SimplicialComplex:
    """Full subcomplex on the vertices whose value lies in the open interval."""
    lo, hi = float(interval[0]), float(interval[1])
    return _preimage(M, lo, hi)


def check_cover_granularity(M: MappedComplex, cover: IntervalCover) -> None:
    """Every simplex's vertex-value range must fit inside one cover piece."""
    for s in sorted(M.complex.simplices, key=lambda s: (len(s), s)):
        vmin = min(M.values[v] for v in s)
        vmax = max(M.values[v] for v in s)
        if not any(lo < vmin and vmax < hi for lo, hi in cover.intervals):
            raise CoverGranularityError(
                f"simplex {s} has value range [{vmin}, {vmax}] inside no cover interval"
            )


def _leray_pieces(
    M: MappedComplex, cover: IntervalCover, clip: float | None = None
) -> dict[Simplex, SimplicialComplex]:
    """Preimage subcomplex per nerve simplex of the (clipped) cover.

    Pieces whose clipped interval is empty are dropped; the remaining
    nerve is still a disjoint union of paths.
    """
    pieces: dict[Simplex, SimplicialComplex] = {}
    kept = [
        i
        for i in range(len(cover))
        if clip is None or cover.intervals[i][0] < clip
    ]
    for i in kept:
        lo, hi = cover.intervals[i]
        pieces[(i,)] = _preimage(M, lo, hi, clip)
    for i in kept:
        if i + 1 not in kept:
            continue
        overlap = cover.overlap(i)
        if overlap is None:
            continue
        if clip is not None and overlap[0] >= clip:
            continue
        pieces[(i, i + 1)] = _preimage(M, overlap[0], overlap[1], clip)
    return pieces


def _inclusion_matrix(sub: Sequence, sup: Sequence) -> np.ndarray:
    """0/1 matrix sending each basis element of ``sub`` to the same
    element of ``sup``, which must contain it."""
    idx = {key: i for i, key in enumerate(sup)}
    A = np.zeros((len(sup), len(sub)), dtype=np.int64)
    for j, key in enumerate(sub):
        A[idx[key], j] = 1
    return A


def _leray_cosheaf_data(
    pieces: dict[Simplex, SimplicialComplex], degree: int, field: int
) -> tuple[SimplicialCosheaf, dict[Simplex, fields.Quotient]]:
    """F_degree over the nerve of the pieces, with each piece's homology."""
    nerve = SimplicialComplex(pieces.keys(), _closed=True)
    quotients = {ns: homology_quotient(P, degree, field) for ns, P in pieces.items()}
    stalks = {ns: quotients[ns].dimension for ns in pieces}
    maps = {}
    for edge in nerve.p_simplices(1):
        for vertex in ((edge[0],), (edge[1],)):
            incl = _inclusion_matrix(
                pieces[edge].p_simplices(degree), pieces[vertex].p_simplices(degree)
            )
            pushed = fields.matmul(incl, quotients[edge].representatives, field)
            maps[(vertex, edge)] = quotients[vertex].coordinates(pushed)
    return SimplicialCosheaf(base=nerve, stalks=stalks, maps=maps), quotients


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


def _formula_on_pieces(
    pieces: dict[Simplex, SimplicialComplex], degree: int, field: int
) -> int:
    top, _ = _leray_cosheaf_data(pieces, degree, field)
    below = _leray_cosheaf_data(pieces, degree - 1, field)[0] if degree > 0 else None
    return leray_formula(top, below, field)


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
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    fields.check_prime(field)
    check_cover_granularity(M, cover)
    pieces = _leray_pieces(M, cover)
    cosheaf, quotients = _leray_cosheaf_data(pieces, degree, field)
    return LerayCosheaf(
        cosheaf=cosheaf,
        degree=degree,
        field=field,
        cover=cover,
        pieces=pieces,
        piece_homology=quotients,
    )


def global_homology(M: MappedComplex, cover: IntervalCover, degree: int, field: int = 2) -> int:
    """dim H_0(N; F_degree) + dim H_1(N; F_{degree-1}), with F_{-1} = 0.

    For an admissible cover this equals dim H_degree of the complex.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    fields.check_prime(field)
    check_cover_granularity(M, cover)
    return _formula_on_pieces(_leray_pieces(M, cover), degree, field)


def _tot_basis(pieces: dict[Simplex, SimplicialComplex], n: int):
    basis = []
    for ns in sorted(pieces, key=lambda s: (len(s), s)):
        q = n if len(ns) == 1 else n - 1
        if q < 0:
            continue
        for s in pieces[ns].p_simplices(q):
            basis.append((ns, s))
    return basis


def _tot_boundary(pieces: dict[Simplex, SimplicialComplex], n: int, field: int) -> np.ndarray:
    """Differential of the cover's blowup complex in total degree n.

    Vertex blocks carry the simplicial boundary; edge blocks additionally
    map by signed chain inclusions into their two endpoint pieces, and
    their internal boundary is negated so the square is zero.
    """
    rows = _tot_basis(pieces, n - 1)
    cols = _tot_basis(pieces, n)
    idx = {key: i for i, key in enumerate(rows)}
    D = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, (ns, tau) in enumerate(cols):
        vertical_sign = 1 if len(ns) == 1 else -1
        for k in range(len(tau)):
            face = tau[:k] + tau[k + 1 :]
            if face:
                D[idx[(ns, face)], j] += vertical_sign * (-1) ** k
        if len(ns) == 2:
            D[idx[((ns[1],), tau)], j] += 1
            D[idx[((ns[0],), tau)], j] -= 1
    return D % field


def sublevel_module(
    M: MappedComplex,
    cover: IntervalCover,
    degree: int,
    thresholds: Sequence[float],
    field: int = 2,
) -> ExplicitModule:
    """Sublevel-set persistence in one degree, recovered from level data.

    At each threshold the cover is clipped to (-inf, t], emptied pieces
    drop out, and the value is dim H_0(N; F_degree|) + dim H_1(N;
    F_{degree-1}|). Connecting maps come from the chain inclusions of the
    clipped blowup complexes, the functorial route, and the direct-sum
    formula is asserted against the blowup dimension at every threshold.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    fields.check_prime(field)
    ts = [float(t) for t in thresholds]
    if not ts:
        raise ValueError("need at least one threshold")
    if any(not a < b for a, b in zip(ts, ts[1:])):
        raise ValueError(f"thresholds must be strictly increasing, got {ts}")
    if not all(math.isfinite(t) for t in ts):
        raise ValueError("thresholds must be finite")
    check_cover_granularity(M, cover)

    dims: list[int] = []
    maps: list[np.ndarray] = []
    prev_basis = prev_quot = None
    for t in ts:
        pieces = _leray_pieces(M, cover, clip=t)
        quot = fields.Quotient(
            _tot_boundary(pieces, degree, field),
            _tot_boundary(pieces, degree + 1, field),
            field,
        )
        formula = _formula_on_pieces(pieces, degree, field)
        if formula != quot.dimension:
            raise InternalInconsistencyError(
                f"cosheaf formula gives {formula} at t={t}, blowup complex gives {quot.dimension}"
            )
        basis = _tot_basis(pieces, degree)
        if prev_quot is not None:
            pushed = fields.matmul(
                _inclusion_matrix(prev_basis, basis), prev_quot.representatives, field
            )
            maps.append(quot.coordinates(pushed))
        dims.append(quot.dimension)
        prev_basis, prev_quot = basis, quot
    return ExplicitModule(dims=dims, maps=maps)
