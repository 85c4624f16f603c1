"""Finite zigzag modules and finite diagrams of vector spaces.

Limits and colimits are computed from the difference map of a diagram;
the generalized rank of a zigzag over a slot interval is the rank of the
canonical map from the limit to the colimit of the restriction, and
interval multiplicities follow by inclusion-exclusion.

``decompose_zigzag`` gets every generalized rank from one left-to-right
sweep per left end b. Extending [b, d] to [b, d+1] changes the limit by
a pullback over slot d when the new arrow points back into d, and the
colimit by a pushout when it points out of d; the other side only
composes with the arrow. So each step costs one kernel of a slot-sized
matrix, and a zigzag of n slots takes O(n²) of them. ``generalized_rank``
is the single-interval definition, kept as the reference the sweep is
tested against. An ordinary persistence module (:class:`ExplicitModule`)
is decomposed as the all-forward zigzag.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Mapping, Sequence

import numpy as np

from . import fields
from .errors import InternalInconsistencyError, TdaError
from .persistence import Bar, Barcode

FORWARD = "fwd"
BACKWARD = "bwd"


@dataclass
class FiniteDiagram:
    """Objects k^{dims[i]} and morphisms (source, target, matrix)."""

    dims: list[int]
    morphisms: list[tuple[int, int, np.ndarray]]

    def __post_init__(self):
        checked = []
        for s, t, M in self.morphisms:
            M = np.asarray(M, dtype=np.int64)
            if not (0 <= s < len(self.dims) and 0 <= t < len(self.dims)):
                raise TdaError(f"morphism endpoints ({s}, {t}) out of range")
            if M.shape != (self.dims[t], self.dims[s]):
                raise TdaError(
                    f"morphism {s}->{t} has shape {M.shape}, "
                    f"expected {(self.dims[t], self.dims[s])}"
                )
            checked.append((s, t, M))
        self.morphisms = checked


def _offsets(dims: Sequence[int]) -> list[int]:
    off = [0]
    for d in dims:
        off.append(off[-1] + d)
    return off


def _difference_kernel(dims, morphisms, field: int) -> tuple[int, list[np.ndarray]]:
    """Kernel of the difference map sending (v_x)_x to (M v_src - v_tgt)
    per morphism (src, tgt, M), cut into one coordinate block per object.

    Takes raw, already-validated data, so colimits can pass the dual
    diagram without building and re-checking a FiniteDiagram.
    """
    off = _offsets(dims)
    Phi = np.zeros((sum(dims[t] for _, t, _ in morphisms), off[-1]), dtype=np.int64)
    r = 0
    for s, t, M in morphisms:
        h = dims[t]
        Phi[r : r + h, off[s] : off[s + 1]] += M
        Phi[r : r + h, off[t] : off[t + 1]] -= np.eye(h, dtype=np.int64)
        r += h
    K = fields.kernel_basis(Phi % field, field)
    return K.shape[1], [K[off[x] : off[x + 1], :] for x in range(len(dims))]


def limit(diagram: FiniteDiagram, field: int = 2) -> tuple[int, list[np.ndarray]]:
    """Limit dimension and projection matrices onto each object.

    Computed as the kernel of the difference map sending (v_x)_x to
    (F(g)(v_src) - v_tgt)_g; projections are coordinate restrictions.
    """
    fields.check_prime(field)
    return _difference_kernel(diagram.dims, diagram.morphisms, field)


def colimit(diagram: FiniteDiagram, field: int = 2) -> tuple[int, list[np.ndarray]]:
    """Colimit dimension and the induced inclusion of each object.

    The colimit is the cokernel of the map collecting, per morphism g and
    vector v, the relation F(g)(v) at the target minus v at the source.
    That map is the transposed difference map of the dual diagram (every
    morphism reversed and transposed), so the inclusions are the
    transposed kernel blocks of the dual.
    """
    fields.check_prime(field)
    dual = [(t, s, M.T) for s, t, M in diagram.morphisms]
    dim, blocks = _difference_kernel(diagram.dims, dual, field)
    return dim, [B.T for B in blocks]


@dataclass
class ZigzagModule:
    """Dims joined by direction-tagged matrices: arrows[i] sits between
    slots i and i+1, pointing i -> i+1 when forward."""

    dims: list[int]
    arrows: list[tuple[str, np.ndarray]]

    def __post_init__(self):
        if len(self.arrows) != max(len(self.dims) - 1, 0):
            raise TdaError(
                f"need {max(len(self.dims) - 1, 0)} arrows for {len(self.dims)} slots, "
                f"got {len(self.arrows)}"
            )
        checked = []
        for i, (direction, M) in enumerate(self.arrows):
            if direction not in (FORWARD, BACKWARD):
                raise TdaError(f"arrow direction must be '{FORWARD}' or '{BACKWARD}'")
            M = np.asarray(M, dtype=np.int64)
            expected = (
                (self.dims[i + 1], self.dims[i])
                if direction == FORWARD
                else (self.dims[i], self.dims[i + 1])
            )
            if M.shape != expected:
                raise TdaError(f"arrow {i} has shape {M.shape}, expected {expected}")
            checked.append((direction, M))
        self.arrows = checked

    def __len__(self) -> int:
        return len(self.dims)

    def restriction(self, b: int, d: int) -> FiniteDiagram:
        """The slots b..d as a finite diagram with local indices."""
        morphisms = []
        for i in range(b, d):
            direction, M = self.arrows[i]
            if direction == FORWARD:
                morphisms.append((i - b, i - b + 1, M))
            else:
                morphisms.append((i - b + 1, i - b, M))
        return FiniteDiagram(dims=list(self.dims[b : d + 1]), morphisms=morphisms)


@dataclass(frozen=True)
class IntegerBar:
    """Closed slot interval [lo, hi] with a multiplicity."""

    lo: int
    hi: int
    multiplicity: int = 1

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi:
            raise TdaError(f"bad integer bar [{self.lo}, {self.hi}]")
        if self.multiplicity < 1:
            raise TdaError(f"bar multiplicity must be >= 1, got {self.multiplicity}")


def generalized_rank(z: ZigzagModule, b: int, d: int, field: int = 2) -> int:
    """Rank of the canonical map limit -> colimit of z restricted to [b, d].

    Equals the ordinary composite rank when every arrow in the range is
    forward, and counts the interval summands containing [b, d] in general.
    This is the definition for one interval, built from scratch with
    ``limit`` and ``colimit``; ``decompose_zigzag`` computes the same ranks
    incrementally and is tested against it.
    """
    if not 0 <= b <= d < len(z.dims):
        raise ValueError(f"slot range [{b}, {d}] out of bounds for {len(z.dims)} slots")
    sub = z.restriction(b, d)
    _, projections = limit(sub, field)
    _, inclusions = colimit(sub, field)
    canonical = fields.matmul(inclusions[0], projections[0], field)
    return fields.rank(canonical, field)


def _cross(ends, M: np.ndarray, pull: bool, field: int):
    """Carry the end maps (Eb, Ed) of a limit over [b, d] across M.

    With ``pull`` false, M leaves slot d and the limit is unchanged, so
    only Ed becomes M Ed. With ``pull`` true, M points into slot d and the
    new limit is the pullback of Ed and M: with K a kernel basis of
    [Ed | -M], Eb becomes Eb K[:L] and the new end map K[L:]. A colimit's
    inclusions, transposed, are a limit's projections for the transposed
    arrows, so pushouts use the same step. All operands have entries in
    [0, field), so products are reduced once, with no re-normalizing.
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
    eye = np.eye(dim, dtype=np.int64)
    lim = col = (eye, eye)
    ranks = [dim]
    for direction, M in arrows:
        forward = direction == FORWARD
        lim = _cross(lim, M, not forward, field)
        col = _cross(col, M.T, forward, field)
        ranks.append(fields.rank(col[0].T @ lim[0], field))
    return ranks


def interval_multiplicities(ranks: Mapping[tuple[int, int], int]) -> list[tuple[int, int, int]]:
    """Closed intervals [b, d] with positive multiplicity
    r(b,d) - r(b-1,d) - r(b,d+1) + r(b-1,d+1), from interval ranks given
    for every 0 <= b <= d < n (ranks outside the table count as 0)."""

    def rk(b: int, d: int) -> int:
        return ranks.get((b, d), 0)

    out: list[tuple[int, int, int]] = []
    for b, d in sorted(ranks):
        mult = rk(b, d) - rk(b - 1, d) - rk(b, d + 1) + rk(b - 1, d + 1)
        if mult < 0:
            raise InternalInconsistencyError(
                f"negative multiplicity {mult} for interval [{b}, {d}]"
            )
        if mult:
            out.append((b, d, mult))
    return out


def decompose_zigzag(z: ZigzagModule, field: int = 2) -> list[IntegerBar]:
    """Interval multiplicities of a zigzag via generalized-rank
    inclusion-exclusion; negative multiplicities signal an internal bug.

    The ranks come from one incremental sweep per left end (see the module
    docstring): O(n²) kernel computations on matrices whose height is one
    slot's dimension, instead of a fresh limit and colimit per interval.
    """
    fields.check_prime(field)
    arrows = [(direction, M % field) for direction, M in z.arrows]
    ranks = {
        (b, d): r
        for b, dim in enumerate(z.dims)
        for d, r in enumerate(_left_end_ranks(dim, arrows[b:], field), start=b)
    }
    return [IntegerBar(b, d, mult) for b, d, mult in interval_multiplicities(ranks)]


@dataclass
class ExplicitModule:
    """A persistence module on integer grades 0..n-1, given by matrices."""

    dims: list[int]
    maps: list[np.ndarray] = dataclass_field(default_factory=list)

    def __post_init__(self):
        if len(self.maps) != max(len(self.dims) - 1, 0):
            raise TdaError(
                f"need {max(len(self.dims) - 1, 0)} maps for {len(self.dims)} grades, "
                f"got {len(self.maps)}"
            )
        for i, M in enumerate(self.maps):
            M = np.asarray(M, dtype=np.int64)
            if M.shape != (self.dims[i + 1], self.dims[i]):
                raise TdaError(
                    f"map {i} has shape {M.shape}, expected {(self.dims[i + 1], self.dims[i])}"
                )
            self.maps[i] = M

    def __len__(self) -> int:
        return len(self.dims)


def forward_module_to_zigzag(module: ExplicitModule) -> ZigzagModule:
    """Embed an ordinary persistence module as an all-forward zigzag."""
    return ZigzagModule(
        dims=list(module.dims), arrows=[(FORWARD, M) for M in module.maps]
    )


def decompose_explicit(module: ExplicitModule, field: int = 2) -> Barcode:
    """Interval decomposition of an explicit module over integer grades:
    :func:`decompose_zigzag` of the all-forward zigzag, returned as closed
    bars with degree None and integer birth/death grades."""
    return Barcode(
        Bar(degree=None, birth=float(bar.lo), death=float(bar.hi))
        for bar in decompose_zigzag(forward_module_to_zigzag(module), field)
        for _ in range(bar.multiplicity)
    )
