"""Finite zigzag modules and finite diagrams of vector spaces.

Limits and colimits are the kernels of difference maps, built from their
blocks. The generalized rank of a zigzag over [b, d], the rank of the
canonical map from the limit to the colimit of the restriction, counts
the interval summands that contain [b, d]; it is the definition
``decompose_zigzag`` is tested against. ``decompose_zigzag`` finds the
summands in one left-to-right sweep (Carlsson–de Silva 2010, right
filtrations) on the column reduction of :mod:`fields`: one reduction of
the images per forward arrow, three of slot-sized columns per backward
arrow, so a zigzag of n slots takes O(n) of them. An ordinary persistence
module (:class:`ExplicitModule`) is decomposed as the all-forward zigzag.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import fields
from .errors import TdaError
from .persistence import Bar, Barcode

FORWARD = "fwd"
BACKWARD = "bwd"
# Largest total dimension of a zigzag, a diagram, a module or the stalks of a
# cosheaf. The sweep holds ~310 bytes per dimension (`tda zigzag` on `dims
# 200000`: 91 MiB) and cosheaf homology ~930 (`tda cosheaf` on a triangle with
# stalk 200,000: 206 MiB), so at 1 KiB per dimension this is about 1 GiB.
MAX_TOTAL_DIMENSION = fields.MAX_DENSE_BYTES // 1024


def _check_dims(dims: Sequence[int]) -> None:
    if any(d < 0 for d in dims):
        raise TdaError(f"dimensions must be non-negative, got {list(dims)}")
    if (total := sum(dims)) > MAX_TOTAL_DIMENSION:
        raise TdaError(f"the dimensions total {total:,}, over {MAX_TOTAL_DIMENSION:,}")


@dataclass
class FiniteDiagram:
    """Objects k^{dims[i]} and morphisms (source, target, matrix)."""

    dims: list[int]
    morphisms: list[tuple[int, int, np.ndarray]]

    def __post_init__(self):
        _check_dims(self.dims)
        checked = []
        for s, t, M in self.morphisms:
            if not (0 <= s < len(self.dims) and 0 <= t < len(self.dims)):
                raise TdaError(f"morphism endpoints ({s}, {t}) out of range")
            checked.append((s, t, fields.checked_matrix(M, (self.dims[t], self.dims[s]), f"morphism {s}->{t}")))
        self.morphisms = checked


def _difference_kernel(dims, morphisms, field: int) -> tuple[int, list[np.ndarray]]:
    """Kernel of the difference map sending (v_x)_x to (M v_src - v_tgt)
    per morphism (src, tgt, M), cut into one coordinate block per object.

    Takes raw, already-validated data, so colimits can pass the dual
    diagram without building and re-checking a FiniteDiagram. The map's
    shape passes :func:`fields.check_dense`; :func:`fields.block_columns`
    sums its blocks, M and -I per morphism (M - I for a self-loop).
    """
    off = list(accumulate(dims, initial=0))
    starts = list(accumulate((dims[t] for _, t, _ in morphisms), initial=0))
    fields.check_dense(starts[-1], off[-1])
    blocks = ((r, off[x], B) for r, (s, t, M) in zip(starts, morphisms)
              for x, B in ((s, M), (t, -np.eye(dims[t], dtype=np.int64))))  # one -I at a time, targets only
    K = fields.kernel_basis(fields.block_columns(starts[-1], off[-1], blocks, field), field)
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
        _check_dims(self.dims)
        if len(self.arrows) != max(len(self.dims) - 1, 0):
            raise TdaError(
                f"need {max(len(self.dims) - 1, 0)} arrows for {len(self.dims)} slots, "
                f"got {len(self.arrows)}"
            )
        checked = []
        for i, (direction, M) in enumerate(self.arrows):
            if direction not in (FORWARD, BACKWARD):
                raise TdaError(f"arrow direction must be '{FORWARD}' or '{BACKWARD}'")
            shape = (self.dims[i + 1], self.dims[i]) if direction == FORWARD else (self.dims[i], self.dims[i + 1])
            checked.append((direction, fields.checked_matrix(M, shape, f"arrow {i}")))
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
    ``limit`` and ``colimit``; the bars of ``decompose_zigzag`` are tested
    against it.
    """
    if not 0 <= b <= d < len(z.dims):
        raise ValueError(f"slot range [{b}, {d}] out of bounds for {len(z.dims)} slots")
    sub = z.restriction(b, d)
    _, projections = limit(sub, field)
    _, inclusions = colimit(sub, field)
    canonical = fields.as_columns(inclusions[0], field).compose(fields.as_columns(projections[0], field), field)
    return fields.rank(canonical, field)


def _forward_step(alive, f: fields.ColumnMatrix, birth: int, p: int):
    """Carry the alive bars across f: V_k -> V_{k+1} = k^m (m rows of f).
    Returns (alive bars at k+1, births of the bars that end at k)."""
    leads: dict = {}
    images = f.compose(fields.ColumnMatrix(len(f.cols), [v for _, v in alive]), p).cols
    kept, dead = [], []
    for (b, _), (piv, w, _) in zip(alive, fields.reduce_columns(images, p, leads)):
        if piv is None:
            dead.append(b)
        else:
            kept.append((b, w))
    return kept + [(birth, {c: 1}) for c in range(f.n_rows) if c not in leads], dead


def _backward_step(alive, g: fields.ColumnMatrix, birth: int, p: int):
    """Carry the alive bars across g: k^m = V_{k+1} -> V_k (m columns of g).
    Returns (alive bars at k+1, births of the bars that end at k)."""
    basis: dict = {}
    for _ in fields.reduce_columns([v for _, v in alive], p, basis, ({i: 1} for i in range(len(alive)))):
        pass
    found = fields.reduce_columns(g.cols, p, basis, ({} for _ in g.cols), insert=False)
    coordinates = ({i: -c % p for i, c in track.items()} for _, _, track in found)
    paired, born = {}, []
    for piv, _, track in fields.reduce_columns(coordinates, p, {}, ({j: 1} for j in range(len(g.cols)))):
        if piv is None:
            born.append((birth, track))
        else:
            paired[piv] = track
    kept = [(b, paired[i]) for i, (b, _) in enumerate(alive) if i in paired]
    return born + kept, [b for i, (b, _) in enumerate(alive) if i not in paired]


def decompose_zigzag(z: ZigzagModule, field: int = 2) -> list[IntegerBar]:
    """The interval summands of a zigzag as bars sorted by (lo, hi), equal
    bars merged into one with their multiplicity.

    At slot k the sweep holds a basis of V_k: one vector ({row: coeff})
    and birth per bar of the prefix [0, k] alive at k, oldest first in the
    age order. Adding bar y's vector to bar x's is an automorphism of the
    prefix's decomposition when a module map from x's interval [a, k] to
    y's [b, k] is nonzero at k: for b < a the arrow into a must point
    forward, for b > a the arrow into b must point backward. So the age
    order puts the bars born at the head of a backward arrow first, by
    decreasing birth, then the rest (born at slot 0 or at the head of a
    forward arrow) by increasing birth, and the sweep only ever adds older
    bars to younger. Every elimination is :func:`fields.reduce_columns`,
    which reduces each column by the earlier ones only.

    Forward arrow: the images, oldest first, are reduced into one pivot
    table. One that reduces to zero ends its bar; the others are the
    survivors' vectors, and the unit vectors at rows that are no pivot
    are born. Backward arrow: the alive basis is reduced with unit
    tracks, and each column of g, reduced by it without being stored,
    leaves its coordinates as its negated track. The coordinate columns,
    keyed by bar index, are reduced with unit tracks over V_{k+1}: a
    column with pivot i (its youngest bar) pairs bar i with its track,
    mapped by g to bar i's vector plus older ones; a column that reduces
    to zero leaves a kernel vector of g, which is born. Unpaired bars end.
    """
    p = fields.check_prime(field)
    if not z.dims:
        return []
    alive = [(0, {j: 1}) for j in range(z.dims[0])]
    ends: Counter = Counter()
    for k, (direction, M) in enumerate(z.arrows):
        step = _forward_step if direction == FORWARD else _backward_step
        alive, dead = step(alive, fields.as_columns(M, p), k + 1, p)
        ends.update((b, k) for b in dead)
    ends.update((b, len(z.dims) - 1) for b, _ in alive)
    return [IntegerBar(lo, hi, mult) for (lo, hi), mult in sorted(ends.items())]


@dataclass
class ExplicitModule:
    """A persistence module on integer grades 0..n-1, given by matrices."""

    dims: list[int]
    maps: list[np.ndarray] = dataclass_field(default_factory=list)

    def __post_init__(self):
        _check_dims(self.dims)
        if len(self.maps) != max(len(self.dims) - 1, 0):
            raise TdaError(
                f"need {max(len(self.dims) - 1, 0)} maps for {len(self.dims)} grades, "
                f"got {len(self.maps)}"
            )
        for i, M in enumerate(self.maps):
            self.maps[i] = fields.checked_matrix(M, (self.dims[i + 1], self.dims[i]), f"map {i}")

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
