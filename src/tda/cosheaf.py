"""Simplicial cosheaves and sheaves over a complex.

A cosheaf assigns a vector-space dimension to each simplex and an
extension matrix toward each codimension-1 face; longer compositions are
derived, and path independence across codimension-2 pairs holds exactly
when the signed block boundary squares to zero: validity is read off
d_{p-1} d_p. Homology in a range of degrees is one sweep: each block
boundary is built once, checked so, and reduced by :func:`fields.quotients`
from the top degree down, clearing the columns that would reduce to zero;
``cosheaf_homology`` is its one-degree case. Sheaf cohomology is computed
by transposing to a cosheaf. Over a disjoint union of paths, :func:`bar_census`
reads the cosheaf as one zigzag: all paths laid out in one run of vertex
and edge slots, joined by empty edge slots, and decomposed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import accumulate
import numpy as np

from . import fields, zigzag
from .complexes import Simplex, SimplicialComplex, faces
from .errors import InvalidCosheafError, NonlinearNerveError, NotASubcomplexError
from .homology import HomologyResult, _check_degree


def codim1_pairs(K: SimplicialComplex) -> list[tuple[Simplex, Simplex]]:
    """All (face, coface) pairs differing by one vertex, in lex order, read
    off the complex's facet positions."""
    pairs, below = [], K.p_simplices(0)
    for p in range(1, K.dimension + 1):
        cofaces = K.p_simplices(p)
        facets = K._layer(p)[1].tolist()
        pairs.extend((below[i], tau) for tau, row in zip(cofaces, facets) for i in row)
        below = cofaces
    return sorted(pairs)


def _check_stalks(base: SimplicialComplex, stalks: dict[Simplex, int], kind: str) -> None:
    """One non-negative stalk dimension per simplex of the base, and no
    other, in total at most ``zigzag.MAX_TOTAL_DIMENSION``."""
    for s in base.simplices:
        if s not in stalks:
            raise InvalidCosheafError(f"{kind} has no stalk dimension for {s}")
        if stalks[s] < 0:
            raise InvalidCosheafError(f"negative stalk dimension at {s}")
    extra = set(stalks) - base.simplices
    if extra:
        raise InvalidCosheafError(f"stalks given for simplices not in the base: {sorted(extra)}")
    if (total := sum(stalks.values())) > zigzag.MAX_TOTAL_DIMENSION:
        raise InvalidCosheafError(f"the {kind} stalks total {total:,}, over {zigzag.MAX_TOTAL_DIMENSION:,}")


def _check_structure(F, kind: str) -> None:
    """Validate stalks, map keys (the :func:`codim1_pairs`, no other) and map shapes; make each map
    an int64 array by :func:`fields.integer_array` (an empty one takes the shape of its zero-size block)."""
    base, stalks, maps = F.base, F.stalks, F.maps
    _check_stalks(base, stalks, kind)
    if maps.keys() != (needed := set(codim1_pairs(base))):
        missing, extra = sorted(needed - maps.keys()), sorted(maps.keys() - needed)
        raise InvalidCosheafError(f"{kind} extension maps mismatch; missing {missing}, unexpected {extra}")
    for (face, coface), M in maps.items():
        shape = (stalks[face], stalks[coface]) if kind == "cosheaf" else (stalks[coface], stalks[face])
        M = fields.integer_array(M)
        if M.shape != shape and not (M.size == 0 and 0 in shape):
            raise InvalidCosheafError(
                f"{kind} extension map {(face, coface)} has shape {M.shape}, expected {shape}"
            )
        maps[(face, coface)] = M.reshape(shape)


@dataclass
class SimplicialCosheaf:
    """Stalk dimensions plus extension matrices toward faces.

    maps[(face, coface)] sends the coface stalk to the face stalk, so its
    shape is (stalks[face], stalks[coface]).
    """

    base: SimplicialComplex
    stalks: dict[Simplex, int]
    maps: dict[tuple[Simplex, Simplex], np.ndarray] = dataclass_field(default_factory=dict)

    def __post_init__(self):
        _check_structure(self, "cosheaf")


@dataclass
class SimplicialSheaf:
    """Dual data: maps[(face, coface)] sends the face stalk to the coface
    stalk, shape (stalks[coface], stalks[face])."""

    base: SimplicialComplex
    stalks: dict[Simplex, int]
    maps: dict[tuple[Simplex, Simplex], np.ndarray] = dataclass_field(default_factory=dict)

    def __post_init__(self):
        _check_structure(self, "sheaf")


def constant_cosheaf(K: SimplicialComplex, n: int) -> SimplicialCosheaf:
    """Stalk k^n on every simplex, identity extension maps."""
    if n < 0:
        raise ValueError(f"stalk dimension must be nonnegative, got {n}")
    eye = np.eye(n, dtype=np.int64)
    return SimplicialCosheaf(
        base=K,
        stalks={s: n for s in K.simplices},
        maps={pair: eye.copy() for pair in codim1_pairs(K)},
    )


@dataclass(frozen=True)
class CosheafViolation:
    """First codimension-2 square whose two compositions disagree."""

    face: Simplex
    coface: Simplex
    via_first: Simplex
    via_second: Simplex

    def __str__(self) -> str:
        return (
            f"extension maps {self.coface} -> {self.face} disagree via "
            f"{self.via_first} and {self.via_second}"
        )


def validate(F: SimplicialCosheaf, field: int = 2) -> CosheafViolation | None:
    """Check path independence on every codimension-2 pair, which generates
    the full composition condition, as d_{p-1} d_p = 0 (:func:`_violation`).
    Returns None when all squares commute mod the field, otherwise the
    first violating triple in lexicographic order."""
    return _violation(F, {}, field)


def _violation(F: SimplicialCosheaf, ds: dict, field: int, keep=()) -> CosheafViolation | None:
    """The first failing square, read off d_{p-1} d_p (p >= 2): its block
    (sigma, tau) is +-(via face i of tau - via face j), tau - sigma =
    {tau[i], tau[j]}, i < j, so in the first tau with a nonzero column the
    largest sigma of a nonzero row is the first (i, j). Builds each d_k once; ``ds`` keeps those in ``keep``."""
    fields.check_prime(field)
    for p in range(2, (dim := F.base.dimension) + 1):
        ds.update((k, _boundary(F, k, field)) for k in (p - 1, p) if k not in ds)
        product = ds[p - 1].compose(ds[p], field).cols
        for k in set(ds).difference(keep, range(p, dim)):  # d_p is the next d_{p-1}
            del ds[k]
        (taus, cols), (sigmas, rows) = chain_offsets(F, p), chain_offsets(F, p - 2)
        for tau, start, stop in zip(taus, cols, cols[1:]):
            if bad := [r for col in product[start:stop] for r in col]:
                sigma = sigmas[np.searchsorted(rows, max(bad), side="right") - 1]
                i, j = (k for k, v in enumerate(tau) if v not in sigma)
                return CosheafViolation(sigma, tau, faces(tau)[i], faces(tau)[j])
    return None


def chain_offsets(F: SimplicialCosheaf, p: int) -> tuple[list[Simplex], list[int]]:
    """p-simplices in lex order with block offsets into C_p(K; F)."""
    simplices = F.base.p_simplices(p)
    return simplices, list(accumulate((F.stalks[s] for s in simplices), initial=0))


def cosheaf_boundary(F: SimplicialCosheaf, p: int, field: int = 2) -> np.ndarray:
    """Block matrix of the signed extension boundary C_p -> C_{p-1}.

    Block (sigma, tau) is (-1)^j r_{sigma,tau} when sigma is the j-th
    face of tau (delete the j-th vertex), zero otherwise.
    """
    _check_degree(p, field)
    return _boundary(F, p, field).dense()


def _boundary(F: SimplicialCosheaf, p: int, field: int) -> fields.ColumnMatrix:
    """Columns of the block boundary over the basis (simplex, stalk index),
    built from its blocks (-1)^j r_{sigma,tau}, sigma facet j of tau."""
    taus, col_offsets = chain_offsets(F, p)
    sigmas, row_offsets = chain_offsets(F, p - 1)
    blocks = (  # made as they are summed; M % field first: -M overflows at -2^63
        (row_offsets[f], start, M if j % 2 == 0 else -(M % field))
        for tau, start, facets in zip(taus, col_offsets, F.base._layer(p)[1].tolist())
        for j, f in enumerate(facets)
        for M in [F.maps[(sigmas[f], tau)]]
    )
    return fields.block_columns(row_offsets[-1], col_offsets[-1], blocks, field)


def _quotients(F: SimplicialCosheaf, degrees: range, field: int) -> list[fields.Quotient]:
    """The quotient of H_p(K; F) for each p in ``degrees``: d_start..d_stop
    and d_1..d_dim built once, F validated on them, the first reduced in one sweep."""
    needed = range(degrees.start, degrees.stop + 1)
    if (violation := _violation(F, ds := {}, field, needed)) is not None:
        raise InvalidCosheafError(str(violation))
    _check_degree(degrees.start, field)
    return fields.quotients([ds[p] if p in ds else _boundary(F, p, field) for p in needed], field)


def cosheaf_homology(F: SimplicialCosheaf, p: int, field: int = 2) -> HomologyResult:
    """H_p(K; F) from the cosheaf boundary ranks; validates first."""
    [q] = _quotients(F, range(p, p + 1), field)
    return HomologyResult(p, q.dimension, q.basis)


def sheaf_to_cosheaf(F: SimplicialSheaf) -> SimplicialCosheaf:
    """Transpose all restriction maps, turning a sheaf into a cosheaf."""
    return SimplicialCosheaf(
        base=F.base,
        stalks=dict(F.stalks),
        maps={pair: M.T.copy() for pair, M in F.maps.items()},
    )


def sheaf_cohomology(F: SimplicialSheaf, p: int, field: int = 2) -> HomologyResult:
    """H^p of a sheaf, computed as cosheaf homology of the transpose."""
    return cosheaf_homology(sheaf_to_cosheaf(F), p, field)


def _line_slots(K: SimplicialComplex) -> list[Simplex | None]:
    """All paths of a base of dimension <= 1 as one run of alternating vertex
    and edge slots, each walked from its lowest end and joined to the next by
    an empty edge slot (None), which no bar crosses. Raises NonlinearNerveError
    on dimension > 1, a vertex of degree > 2, or a cycle."""
    if K.dimension > 1:
        raise NonlinearNerveError(f"base has dimension {K.dimension}, expected <= 1")
    adjacency: dict[int, list[int]] = {v: [] for v in K.vertices()}
    for a, b in K.p_simplices(1):
        adjacency[a].append(b)
        adjacency[b].append(a)
    if branching := [v for v, nb in adjacency.items() if len(nb) > 2]:
        raise NonlinearNerveError(f"vertex {min(branching)} has degree > 2")
    slots: list[Simplex | None] = []
    far_ends: set[int] = set()
    for end, nb in adjacency.items():  # in increasing vertex order
        if len(nb) > 1 or end in far_ends:
            continue
        slots += [None, (end,)] if slots else [(end,)]
        prev, cur = None, end
        while nxt := [w for w in adjacency[cur] if w != prev]:
            prev, cur = cur, nxt[0]
            slots += [(min(prev, cur), max(prev, cur)), (cur,)]
        far_ends.add(cur)
    if len(slots[::2]) < len(adjacency):  # some component has no end
        raise NonlinearNerveError("base contains a cycle")
    return slots


def bar_census(F: SimplicialCosheaf, field: int = 2) -> tuple[int, int, int]:
    """Counts of (closed, open, half-open) bars over a base of dimension <= 1,
    read as one zigzag over the slots of :func:`_line_slots`: a bar end on a
    vertex slot (even) is closed, on an edge slot (odd) open. Closed bars
    count dim H_0 and open bars dim H_1. A base that is not a disjoint union
    of paths raises NonlinearNerveError before any map is read."""
    fields.check_prime(field)
    slots = _line_slots(F.base)
    arrows = []
    for k in range(len(slots) - 1):
        vertex, edge = (slots[k], slots[k + 1]) if k % 2 == 0 else (slots[k + 1], slots[k])
        M = F.maps[(vertex, edge)] if edge else np.zeros((F.stalks[vertex], 0), dtype=np.int64)
        arrows.append((zigzag.FORWARD if k % 2 else zigzag.BACKWARD, M))
    bars = zigzag.decompose_zigzag(zigzag.ZigzagModule([F.stalks.get(s, 0) for s in slots], arrows), field)
    closed = sum(bar.multiplicity for bar in bars if bar.lo % 2 == bar.hi % 2 == 0)
    opened = sum(bar.multiplicity for bar in bars if bar.lo % 2 == bar.hi % 2 == 1)
    return closed, opened, sum(bar.multiplicity for bar in bars) - closed - opened


def colimit_over_subcomplex(F: SimplicialCosheaf, L, field: int = 2) -> int:
    """Dimension of the colimit of F over the face diagram spanned by L.

    L may be a subcomplex or any collection of simplices of the base (an
    open union of cells need not be face-closed); one object per simplex,
    one arrow per codimension-1 face pair lying entirely inside L.
    """
    subset = {tuple(s) for s in L}
    if not subset <= F.base.simplices:
        raise NotASubcomplexError("L contains simplices outside the cosheaf's base")
    objects = sorted(subset, key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(objects)}
    morphisms = []
    for tau in objects:
        for sigma in faces(tau):
            if sigma and sigma in subset:
                morphisms.append((index[tau], index[sigma], F.maps[(sigma, tau)]))
    diagram = zigzag.FiniteDiagram(
        dims=[F.stalks[s] for s in objects], morphisms=morphisms
    )
    dim, _ = zigzag.colimit(diagram, field)
    return dim
