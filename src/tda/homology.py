"""Simplicial (co)homology over prime fields.

Boundary and coboundary matrices, homology dimensions with representative
cycle bases, and the maps on homology induced by simplicial vertex maps.
Orientations come from the global integer order on vertex ids; bases are
deterministic via the leftmost-pivot elimination rule. All of it is
sparse: boundary terms are read off facet positions, a chain map has a
term per simplex, :func:`fields.term_columns` makes columns of them and
:func:`fields.quotients` reduces those in one sweep down the degrees;
dense matrices returned here are views of the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from . import fields
from .complexes import SimplicialComplex, _facet_terms
from .errors import InternalInconsistencyError, NonSimplicialMapError


def _check_degree(p: int, field: int) -> None:
    if p < 0:
        raise ValueError(f"degree must be nonnegative, got {p}")
    fields.check_prime(field)


def _boundary(K: SimplicialComplex, p: int, field: int, facets=None) -> fields.ColumnMatrix:
    """Columns of d_p, one per row of K's facet positions or of ``facets``
    (those rows permuted, and their entries): facet j gets sign (-1)^j."""
    facets = K._layer(p)[1] if facets is None else facets
    return fields.term_columns(len(K._layer(p - 1)[0]), len(facets), *_facet_terms(facets), field)


def boundary_matrix(K: SimplicialComplex, p: int, field: int = 2) -> np.ndarray:
    """Matrix of the boundary operator C_p(K) -> C_{p-1}(K).

    Column per p-simplex, row per (p-1)-simplex, both in lexicographic
    order; the j-th face (delete the j-th vertex) gets sign (-1)^j mod p.
    For p = 0 this is the empty-row matrix.
    """
    _check_degree(p, field)
    return _boundary(K, p, field).dense()


def coboundary_matrix(K: SimplicialComplex, p: int, field: int = 2) -> np.ndarray:
    """Transpose of the degree-(p+1) boundary matrix."""
    return boundary_matrix(K, p + 1, field).T.copy()


@dataclass
class HomologyResult:
    """Dimension of a (co)homology group with representative cycles, held
    as the quotient's sparse tracks ``basis``. Each vector of their dense
    view ``cycle_basis`` is a coordinate vector over the chain basis used by
    the corresponding boundary matrix (lexicographic simplex order)."""

    degree: int
    dimension: int
    basis: fields.ColumnMatrix

    @property
    def cycle_basis(self) -> list[np.ndarray]:
        return list(self.basis.dense().T)  # one dense view, not one per column


def _quotients(K: SimplicialComplex, degrees: range, field: int) -> list[fields.Quotient]:
    """The homology quotient of each degree in ``degrees``, from one sweep."""
    _check_degree(degrees.start, field)
    return fields.quotients([_boundary(K, p, field) for p in range(degrees.start, degrees.stop + 1)], field)


def homology(K: SimplicialComplex, p: int, field: int = 2) -> HomologyResult:
    """H_p(K) = ker d_p / im d_{p+1} over the given prime field."""
    [q] = _quotients(K, range(p, p + 1), field)
    return HomologyResult(p, q.dimension, q.basis)


def cohomology(K: SimplicialComplex, p: int, field: int = 2) -> HomologyResult:
    """H^p(K) from coboundary ranks; its dimension equals dim H_p(K)."""
    _check_degree(p, field)
    [q] = fields.quotients([_coboundary(K, k, field) for k in (p + 1, p)], field)
    return HomologyResult(p, q.dimension, q.basis)


def _coboundary(K: SimplicialComplex, p: int, field: int) -> fields.ColumnMatrix:
    """Columns of d_p transposed: its terms with rows and columns swapped."""
    rows, cols, signs = _facet_terms(K._layer(p)[1])
    return fields.term_columns(len(K._layer(p)[0]), len(K._layer(p - 1)[0]), cols, rows, signs, field)


def _check_simplicial(f: Mapping[int, int], source: SimplicialComplex, target: SimplicialComplex) -> None:
    for v in source.vertices():
        if v not in f:
            raise NonSimplicialMapError(f"vertex {v} has no image under the vertex map")
    for s in source.simplices:
        image = tuple(sorted(set(f[v] for v in s)))
        if image not in target:
            raise NonSimplicialMapError(
                f"image {image} of simplex {s} is not a simplex of the target"
            )


def chain_map(
    f: Mapping[int, int],
    source: SimplicialComplex,
    target: SimplicialComplex,
    p: int,
    field: int = 2,
) -> np.ndarray:
    """Matrix of C_p(f): C_p(source) -> C_p(target).

    A p-simplex whose image has repeated vertices maps to zero; otherwise
    to the sorted image simplex with the sign of the sorting permutation.
    """
    _check_degree(p, field)
    _check_simplicial(f, source, target)
    return _chain_columns(f, source, target, p, field).dense()


def _chain_columns(f, source, target, p: int, field: int) -> fields.ColumnMatrix:
    """Columns of C_p(f): a signed term per p-simplex whose image repeats no vertex."""
    index = {s: i for i, s in enumerate(target.p_simplices(p))}
    sources = source.p_simplices(p)
    terms = []
    for j, s in enumerate(sources):
        image = [f[v] for v in s]
        if len(set(image)) == len(image):
            inversions = sum(a > b for a, b in combinations(image, 2))
            terms.append((index[tuple(sorted(image))], j, (-1) ** inversions))
    rows, cols, signs = np.array(terms, dtype=np.int64).reshape(-1, 3).T
    return fields.term_columns(len(index), len(sources), rows, cols, signs, field)


def induced_map(
    f: Mapping[int, int],
    source: SimplicialComplex,
    target: SimplicialComplex,
    p: int,
    field: int = 2,
) -> np.ndarray:
    """Matrix of H_p(f) in the deterministic homology bases of both sides.

    The chain-level map is verified to commute with the boundary operators
    before being projected to homology. Each side's d_p and d_{p+1} are
    built once, d_p serving the check too, and reduced once; a self-map
    (target is source) reduces its complex once.
    """
    _check_degree(p, field)
    _check_simplicial(f, source, target)
    Cp = _chain_columns(f, source, target, p, field)
    dK = [_boundary(source, k, field) for k in (p, p + 1)]
    dL = dK if target is source else [_boundary(target, k, field) for k in (p, p + 1)]
    if p > 0:
        lhs = _chain_columns(f, source, target, p - 1, field).compose(dK[0], field)
        if lhs.cols != dL[0].compose(Cp, field).cols:
            raise InternalInconsistencyError("chain map does not commute with boundaries")
    [hK] = fields.quotients(dK, field)
    [hL] = [hK] if target is source else fields.quotients(dL, field)
    return hL.coordinates(Cp.compose(hK.basis, field))
