"""Linear algebra over prime fields. Chain complexes are sparse, each
matrix built from its (row, column, coefficient) terms (:func:`term_columns`;
the barcode slices :func:`sparse_columns` as it goes) as columns of one
type for every prime, F2 included: a dict {row: coeff in [1, p)}. Homology
(:func:`quotients`: one sweep down the degrees, each boundary reduced
once, a d_k column at a pivot row of d_{k+1} skipped) and the persistence
barcode (coboundary columns, with clearing) run on the one
column-reduction kernel :func:`reduce_columns`; a quotient keeps its
representatives as the sparse reduction tracks, dense only as a view.
Stalk-sized matrices (zigzags, cosheaf maps, ranks of module maps) are
reduced by one elimination, :func:`_rref_rows`, on rows held as lists of
Python ints mod p: at a handful of rows and columns, a numpy call per
pivot costs more than the arithmetic. numpy int64 arrays appear only at
the interface, as arguments and results. Pivots are chosen leftmost
column first, topmost row first, so every routine is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InternalInconsistencyError, TdaError

MAX_DENSE_BYTES = 2**30  # ColumnMatrix.dense raises, before allocating, over this


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if not is_prime(p) or p >= 2**15:
        raise ValueError(f"field characteristic must be a prime < 2^15, got {p}")
    return p


def normalize(A, p: int) -> np.ndarray:
    """Coerce to a 2-D int64 array with entries in [0, p)."""
    M = np.asarray(A, dtype=np.int64)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
    return M % p


def _rref_rows(rows: list[list[int]], n_cols: int, p: int) -> list[int]:
    """Reduce ``rows`` (lists of n_cols ints in [0, p)) in place to reduced
    row echelon form mod p and return the pivot columns. The first
    len(pivots) rows are then the nonzero rows of the rref, in pivot order,
    and the rest are zero. The pivot for a column is the topmost row at or
    below the next pivot position that is nonzero there."""
    pivots: list[int] = []
    m = len(rows)
    r = 0
    for c in range(n_cols):
        if r == m:
            break
        for i in range(r, m):
            if rows[i][c]:
                break
        else:
            continue
        piv = rows[i]
        rows[i] = rows[r]
        rows[r] = piv
        # Rows r.. are zero left of c, so row operations start at column c;
        # they end at the pivot row's last nonzero, which keeps the banded
        # difference maps of long diagrams from costing a full row each.
        if piv[c] != 1:
            inv = pow(piv[c], -1, p)
            piv[c:] = [x * inv % p for x in piv[c:]]
        e = n_cols
        while not piv[e - 1]:
            e -= 1
        tail = piv[c:e]
        for row in rows:
            f = row[c]
            if f and row is not piv:
                row[c:e] = [(x - f * y) % p for x, y in zip(row[c:e], tail)]
        pivots.append(c)
        r += 1
    return pivots


def rref(A, p: int):
    """Reduced row echelon form mod p. Returns (R, pivot_columns)."""
    M = normalize(A, p)
    rows = M.tolist()
    pivots = _rref_rows(rows, M.shape[1], p)
    return np.array(rows, dtype=np.int64).reshape(M.shape), pivots


def rank(A, p: int) -> int:
    M = normalize(A, p)
    return len(_rref_rows(M.tolist(), M.shape[1], p))


def kernel_basis(A, p: int) -> np.ndarray:
    """Column basis of the null space of A, shape (n_cols, nullity)."""
    M = normalize(A, p)
    n = M.shape[1]
    rows = M.tolist()
    pivots = _rref_rows(rows, n, p)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    K = [[0] * len(free) for _ in range(n)]
    for j, c in enumerate(free):
        K[c][j] = 1
    for row, c in zip(rows, pivots):
        K[c] = [-row[f] % p for f in free]
    return np.array(K, dtype=np.int64).reshape(n, len(free))


def solve(A, B, p: int):
    """One solution X of A X = B mod p, or None if inconsistent.

    B may be a vector or a matrix of stacked right-hand sides; free
    variables are set to zero, so the solution is deterministic.
    """
    M = normalize(A, p)
    rhs = np.asarray(B, dtype=np.int64)
    squeeze = rhs.ndim == 1
    rhs = normalize(rhs[:, None] if squeeze else rhs, p)
    if rhs.shape[0] != M.shape[0]:
        raise ValueError("right-hand side has wrong number of rows")
    na, nb = M.shape[1], rhs.shape[1]
    rows = [a + b for a, b in zip(M.tolist(), rhs.tolist())]
    pivots = _rref_rows(rows, na + nb, p)
    if pivots and pivots[-1] >= na:
        return None
    X = [[0] * nb for _ in range(na)]
    for row, c in zip(rows, pivots):
        X[c] = row[na:]
    X = np.array(X, dtype=np.int64).reshape(na, nb)
    return X[:, 0] if squeeze else X


def matmul(A, B, p: int) -> np.ndarray:
    return (normalize(A, p) @ normalize(B, p)) % p


@dataclass
class ColumnMatrix:
    """A sparse GF(p) matrix by columns, each a dict {row: coeff in [1, p)}
    for every prime p, F2 included."""

    n_rows: int
    cols: list

    def dense(self) -> np.ndarray:
        if (size := self.n_rows * len(self.cols) * 8) > MAX_DENSE_BYTES:
            shape = f"{self.n_rows} x {len(self.cols)}"
            raise TdaError(f"a dense {shape} matrix would take {size:,} bytes, over {MAX_DENSE_BYTES:,}")
        D = np.zeros((self.n_rows, len(self.cols)), dtype=np.int64)
        for j, col in enumerate(self.cols):
            D[list(col), j] = list(col.values())
        return D

    def compose(self, other: "ColumnMatrix", p: int) -> "ColumnMatrix":
        """The product self @ other."""
        out = []
        for col in other.cols:
            acc: dict[int, int] = {}
            for k, c in col.items():
                for r, a in self.cols[k].items():
                    acc[r] = acc.get(r, 0) + a * c
            out.append({r: c % p for r, c in acc.items() if c % p})
        return ColumnMatrix(self.n_rows, out)


def term_columns(n_rows: int, n_cols: int, rows, cols, coeffs, p: int) -> ColumnMatrix:
    """The n_rows x n_cols matrix with coeffs[t] mod p at (rows[t], cols[t]) for each
    term t of three integer arrays; zero terms are dropped, and no pair may repeat."""
    columns: list[dict] = [{} for _ in range(n_cols)]
    for r, c, x in zip(rows.tolist(), cols.tolist(), (coeffs % p).tolist()):
        if x:
            columns[c][r] = x
    return ColumnMatrix(n_rows, columns)


def sparse_columns(rows: np.ndarray, coeffs: np.ndarray, bounds):
    """The columns {rows[t]: coeffs[t] for a <= t < b}, one per (a, b) in
    bounds, made as they are consumed. The coefficients must be reduced to
    [1, p) and the rows of a column distinct."""
    return (dict(zip(rows[a:b].tolist(), coeffs[a:b].tolist())) for a, b in bounds)


def as_columns(A, p: int) -> ColumnMatrix:
    """A :class:`ColumnMatrix` as given, or the columns of a dense matrix."""
    if isinstance(A, ColumnMatrix):
        return A
    M = normalize(A, p)
    rows, cols = np.nonzero(M)
    return term_columns(*M.shape, rows, cols, M[rows, cols], p)


def _subtract(vec: dict, other: dict, factor: int, p: int) -> None:
    for r, c in other.items():
        if x := (vec.get(r, 0) - factor * c) % p:
            vec[r] = x
        else:
            del vec[r]


def reduce_columns(columns, p: int, pivots: dict | None = None, tracks=None, insert: bool = True):
    """Standard column reduction: reduce a copy of each column, in order,
    by the stored column whose pivot (largest row) it shares. ``pivots``
    maps a pivot row to a stored (column, track) pair and may be shared
    across calls. A track (the V of R = D V) is an optional column that
    takes the same additions; ``tracks`` gives the starting ones, and a
    stored column without one adds nothing to them. With ``insert`` a
    column that stays nonzero is stored, scaled with its track to pivot 1.
    Yields (pivot, or None for zero, column, track).
    """
    if pivots is None:
        pivots = {}
    for col, track in zip(columns, repeat(None) if tracks is None else tracks):
        col = col.copy()
        while col:
            piv = max(col)
            stored = pivots.get(piv)
            if stored is None:
                break
            other, other_track = stored
            factor = col[piv]
            _subtract(col, other, factor, p)
            if piv in col:  # would loop forever
                raise InternalInconsistencyError(f"stored column with pivot {piv} is not scaled to 1")
            if track is not None and other_track:
                _subtract(track, other_track, factor, p)
        else:
            piv = None
        if insert and piv is not None:
            if col[piv] != 1:
                inv = pow(col[piv], -1, p)
                col = {r: c * inv % p for r, c in col.items()}
                track = None if track is None else {r: c * inv % p for r, c in track.items()}
            pivots[piv] = (col, track)
        yield piv, col, track


def quotients(boundaries, p: int) -> list["Quotient"]:
    """[Quotient(d_k, d_{k+1}, p) for k < m] of boundaries d_0..d_m, each
    reduced once: d_m without tracks, then from the top down the columns
    of d_k at no pivot row of d_{k+1} with unit tracks; the others would
    reduce to zero (clearing). The nonzero columns, tracks dropped, are the
    image of degree k - 1, as reducing all of d_k stores it. A column j
    reducing to zero has a track e_j plus earlier columns (the rref kernel
    vector of free column j), independent of the image and the earlier
    tracks by the pairing lemma: the representatives, the leftmost-pivot
    extension of an image basis. ``_paired``: image pivot row -> column."""
    ds = [as_columns(d, p) for d in boundaries]
    for low, high in zip(ds, ds[1:]):
        if len(low.cols) != high.n_rows:
            raise ValueError(
                f"chain space mismatch: d_low has {len(low.cols)} columns, d_high has {high.n_rows} rows"
            )
    stored: dict = {}
    reduced = enumerate(reduce_columns(ds[-1].cols, p, stored))
    out = []
    for low in ds[-2::-1]:
        q = Quotient.__new__(Quotient)
        q.field, q._paired = p, {piv: j for j, (piv, _, _) in reduced if piv is not None}
        q._pivots = {piv: (col, None) for piv, (col, _) in stored.items()}
        free = [j for j in range(len(low.cols)) if j not in q._pivots]
        stored, units = {}, ({j: 1} for j in free)
        reduced = list(zip(free, reduce_columns((low.cols[j] for j in free), p, stored, units)))
        reps = [track for _, (piv, _, track) in reduced if piv is None]
        for k, track in enumerate(reps):
            q._pivots[max(track)] = (track, {k: 1})
        q.dimension, q.basis = len(reps), ColumnMatrix(len(low.cols), reps)
        out.append(q)
    return out[::-1]


class Quotient:
    """The quotient ker(d_low) / im(d_high) with frozen representatives,
    the two-boundary case of :func:`quotients`, held as the sparse tracks
    ``basis``; ``representatives`` is their dense view. d_low and d_high
    are :class:`ColumnMatrix` or dense and must compose to zero: simplicial
    (co)boundaries, or cosheaf boundaries once :func:`cosheaf.validate`
    has passed, as ``cosheaf_homology`` checks."""

    def __init__(self, d_low, d_high, p: int):
        vars(self).update(vars(quotients([d_low, d_high], p)[0]))

    @property
    def representatives(self) -> np.ndarray:
        return self.basis.dense()

    def coordinates(self, V) -> np.ndarray:
        """Coordinates of cycle column(s) V (dense or a ColumnMatrix) in the
        representatives, by reduction tracking only representative columns."""
        p = self.field
        squeeze = not isinstance(V, ColumnMatrix) and np.ndim(V) == 1
        cols = as_columns(np.asarray(V)[:, None] if squeeze else V, p)
        if cols.n_rows != self.basis.n_rows:
            raise ValueError("right-hand side has wrong number of rows")
        X = _coordinates(cols.cols, self._pivots, self.dimension, p)
        return X[:, 0] if squeeze else X


def _coordinates(columns: list, pivots: dict, n: int, p: int) -> np.ndarray:
    """The n x len(columns) coefficients, on the n stored columns of
    ``pivots`` whose tracks are units, that sum to each (cycle) column."""
    X = np.zeros((n, len(columns)), dtype=np.int64)
    tracks = ({} for _ in columns)
    for j, (piv, _, track) in enumerate(reduce_columns(columns, p, pivots, tracks, insert=False)):
        if piv is not None:
            raise InternalInconsistencyError("vector is not a cycle modulo boundaries of this quotient")
        for k, c in track.items():  # column + (stored columns combined by track) = 0
            X[k, j] = -c % p
    return X
