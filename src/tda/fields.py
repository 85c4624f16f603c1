"""Linear algebra over prime fields on one elimination. Matrices are held
as columns of one type for every prime, F2 included: a dict {row: coeff in
[1, p)}; chain complexes are built from their (row, column, coefficient)
terms (:func:`term_columns`; the barcode slices :func:`sparse_columns` as
it goes) or their blocks (:func:`block_columns`). Every reduction is the
one column-reduction kernel :func:`reduce_columns`: homology
(:func:`quotients`: one sweep down the degrees, each boundary reduced
once, a d_k column at a pivot row of d_{k+1} skipped), the persistence
barcode (coboundary columns, with clearing), the zigzag sweep, and the
dense routines :func:`rank`, :func:`kernel_basis`, :func:`solve` and
:func:`rref`, read off the reduction of a matrix's columns with unit
tracks. A quotient keeps its representatives as the sparse reduction
tracks. numpy int64 arrays appear only at the interface: arguments, and
results as views that :meth:`ColumnMatrix.dense` builds, or refuses over
``MAX_DENSE_BYTES``. Both are converted in Python: at stalk sizes a numpy
call costs more than the arithmetic. Each column is reduced at its pivot
(largest row) by earlier columns only, so every routine is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InternalInconsistencyError, TdaError

MAX_DENSE_BYTES = 2**30  # check_dense raises, before any dense allocation, over this
MAX_FIELD = 2**15  # a field characteristic is a prime below this


def check_prime(p) -> int:
    """p as an int, if it is an integer prime < 2^15 (numpy integers too).
    The bound comes first, so trial division takes at most 180 steps."""
    prime = isinstance(p, (int, np.integer)) and 2 <= p < MAX_FIELD
    d = 2
    while prime and d * d <= p:
        prime, d = p % d != 0, d + 1
    if not prime:
        raise ValueError(f"field characteristic must be a prime < 2^15, got {p}")
    return int(p)


def integer_array(A) -> np.ndarray:
    """A as an int64 array. Integral floats (``np.eye``) pass; any other
    entry raises, naming the first, where a cast would truncate it."""
    M = np.asarray(A)
    if M.dtype.kind in "biu":
        return M.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        I = M.astype(np.int64)
    bad = np.flatnonzero(I != M)
    if bad.size:
        at = tuple(int(i) for i in np.unravel_index(bad[0], M.shape))
        raise TdaError(f"matrix entries must be integers, got {M.item(at)!r} at {at}")
    return I


def checked_matrix(A, shape: tuple, what: str) -> np.ndarray:
    """A as an int64 array (:func:`integer_array`) of the given shape."""
    M = integer_array(A)
    if M.shape != shape:
        raise TdaError(f"{what} has shape {M.shape}, expected {shape}")
    return M


def check_dense(n_rows: int, n_cols: int) -> None:
    """Raise TdaError if a dense int64 n_rows x n_cols matrix is over ``MAX_DENSE_BYTES``."""
    if (size := n_rows * n_cols * 8) > MAX_DENSE_BYTES:
        raise TdaError(f"a dense {n_rows} x {n_cols} matrix would take {size:,} bytes, over {MAX_DENSE_BYTES:,}")


def normalize(A, p: int) -> np.ndarray:
    """Coerce to a 2-D int64 array with entries in [0, p), p a prime."""
    M = integer_array(A)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
    return M % check_prime(p)


def rref(A, p: int):
    """Reduced row echelon form mod p. Returns (R, pivot_columns), read off
    :func:`reduce_columns` with unit tracks. A column that stays nonzero
    is a pivot column, independent of the earlier ones. A column j that
    reduces to zero has a track e_j plus earlier pivot columns; negated,
    its entries there are the coordinates of column j on them, column j
    of R."""
    cols = as_columns(A, p)
    rows: dict[int, int] = {}  # pivot column -> its row of R
    out = []
    units = ({j: 1} for j in range(len(cols.cols)))
    for j, (piv, _, track) in enumerate(reduce_columns(cols.cols, p, None, units)):
        if piv is not None:
            rows[j] = len(rows)
            out.append({rows[j]: 1})
        else:
            out.append({rows[i]: -c % p for i, c in track.items() if i != j})
    return ColumnMatrix(cols.n_rows, out).dense(), list(rows)


def rank(A, p: int) -> int:
    """The number of columns that stay nonzero under :func:`reduce_columns`."""
    return sum(piv is not None for piv, _, _ in reduce_columns(as_columns(A, p).cols, p))


def kernel_basis(A, p: int) -> np.ndarray:
    """Column basis of the null space of A, shape (n_cols, nullity): the
    tracks of the columns that reduce to zero, which is the rref's basis,
    e_j plus earlier pivot columns for each free column j."""
    cols = as_columns(A, p).cols
    units = ({j: 1} for j in range(len(cols)))
    kernel = [track for piv, _, track in reduce_columns(cols, p, None, units) if piv is None]
    return ColumnMatrix(len(cols), kernel).dense()


def solve(A, B, p: int):
    """One solution X of A X = B mod p, or None if inconsistent.

    B may be a vector or a matrix of stacked right-hand sides; X is zero
    at every free variable, so the solution is deterministic.
    """
    rhs = np.asarray(B)
    squeeze = rhs.ndim == 1
    rhs = as_columns(rhs[:, None] if squeeze else rhs, p)
    cols = as_columns(A, p)
    if rhs.n_rows != cols.n_rows:
        raise ValueError("right-hand side has wrong number of rows")
    pivots: dict = {}
    units = ({j: 1} for j in range(len(cols.cols)))
    for _ in reduce_columns(cols.cols, p, pivots, units):
        pass
    X = _coordinates(rhs.cols, pivots, len(cols.cols), p)
    return X[:, 0] if squeeze and X is not None else X


def matmul(A, B, p: int) -> np.ndarray:
    return (normalize(A, p) @ normalize(B, p)) % p


@dataclass
class ColumnMatrix:
    """A sparse GF(p) matrix by columns, each a dict {row: coeff in [1, p)}
    for every prime p, F2 included."""

    n_rows: int
    cols: list

    def dense(self) -> np.ndarray:
        check_dense(self.n_rows, len(self.cols))
        D = np.zeros((self.n_rows, len(self.cols)), dtype=np.int64)
        for j, col in enumerate(self.cols):  # by entry: at stalk sizes a numpy call costs more
            for r, c in col.items():
                D[r, j] = c
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


def block_columns(n_rows: int, n_cols: int, blocks, p: int) -> ColumnMatrix:
    """The n_rows x n_cols sum mod p of (row, col, B) blocks: int64 arrays B, each placed at (row, col)."""
    terms = ((i, k, x) for r, c, B in blocks for k, col in enumerate(B.T.tolist(), c) for i, x in enumerate(col, r) if x)
    return _sum_terms(n_rows, n_cols, terms, p)


def term_columns(n_rows: int, n_cols: int, rows, cols, coeffs, p: int) -> ColumnMatrix:
    """The n_rows x n_cols sum mod p of coeffs[t] at (rows[t], cols[t]) over the terms t of three integer arrays."""
    return _sum_terms(n_rows, n_cols, zip(rows.tolist(), cols.tolist(), (coeffs % p).tolist()), p)


def _sum_terms(n_rows: int, n_cols: int, terms, p: int) -> ColumnMatrix:
    """The one column builder: x added mod p at (r, c) for each (r, c, x) in ``terms``; zeros are dropped."""
    columns: list[dict] = [{} for _ in range(n_cols)]
    for r, c, x in terms:
        if y := ((col := columns[c]).get(r, 0) + x) % p:
            col[r] = y
        else:
            col.pop(r, None)
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
    cols: list[dict] = [{} for _ in range(M.shape[1])]
    for r, row in enumerate(M.tolist()):  # in Python: at stalk sizes a numpy call costs more
        for col, x in zip(cols, row):
            if x:
                col[r] = x
    return ColumnMatrix(M.shape[0], cols)


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
        if X is None:
            raise InternalInconsistencyError("vector is not a cycle modulo boundaries of this quotient")
        return X[:, 0] if squeeze else X


def _coordinates(columns: list, pivots: dict, n: int, p: int) -> np.ndarray | None:
    """Each column written on the tracks (over n indices) of the stored
    columns of ``pivots``: reduced by them without being stored, a column
    that reaches zero is the image of minus its track. Returns the
    n x len(columns) coefficients (its size checked first), or None if some column does not."""
    check_dense(n, len(columns))
    out = []
    tracks = ({} for _ in columns)
    for piv, _, track in reduce_columns(columns, p, pivots, tracks, insert=False):
        if piv is not None:
            return None
        out.append({k: -c % p for k, c in track.items()})  # column + (stored columns combined by track) = 0
    return ColumnMatrix(n, out).dense()
