"""Compressed sparse row matrices, triplet assembly, and space-time solves.

Assembly canonicalizes triplets by (row, col, value) so that any permutation
of the same triplet stream produces a bit-identical matrix; duplicates are
summed and exact zeros pruned.  The direct path (the default, because the
Newton-rate measurements must not be polluted by inner-solver error) is a
block LU in time.  The implicit scheme couples a time slice only to its two
neighbours, so in slice-major order the matrix is block tridiagonal: each
Schur complement ``S_k = A_kk - A_k,k-1 S_k-1^-1 A_k-1,k`` gets a dense
LAPACK LU, and a solve is one forward and one backward sweep over the
slices.  A direct solve whose relative residual exceeds ``DIRECT_TOL`` gets
one step of iterative refinement with the same factors; only if it still
exceeds it is the matrix reported as numerically singular.  The iterative
path is restarted GMRES with an incomplete LU, ordered by minimum degree on
the pattern of A^T + A (``PERMC_SPEC``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from .errors import NoConvergenceError, SingularMatrixError

DIRECT_TOL = 1e-12
PERMC_SPEC = "MMD_AT_PLUS_A"


@dataclass(frozen=True)
class Direct:
    pass


@dataclass(frozen=True)
class Iterative:
    tol: float = 1e-10
    max_iter: int = 5000
    restart: int = 50


@dataclass(frozen=True)
class SparseMatrix:
    """CSR matrix with strictly increasing column indices within each row."""

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_triplets(cls, n_rows, n_cols, rows, cols, vals) -> "SparseMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("triplet arrays must have matching shapes")
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows
                          or cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("triplet index out of range")
        # Value participates in the sort key so duplicate entries are summed
        # in a permutation-independent order.
        order = np.lexsort((vals, cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        key = rows * n_cols + cols
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]]) if key.size else np.array([], dtype=np.int64)
        summed = np.add.reduceat(vals, starts) if key.size else vals
        urows, ucols = rows[starts], cols[starts]
        keep = summed != 0.0
        urows, ucols, summed = urows[keep], ucols[keep], summed[keep]
        indptr = np.cumsum(np.bincount(urows + 1, minlength=n_rows + 1))
        return cls(n_rows, n_cols, indptr, ucols.astype(np.int64), summed)

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.data, self.indices, self.indptr),
                             shape=(self.n_rows, self.n_cols))


@dataclass(frozen=True)
class SolveMeta:
    method: str
    iterations: int
    residual_norm: float


@dataclass
class LinearSystem:
    matrix: SparseMatrix
    rhs: np.ndarray
    slices: np.ndarray | None = None  # time slice of each unknown
    meta: SolveMeta | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.rhs.shape != (self.matrix.n_rows,):
            raise ValueError(f"rhs length {self.rhs.shape} != n_rows {self.matrix.n_rows}")


def _rel_residual(a_csr, x, b) -> float:
    return float(np.linalg.norm(a_csr @ x - b) / max(np.linalg.norm(b), 1.0))


def _dense(rows, cols, vals, shape) -> np.ndarray:
    """Fortran-ordered dense matrix of the triplets, duplicates summed."""
    return np.bincount(cols * shape[0] + rows, vals,
                       minlength=shape[0] * shape[1]).reshape(shape, order="F")


class _SliceLU:
    """Block LU in time.  Slices are taken in increasing index order, so an
    index no unknown has is skipped; each slice's rows are read from the CSR
    matrix as the sweep reaches them, and its couplings to the previous and
    next slice are kept as slice-local (row, column, value) triplets."""

    def __init__(self, a: sp.csr_matrix, slices: np.ndarray | None):
        n = a.shape[0]
        slices = np.zeros(n, dtype=np.int64) if slices is None else np.asarray(slices)
        if slices.shape != (n,):
            raise ValueError(f"slice index length {slices.shape} != n_rows {n}")
        self.order = np.argsort(slices, kind="stable")
        ids, self.sizes = np.unique(slices, return_counts=True)
        off = np.concatenate([[0], np.cumsum(self.sizes)])
        self.parts = [slice(lo, hi) for lo, hi in zip(off[:-1], off[1:])]
        self.pos = pos = np.empty(n, dtype=np.int64)  # slice-major position of each unknown
        pos[self.order] = np.arange(n)
        self.lu, self.lower, self.upper = [], [], []
        for k, size in enumerate(self.sizes):
            lo, hi = off[k], off[k + 1]
            prev, after = off[max(k - 1, 0)], off[min(k + 2, len(self.sizes))]
            rows = self.order[lo:hi]  # slice k's rows, read straight from the CSR arrays
            count = a.indptr[rows + 1] - a.indptr[rows]
            at = np.arange(count.sum()) + np.repeat(a.indptr[rows] - np.cumsum(count) + count, count)
            row, col, val = np.repeat(np.arange(size), count), pos[a.indices[at]], a.data[at]
            if col.size and (col.min() < prev or col.max() >= after):
                raise ValueError(f"matrix couples time slice {ids[k]} to a non-neighbour slice")
            below, above = col < lo, col >= hi
            inside = ~(below | above)
            s = _dense(row[inside], col[inside] - lo, val[inside], (size, size))
            self.lower.append((row[below], col[below] - prev, val[below]))
            self.upper.append((row[above], col[above] - hi, val[above]))
            if k and below.any() and self.upper[k - 1][0].size:
                c = np.unique(self.upper[k - 1][1])
                s[:, c] -= self._schur_update(k, c)  # whole columns, contiguous in Fortran order
            lu, piv, info = lapack.dgetrf(s, overwrite_a=True)
            if info > 0:
                raise SingularMatrixError(f"exact zero pivot in time slice {ids[k]}: singular")
            self.lu.append((lu, piv))

    def _schur_update(self, k, c):
        """Columns ``c`` (the nonzero ones) of A_k,k-1 S_k-1^-1 A_k-1,k.  A_k,k-1
        reads rows t: of S_k-1^-1 A_k-1,k only, t its first nonzero column;
        with S_k-1 = P L U these need all of L but only U's trailing block."""
        (lr, lc, lv), (ur, uc, uv), (lu, piv) = self.lower[k], self.upper[k - 1], self.lu[k - 1]
        coupling = _dense(ur, np.searchsorted(c, uc), uv, (self.sizes[k - 1], c.size))
        y = blas.dtrsm(1.0, lu, lapack.dlaswp(coupling, piv, overwrite_a=True),
                       lower=1, diag=1, overwrite_b=True)
        t = lc.min()
        w = blas.dtrsm(1.0, lu[t:, t:], y[t:], lower=0, overwrite_b=True)
        indptr = np.cumsum(np.bincount(lr + 1, minlength=self.sizes[k] + 1))
        return sp.csr_matrix((lv, lc - t, indptr), shape=(self.sizes[k], w.shape[0])) @ w

    def _solve(self, k, b):
        return lapack.dgetrs(*self.lu[k], b)[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        y, part = b[self.order], self.parts

        def subtract(k, coupling, x):  # y_k -= (coupling block) x
            r, c, v = coupling
            y[part[k]] -= np.bincount(r, v * x[c], minlength=self.sizes[k])

        for k in range(1, len(part)):  # forward: y_k -= A_k,k-1 S_k-1^-1 y_k-1
            if self.lower[k][0].size:
                subtract(k, self.lower[k], self._solve(k - 1, y[part[k - 1]]))
        for k in reversed(range(len(part))):  # backward: x_k = S_k^-1 (y_k - A_k,k+1 x_k+1)
            if k + 1 < len(part):
                subtract(k, self.upper[k], y[part[k + 1]])
            y[part[k]] = self._solve(k, y[part[k]])
        return y[self.pos]


def factorize(mat: SparseMatrix, method: Direct | Iterative = Direct(),
              slices: np.ndarray | None = None):
    """Factor the square matrix once (block LU in time, or ILU).

    ``slices`` holds each unknown's time slice (direct path only; ``None``
    makes the matrix one slice, a dense LU).  Returns ``solve(b) -> (x,
    SolveMeta)``.  Raises ValueError when the matrix couples slices that are
    not neighbours, SingularMatrixError on an exact zero pivot or an ILU
    failure; the solve raises SingularMatrixError when the direct residual
    misses ``DIRECT_TOL`` after one refinement step, NoConvergenceError when
    GMRES exhausts its budget.
    """
    if mat.n_rows != mat.n_cols:
        raise ValueError("solve requires a square matrix")
    a = mat.to_scipy()

    if isinstance(method, Direct):
        lu = _SliceLU(a, slices)

        def solve_direct(b):
            b = np.asarray(b, dtype=float)
            x = lu.solve(b)
            if not np.all(np.isfinite(x)):
                raise SingularMatrixError("direct solve produced non-finite values")
            res = _rel_residual(a, x, b)
            if res > DIRECT_TOL:  # one step of iterative refinement
                x += lu.solve(b - a @ x)
                res = _rel_residual(a, x, b)
            if not res <= DIRECT_TOL:  # also when refinement left a NaN
                raise SingularMatrixError(
                    f"direct solve residual {res:.3e} exceeds {DIRECT_TOL:.1e} "
                    "after refinement; matrix is numerically singular"
                )
            return x, SolveMeta("direct", 1, res)

        return solve_direct

    try:
        ilu = spla.spilu(a.tocsc(), drop_tol=1e-6, fill_factor=20.0,
                         permc_spec=PERMC_SPEC)
    except RuntimeError as exc:
        raise SingularMatrixError(f"ILU preconditioner failed: {exc}") from exc
    precond = spla.LinearOperator(a.shape, ilu.solve)

    def solve_iterative(b):
        b = np.asarray(b, dtype=float)
        count = {"n": 0}

        def _cb(_):
            count["n"] += 1

        x, info = spla.gmres(a, b, rtol=method.tol, atol=0.0, restart=method.restart,
                             maxiter=method.max_iter, M=precond,
                             callback=_cb, callback_type="pr_norm")
        if info > 0:
            raise NoConvergenceError(
                f"GMRES did not reach tol {method.tol:.1e} within {method.max_iter} iterations"
            )
        if info < 0 or not np.all(np.isfinite(x)):
            raise SingularMatrixError("GMRES breakdown: invalid input or non-finite iterate")
        return x, SolveMeta("iterative", count["n"], _rel_residual(a, x, b))

    return solve_iterative


def solve(system: LinearSystem, method: Direct | Iterative = Direct()) -> np.ndarray:
    """Factor the square system and solve it, populating ``system.meta``.

    Raises as :func:`factorize` and the solve it returns do.
    """
    x, system.meta = factorize(system.matrix, method, system.slices)(system.rhs)
    return x

