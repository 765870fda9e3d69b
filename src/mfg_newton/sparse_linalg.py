"""Compressed sparse row matrices, triplet assembly, and space-time solves.

Assembly canonicalizes triplets by (row, col, value) so that any permutation
of the same triplet stream produces a bit-identical matrix; duplicates are
summed and exact zeros pruned.  The direct path (the default, because the
Newton-rate measurements must not be polluted by inner-solver error) is a
block LU in time.  The implicit scheme couples a time slice only to its two
neighbours, so in slice-major order the matrix is block tridiagonal: each
Schur complement ``S_k = A_kk - A_k,k-1 S_k-1^-1 A_k-1,k`` gets a dense LAPACK
LU, and a solve is one forward and one backward sweep over the slices.  A plan
of where each stored entry goes is built once per sparsity pattern and slice
index, so a Newton step, whose pattern never changes, redoes only the numeric
factorization; the two most recent plans are kept, as Picard alternates
between two patterns.  A direct solve whose relative residual exceeds
``DIRECT_TOL`` gets one step of iterative refinement with the same factors;
only if it still exceeds it is the matrix reported as numerically singular.
The iterative path is restarted GMRES with an incomplete LU, ordered by
minimum degree on the pattern of A^T + A (``PERMC_SPEC``).
"""

from __future__ import annotations

import hashlib
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


_PLANS: dict = {}  # pattern key -> _SlicePlan, least recently used first
PLAN_CACHE = 2  # Picard alternates between its value block and its density block


class _SlicePlan:
    """Where the block LU in time puts each stored entry of one CSR pattern,
    as int32 index arrays.  Slices go in increasing index order (an index no
    unknown has is skipped).  Per slice: its diagonal block's entries and their
    flat Fortran positions, its couplings to the previous and next slice as
    slice-local (row, column, entry) triplets, and the ranges the Schur update
    touches (see ``_SliceLU._schur_update``)."""

    def __init__(self, a: sp.csr_matrix, slices: np.ndarray):
        n = a.shape[0]
        self.order = np.argsort(slices, kind="stable").astype(np.int32)
        self.ids, self.sizes = np.unique(slices, return_counts=True)
        off = np.concatenate([[0], np.cumsum(self.sizes)]).tolist()
        self.parts = [slice(lo, hi) for lo, hi in zip(off[:-1], off[1:])]
        self.pos = pos = np.empty(n, dtype=np.int32)  # slice-major position of each unknown
        pos[self.order] = np.arange(n)
        self.blocks, self.lower, self.upper, self.schur = [], [], [], []
        for k, size in enumerate(self.sizes.tolist()):
            lo, hi = off[k], off[k + 1]
            prev, after = off[max(k - 1, 0)], off[min(k + 2, len(self.sizes))]
            rows = self.order[lo:hi]  # slice k's rows, read straight from the CSR arrays
            count = a.indptr[rows + 1] - a.indptr[rows]
            at = np.arange(count.sum()) + np.repeat(a.indptr[rows] - np.cumsum(count) + count, count)
            row, at = np.repeat(np.arange(size, dtype=np.int32), count), at.astype(np.int32)
            col = pos[a.indices[at]]
            if col.size and (col.min() < prev or col.max() >= after):
                raise ValueError(f"matrix couples time slice {self.ids[k]} to a non-neighbour slice")
            below, above = col < lo, col >= hi
            inside = ~(below | above)
            lr, lc = row[below], col[below] - prev
            self.blocks.append((at[inside], row[inside] + (col[inside] - lo) * size))
            self.lower.append((lr, lc, at[below]))
            self.upper.append((row[above], col[above] - hi, at[above]))
            starts = np.flatnonzero(np.r_[True, lr[1:] != lr[:-1]])
            uc = self.upper[k - 1][1]  # read only for k > 0: slice 0 has no lower coupling
            self.schur.append((lc.min(), uc.min(), uc.max() + 1, lr[starts], starts)
                              if lr.size and uc.size else None)


def _plan(a: sp.csr_matrix, slices: np.ndarray | None) -> _SlicePlan:
    """The plan of ``a``'s pattern and ``slices``, from the cache or built."""
    n = a.shape[0]
    slices = np.zeros(n, dtype=np.int64) if slices is None else np.asarray(slices)
    if slices.shape != (n,):
        raise ValueError(f"slice index length {slices.shape} != n_rows {n}")
    h = hashlib.blake2b(digest_size=16)
    for arr in (a.indptr, a.indices, slices):
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr).data)
    key = (n, a.nnz, h.digest())
    plan = _PLANS.pop(key) if key in _PLANS else _SlicePlan(a, slices)
    _PLANS[key] = plan
    if len(_PLANS) > PLAN_CACHE:
        del _PLANS[next(iter(_PLANS))]
    return plan


class _SliceLU:
    """Numeric block LU in time of the values ``data`` on a plan's pattern:
    each Schur complement ``S_k`` is filled from ``data`` with one gather,
    updated, and factored with LAPACK ``dgetrf``."""

    def __init__(self, plan: _SlicePlan, data: np.ndarray):
        self.plan, self.lu = plan, []
        self.lower, self.upper = ([(r, c, data[e]) for r, c, e in x] for x in (plan.lower, plan.upper))
        for k, (entries, flat) in enumerate(plan.blocks):
            s = np.zeros((plan.sizes[k],) * 2, order="F")
            s.ravel("F")[flat] = data[entries]  # a view: s is Fortran-ordered
            if plan.schur[k] is not None:
                self._schur_update(k, s)
            lu, piv, info = lapack.dgetrf(s, overwrite_a=True)
            if info > 0:
                raise SingularMatrixError(f"exact zero pivot in time slice {plan.ids[k]}: singular")
            self.lu.append((lu, piv))

    def _schur_update(self, k, s):
        """s[rows, c0:c1] -= A_k,k-1 S_k-1^-1 A_k-1,k, on the rows of A_k,k-1 and the
        columns c0:c1 of A_k-1,k.  A_k,k-1 reads rows t: only, t its first column;
        with S_k-1 = P L U these need all of L but only U's trailing block."""
        t, c0, c1, rows, starts = self.plan.schur[k]
        (_, lc, lv), (ur, uc, uv), (lu, piv) = self.lower[k], self.upper[k - 1], self.lu[k - 1]
        coupling = np.zeros((lu.shape[0], c1 - c0), order="F")
        coupling[ur, uc - c0] = uv
        y = blas.dtrsm(1.0, lu, lapack.dlaswp(coupling, piv, overwrite_a=True),
                       lower=1, diag=1, overwrite_b=True)
        w = blas.dtrsm(1.0, lu[t:, t:], y[t:], lower=0, overwrite_b=True)
        update = lv[:, None] * w[lc - t]
        if starts.size < lc.size:  # a row of A_k,k-1 with several entries
            update = np.add.reduceat(update, starts)
        s[rows, c0:c1] -= update

    def _solve(self, k, b):
        return lapack.dgetrs(*self.lu[k], b)[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        y, part, sizes = b[self.plan.order], self.plan.parts, self.plan.sizes

        def subtract(k, coupling, x):  # y_k -= (coupling block) x
            r, c, v = coupling
            y[part[k]] -= np.bincount(r, v * x[c], minlength=sizes[k])

        for k in range(1, len(part)):  # forward: y_k -= A_k,k-1 S_k-1^-1 y_k-1
            if self.lower[k][0].size:
                subtract(k, self.lower[k], self._solve(k - 1, y[part[k - 1]]))
        for k in reversed(range(len(part))):  # backward: x_k = S_k^-1 (y_k - A_k,k+1 x_k+1)
            if k + 1 < len(part):
                subtract(k, self.upper[k], y[part[k + 1]])
            y[part[k]] = self._solve(k, y[part[k]])
        return y[self.plan.pos]


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
        lu = _SliceLU(_plan(a, slices), a.data)

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

