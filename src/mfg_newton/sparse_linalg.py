"""Space-time solves of canonical scipy CSR matrices, and triplet assembly.

Matrices are ``scipy.sparse.csr_matrix`` with sorted column indices and no
stored zeros.  Triplet assembly sorts triplets by (row, col, value), so any
permutation of the same triplet stream gives a bit-identical matrix.  The
direct path is a block LU in time, one forward and one backward sweep over
the slices.  The implicit scheme's density unknowns m read the previous
slice, its value unknowns u (the rest) the next, so each Schur complement
``S_k = A_kk - A_k,k-1 S_k-1^-1 A_k-1,k`` differs from ``A_kk`` only in its
m rows and u columns, by a column gather.  A slice holding both m and u is
factored in two levels (Golub & Van Loan, Matrix Computations, 4.5), as
``[[A, B], [C, D]]`` with dense LUs of A and of ``D - C A^-1 B``; any other
slice gets one dense LU.  W B is a column gather
over B's entries (the local coupling's diagonal) and one ``dgemm`` over
dense addends, ``(row, column, block)`` triples that each lie in one
slice's B (the kernel coupling's blocks) and stay out of the CSR and its
plan.  Any other pattern raises ValueError naming its slice.  Plans are
cached per sparsity pattern and slice index (the two most recent: Picard
alternates between two patterns), so a Newton step redoes only the numeric
factorization.  A direct solve whose relative residual, addends included,
exceeds ``DIRECT_TOL`` gets one step of iterative refinement; only if it
still exceeds it is the matrix reported as numerically singular.  The
iterative path is restarted GMRES with an incomplete LU, ordered by minimum
degree on the pattern of A^T + A (``PERMC_SPEC``), of the matrix and its
addends in one CSR; it stops on the same bound and check.  Direct is the
default: it meets the bound with no iteration budget to run out, and the
Newton-rate measurements must not be polluted by inner-solver error.
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
METHODS = ("direct", "iterative")
GMRES_RESTART = 50  # inner iterations between restarts
GMRES_MAX_ITER = 5000  # restart cycles


class SparseMatrix:
    """Triplet assembly; the solver builds its matrices with scipy instead."""

    @classmethod
    def from_triplets(cls, n_rows, n_cols, rows, cols, vals) -> sp.csr_matrix:
        """Canonical CSR of the triplets: duplicates summed, zeros pruned."""
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
        return sp.csr_matrix((summed, ucols, indptr), shape=(n_rows, n_cols))


@dataclass(frozen=True)
class SolveMeta:
    method: str
    iterations: int
    residual_norm: float


@dataclass
class LinearSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    slices: np.ndarray  # time slice of each unknown
    dense: list = field(default_factory=list)  # dense addends (row, column, block)
    meta: SolveMeta | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.rhs.shape != (self.matrix.shape[0],):
            raise ValueError(f"rhs length {self.rhs.shape} != n_rows {self.matrix.shape[0]}")


def apply(a: sp.csr_matrix, dense, x: np.ndarray) -> np.ndarray:
    """``a @ x`` plus each dense addend's block times its columns of x."""
    y = a @ x
    for r, c, block in dense:
        y[r:r + block.shape[0]] += block @ x[c:c + block.shape[1]]
    return y


def _rel_residual(a_csr, dense, x, b) -> float:
    return float(np.linalg.norm(apply(a_csr, dense, x) - b) / max(np.linalg.norm(b), 1.0))


_PLANS: dict = {}  # pattern key -> _SlicePlan, least recently used first
PLAN_CACHE = 2  # Picard alternates between its value block and its density block


class _SlicePlan:
    """Where the block LU in time puts each stored entry of one CSR pattern,
    as int32 index arrays, slices in increasing index order (an index no
    unknown has is skipped).  A slice holding both m (its rows that read the
    previous slice, its columns the next slice reads) and u (the rest)
    splits, u before m.  Per slice: ``split`` (u's size or 0, the block's
    length, B's rows and columns), block entries and flat positions (packed
    A, m rows, B's entries), couplings as local (row, column, entry)
    triplets (A_k,k-1's columns from S_k-1's m block on), the Schur update's
    (columns, rows, A_k,k-1's columns, A_k-1,k's rows).  ValueError names a
    slice whose B has two entries in a row or column, or whose update is no
    column gather into C: a run of u columns, one entry each, read from
    S_k-1's u rows, through one entry per row of A_k,k-1."""

    def __init__(self, a: sp.csr_matrix, slices: np.ndarray):
        n = a.shape[0]
        self.ids, rank, self.sizes = np.unique(slices, return_inverse=True, return_counts=True)
        self.rank = rank = rank.astype(np.int32)
        step = rank[a.indices]  # per entry, its column's slice less its row's
        step -= np.repeat(rank, np.diff(a.indptr))

        def ends(entries):  # the rows and the columns of the masked entries
            e = np.flatnonzero(entries)
            return np.searchsorted(a.indptr, e, "right") - 1, a.indices[e]

        if np.any(far := (step > 1) | (step < -1)):
            raise ValueError(f"matrix couples time slice {self.ids[rank[ends(far)[0]].min()]}"
                             " to a non-neighbour slice")
        m = np.isin(np.arange(n), np.r_[ends(step == -1)])
        del step  # a per-entry array, freed before the per-slice arrays are built
        n_m = np.bincount(rank[m], minlength=self.sizes.size)
        n_u = np.where((n_m > 0) & (n_m < self.sizes), self.sizes - n_m, 0).tolist()
        self.order = np.lexsort((m, rank)).astype(np.int32)
        self.offsets = off = np.concatenate([[0], np.cumsum(self.sizes)]).tolist()
        self.parts = [slice(lo, hi) for lo, hi in zip(off[:-1], off[1:])]
        self.pos = pos = np.empty(n, dtype=np.int32)  # slice-major position of each unknown
        pos[self.order] = np.arange(n)
        self.split, self.blocks, self.lower, self.upper, self.schur = [], [], [], [], []
        for k, (size, nu) in enumerate(zip(self.sizes.tolist(), n_u)):
            lo, hi = off[k], off[k + 1]
            rows = self.order[lo:hi]  # slice k's rows, read straight from the CSR arrays
            count = a.indptr[rows + 1] - a.indptr[rows]
            at = np.arange(count.sum()) + np.repeat(a.indptr[rows] - np.cumsum(count) + count, count)
            row, at = np.repeat(np.arange(size, dtype=np.int32), count), at.astype(np.int32)
            col = pos[a.indices[at]]
            below, above = col < lo, col >= hi
            inside = ~(below | above)
            lr, lc = row[below], col[below] - off[k - 1] - n_u[k - 1]  # none for k = 0
            r, c, nm = row[inside], col[inside] - lo, size - nu
            b = (r < nu) & (c >= nu)
            br, bc = r[b], c[b] - nu
            if any(np.bincount(x, minlength=1).max() > 1 for x in (br, bc)):
                raise ValueError(f"time slice {self.ids[k]}: B holds two entries in a row or a column")
            flat = np.where(r >= nu, nu * nu + r - nu + c * nm, r + c * nu)  # column-major A, m rows
            flat[b] = nu * size + nm * nm + np.arange(br.size)  # then B's entries
            self.split.append((nu, nu * size + nm * nm + br.size, _run(br), _run(bc)))
            self.blocks.append((at[inside], flat))
            self.lower.append((lr, lc, at[below]))
            self.upper.append((row[above], col[above] - hi, at[above]))
            ur, uc = self.upper[k - 1][:2]  # read only for k > 0: slice 0 has no lower coupling
            cols = _run(uc) if lr.size and uc.size else None
            if cols is not None and not (isinstance(cols, slice) and cols.stop <= nu
                                         and ur.max() < n_u[k - 1] and np.all(lr[1:] > lr[:-1])):
                raise ValueError(f"time slice {self.ids[k]}: Schur update is not a column gather")
            self.schur.append(None if cols is None else (cols, _run(lr - nu), _run(lc), _run(ur)))

    def place(self, dense) -> dict:
        """The dense addends summed into one dense B per slice, by slice;
        ValueError unless each lies in one slice's B.  A field keeps its
        unknowns' order, so a run whose ends lie in one field, length - 1
        apart, lies in it."""
        placed = {}
        for r, c, block in dense:
            (nr, nc), n = block.shape, self.pos.size
            r0, r1, c0, c1 = self.pos.take([r, r + nr - 1, c, c + nc - 1], mode="clip").tolist()
            k = int(self.rank.take(r, mode="clip"))
            lo, mid, hi = self.offsets[k], self.offsets[k] + self.split[k][0], self.offsets[k + 1]
            if not (min(r, c) >= 0 and max(r + nr, c + nc) <= n and r1 - r0 == nr - 1
                    and c1 - c0 == nc - 1 and r1 < mid <= c0 and c1 < hi):
                raise ValueError(f"dense addend at ({r}, {c}) does not lie in one slice's B block")
            b = placed.setdefault(k, np.zeros((mid - lo, hi - mid), order="F"))
            b[r0 - lo:r1 - lo + 1, c0 - mid:c1 - mid + 1] += block
        return placed


def _run(index: np.ndarray):
    """``index`` as a slice if it is a run of consecutive integers (or empty), for views."""
    lo = int(index[0]) if index.size else 0
    run = not index.size or int(index[-1]) - lo == index.size - 1 and (index[1:] > index[:-1]).all()
    return slice(lo, lo + index.size) if run else index


def _plan(a: sp.csr_matrix, slices: np.ndarray, dense=()) -> tuple[_SlicePlan, dict]:
    """The plan of ``a``'s pattern and ``slices``, from the cache or built,
    and the ``dense`` addends it places."""
    n, slices = a.shape[0], np.asarray(slices)
    if slices.shape != (n,):
        raise ValueError(f"slice index length {slices.shape} != n_rows {n}")
    h = hashlib.blake2b(digest_size=16)
    for arr in (a.indptr, a.indices, slices):
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr).data)
    key = (n, a.nnz, h.digest())
    plan = _PLANS.pop(key) if key in _PLANS else _SlicePlan(a, slices)
    placed = plan.place(dense)  # a misplaced addend raises before the plan is cached
    _PLANS[key] = plan
    if len(_PLANS) > PLAN_CACHE:
        del _PLANS[next(iter(_PLANS))]
    return plan, placed


class _SliceLU:
    """Numeric block LU in time of ``data`` on a plan's pattern, with the
    addends its ``place`` returned: each Schur complement ``S_k`` is
    gathered, its C updated by a column gather, and factored with LAPACK, a
    split ``[[A, B], [C, D]]`` in its packed blocks: ``dgetrf(A)``, ``W = C
    A^-1`` over C, ``dgetrf(D - W B)`` over D, B's entries and its dense
    addends kept for the solve."""

    def __init__(self, plan: _SlicePlan, placed: dict, data: np.ndarray):
        self.plan, self.lu = plan, []
        self.lower, self.upper = ([(r, c, data[e]) for r, c, e in x] for x in (plan.lower, plan.upper))
        for k, (entries, flat) in enumerate(plan.blocks):
            (nu, length, br, bc), size = plan.split[k], plan.sizes[k]
            nm, buf = size - nu, np.zeros(length)
            buf[flat] = data[entries]
            a, bv = buf[:nu * nu].reshape(nu, nu, order="F"), buf[nu * size + nm * nm:]
            cd = buf[nu * nu:nu * size + nm * nm].reshape(nm, size, order="F")  # m rows, or all
            if plan.schur[k] is not None:
                self._schur_update(k, cd)
            d = cd[:, nu:]
            if nu:
                a = self._dgetrf(k, a)
                # W = C A^-1 = C U^-1 L^-1 P^T, column-major so that its columns gather
                w = blas.dtrsm(1.0, a[0], cd[:, :nu], side=1, lower=0, overwrite_b=True)
                w = blas.dtrsm(1.0, a[0], w, side=1, lower=1, diag=1, overwrite_b=True)
                w[:] = w[:, np.argsort(lapack.dlaswp(np.arange(nu, dtype=float)[:, None], a[1])[:, 0])]
                d[:, bc] -= w[:, br] * bv  # W B: a column gather over B's entries,
                if k in placed:  # one dgemm over its addends
                    d = blas.dgemm(-1.0, w, placed[k], 1.0, d, overwrite_c=True)
            self.lu.append((a, w, self._dgetrf(k, d), (br, bc, bv, placed.get(k))) if nu
                           else (None, None, self._dgetrf(k, d), None))

    def _dgetrf(self, k, s):
        lu, piv, info = lapack.dgetrf(s, overwrite_a=True)
        if info > 0:
            raise SingularMatrixError(f"exact zero pivot in time slice {self.plan.ids[k]}: singular")
        return lu, piv

    def _solve_m(self, k, r):
        """x_m = Sigma^-1 (r_m - W r_u), the rows of S_k^-1 r that slice k+1 reads (all of
        them if S_k = Sigma is unsplit), r a vector or column-major block it may overwrite;
        r may hold only r_m - W r_u, as the Schur update's does."""
        _, w, sigma, _ = self.lu[k]
        if w is not None and r.shape[0] > w.shape[0]:  # all of S_k's rows: reduce to r_m - W r_u
            nu = w.shape[1]
            r = (blas.dgemv if r.ndim == 1 else blas.dgemm)(-1.0, w, r[:nu], 1.0, r[nu:])
        return lapack.dgetrs(*sigma, r, overwrite_b=True)[0]

    def _schur_update(self, k, s):
        """s[rows, cols] -= A_k,k-1 x_m for S_k-1 x = A_k-1,k; r_m - W r_u is -W A_k-1,k, a
        column gather, as A_k-1,k's rows lie in S_k-1's u, its columns cols one entry each."""
        cols, rows, lcol, urow = self.plan.schur[k]
        lv, uv = self.lower[k][2], self.upper[k - 1][2]
        w = np.multiply(self.lu[k - 1][1][:, urow], -uv, order="F")
        s[rows, cols] -= lv[:, None] * self._solve_m(k - 1, w)[lcol]

    def _solve(self, k, b):
        a, w, _, bq = self.lu[k]
        xm = self._solve_m(k, b)  # then x_u = A^-1 (b_u - B x_m), overwriting b_u
        if a is None:
            return xm
        (br, bc, bv, addends), bu = bq, b[:w.shape[1]]
        bu[br] -= bv * xm[bc]
        if addends is not None:
            bu = blas.dgemv(-1.0, addends, xm, 1.0, bu)
        return np.concatenate([lapack.dgetrs(*a, bu)[0], xm])

    def solve(self, b: np.ndarray) -> np.ndarray:
        y, part, sizes = b[self.plan.order], self.plan.parts, self.plan.sizes

        def subtract(k, coupling, x):  # y_k -= (coupling block) x
            r, c, v = coupling
            y[part[k]] -= np.bincount(r, v * x[c], minlength=sizes[k])

        for k in range(1, len(part)):  # forward: y_k -= A_k,k-1 S_k-1^-1 y_k-1
            if self.lower[k][0].size:
                subtract(k, self.lower[k], self._solve_m(k - 1, y[part[k - 1]].copy()))
        for k in reversed(range(len(part))):  # backward: x_k = S_k^-1 (y_k - A_k,k+1 x_k+1)
            if k + 1 < len(part):
                subtract(k, self.upper[k], y[part[k + 1]])
            y[part[k]] = self._solve(k, y[part[k]])
        return y[self.plan.pos]


def factorize(a: sp.csr_matrix, slices: np.ndarray, dense=(), method: str = "direct"):
    """Factor the square canonical CSR matrix and its ``dense`` addends once:
    a block LU in time over ``slices``, each unknown's time slice (one slice
    is one dense LU), or for ``"iterative"`` an ILU of both as one CSR.

    Returns ``solve(b) -> (x, SolveMeta)``, x with a relative residual of at
    most ``DIRECT_TOL``.  Raises ValueError on an unknown method, a pattern
    ``_SlicePlan`` rejects or an addend outside one slice's B,
    SingularMatrixError on an exact zero pivot or an ILU failure; the solve
    raises SingularMatrixError when the direct residual misses the bound
    after one refinement step, NoConvergenceError when GMRES misses it
    within its budget.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("solve requires a square matrix")
    if method not in METHODS:
        raise ValueError(f"linear method must be one of {list(METHODS)}, got {method!r}")

    if method == "direct":
        lu = _SliceLU(*_plan(a, slices, dense), a.data)

        def solve_direct(b):
            b = np.asarray(b, dtype=float)
            x = lu.solve(b)
            if not np.all(np.isfinite(x)):
                raise SingularMatrixError("direct solve produced non-finite values")
            res = _rel_residual(a, dense, x, b)
            if res > DIRECT_TOL:  # one step of iterative refinement
                x += lu.solve(b - apply(a, dense, x))
                res = _rel_residual(a, dense, x, b)
            if not res <= DIRECT_TOL:  # also when refinement left a NaN
                raise SingularMatrixError(
                    f"direct solve residual {res:.3e} exceeds {DIRECT_TOL:.1e} "
                    "after refinement; matrix is numerically singular"
                )
            return x, SolveMeta("direct", 1, res)

        return solve_direct

    for r, c, block in dense:  # GMRES and its ILU take the addends into one CSR
        i, j = np.indices(block.shape).reshape(2, -1)
        a = a + sp.csr_matrix((block.ravel(), (i + r, j + c)), shape=a.shape)
    try:
        ilu = spla.spilu(a.tocsc(), drop_tol=1e-6, fill_factor=20.0,
                         permc_spec=PERMC_SPEC)
    except RuntimeError as exc:
        raise SingularMatrixError(f"ILU preconditioner failed: {exc}") from exc
    precond = spla.LinearOperator(a.shape, ilu.solve)

    def solve_iterative(b):
        b, norms = np.asarray(b, dtype=float), []  # one norm per GMRES iteration
        # stops at ||b - a x|| <= max(rtol ||b||, atol), the direct path's bound
        x, info = spla.gmres(a, b, rtol=DIRECT_TOL, atol=DIRECT_TOL, restart=GMRES_RESTART,
                             maxiter=GMRES_MAX_ITER, M=precond,
                             callback=norms.append, callback_type="pr_norm")
        res = _rel_residual(a, (), x, b)
        if info or not res <= DIRECT_TOL:  # also a NaN iterate
            raise NoConvergenceError(
                f"GMRES residual {res:.3e} exceeds {DIRECT_TOL:.1e} after {len(norms)} iterations")
        return x, SolveMeta("iterative", len(norms), res)

    return solve_iterative


def solve(system: LinearSystem, method: str = "direct") -> np.ndarray:
    """Factor the square system and solve it, populating ``system.meta``.

    Raises as :func:`factorize` and the solve it returns do.
    """
    x, system.meta = factorize(system.matrix, system.slices, system.dense, method)(system.rhs)
    return x
