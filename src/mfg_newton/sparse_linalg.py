"""Space-time solves of canonical scipy CSR matrices, and triplet assembly.

Matrices are ``scipy.sparse.csr_matrix`` with sorted column indices and no
stored zeros; triplet assembly sorts by (row, col, value), so any permutation
of one triplet stream gives a bit-identical matrix.  Every solve meets
``DIRECT_TOL`` on the relative residual, dense addends included, on one of
two paths, each planned once per sparsity pattern (``PLAN_CACHE``).

The block LU in time factors each slice's Schur complement densely, in two
levels where a slice holds both fields (``_SliceLU``), storing 3n^2 floats
per slice of n unknowns per field.  A residual that misses the bound gets
one refinement step, then the matrix is reported numerically singular.

The sweeps solve one field's block slice by slice in time, each diagonal
block factored by SuperLU: the value unknowns ``[0, split)`` backward, the
density unknowns forward.  One field is one sweep, checked as the block LU
is; two are solved by GMRES on the density Schur complement ``S = A_mm -
A_mu A_uu^-1 A_um``, preconditioned by the density sweep (Benzi, Golub &
Liesen, Acta Numerica 2005; Achdou & Perez, NHM 2012).  ``"iterative"``
always sweeps; ``"direct"`` from ``SWEEP_MIN_N`` unknowns per field's slice.
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
SWEEP_MIN_N = 128  # one field's unknowns in one slice from which "direct" sweeps


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
    method: str  # the path that ran: "block-lu", "sweep" or "schur"
    iterations: int  # GMRES iterations
    residual_norm: float


@dataclass
class LinearSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    slices: np.ndarray  # time slice of each unknown
    dense: list = field(default_factory=list)  # dense addends (row, column, block)
    split: int = 0  # the value unknowns, which come first; 0 or all: one field
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
        """Each dense addend, kept by reference, as the dense B of its slice,
        by slice; ValueError unless each is one slice's whole B, and no
        slice gets two.  A field keeps its unknowns' order, so a run of
        B's length whose ends are B's first and last lies in it."""
        placed = {}
        for r, c, block in dense:
            (nr, nc), n = block.shape, self.pos.size
            k = int(self.rank.take(r, mode="clip"))
            lo, mid, hi = self.offsets[k], self.offsets[k] + self.split[k][0], self.offsets[k + 1]
            ends = self.pos.take([r, r + nr - 1, c, c + nc - 1], mode="clip").tolist()
            if not (min(r, c) >= 0 and max(r + nr, c + nc) <= n and lo < mid and k not in placed
                    and (nr, nc) == (mid - lo, hi - mid) and ends == [lo, mid - 1, mid, hi - 1]):
                raise ValueError(f"dense addend at ({r}, {c}) is not one slice's B block, or a second one")
            placed[k] = block
        return placed


def _run(index: np.ndarray):
    """``index`` as a slice if it is a run of consecutive integers (or empty), for views."""
    lo = int(index[0]) if index.size else 0
    run = not index.size or int(index[-1]) - lo == index.size - 1 and (index[1:] > index[:-1]).all()
    return slice(lo, lo + index.size) if run else index


def _cached(build, a: sp.csr_matrix, slices: np.ndarray, *args, check=lambda plan: None):
    """``build(a, slices, *args)`` from the cache or built, and ``check(plan)``,
    which runs before the plan is cached (a plan it rejects is not)."""
    h = hashlib.blake2b(digest_size=16)
    for arr in (a.indptr, a.indices, slices):
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr).data)
    key = (build, a.shape[0], a.nnz, h.digest(), args)
    plan = _PLANS.pop(key) if key in _PLANS else build(a, slices, *args)
    checked = check(plan)
    _PLANS[key] = plan
    if len(_PLANS) > PLAN_CACHE:
        del _PLANS[next(iter(_PLANS))]
    return plan, checked


def _plan(a: sp.csr_matrix, slices: np.ndarray, dense=()) -> tuple[_SlicePlan, dict]:
    """The block LU's plan of ``a``'s pattern and ``slices``, from the cache
    or built, and the ``dense`` addends it places."""
    return _cached(_SlicePlan, a, np.asarray(slices), check=lambda plan: plan.place(dense))


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


class _SweepPlan:
    """Where the sweeps put each stored entry of a CSR pattern, for the fields
    ``[0, split)`` and ``[split, n)`` (one if split is 0 or n), each in time
    order with every coupling reading a later slice (a backward sweep) or
    every one an earlier (forward); ValueError otherwise.  Per field: its
    diagonal blocks' entries (CSC order), its couplings' entries, and per
    slice in sweep order its id, range, runs of both and their indices."""

    def __init__(self, a: sp.csr_matrix, slices: np.ndarray, split: int):
        n = a.shape[0]
        row = np.repeat(np.arange(n, dtype=np.int32), np.diff(a.indptr))
        self.fields = []
        for lo, hi in ((0, split), (split, n)) if 0 < split < n else ((0, n),):
            s = slices[lo:hi]
            if np.any(s[1:] < s[:-1]):
                raise ValueError(f"unknowns {lo}..{hi - 1} do not run in time order")
            bounds = np.r_[np.flatnonzero(np.r_[True, s[1:] != s[:-1]]), hi - lo].tolist()
            block = np.full(n, -1, dtype=np.int32)  # each unknown's slice in the field, or -1
            block[lo:hi] = np.repeat(np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds))
            br, bc = block[row], block[a.indices]
            inside = (br >= 0) & (bc >= 0)
            later, earlier = inside & (bc > br), inside & (bc < br)
            if later.any() and earlier.any():
                raise ValueError(f"unknowns {lo}..{hi - 1} read both earlier and later slices")
            diag = np.flatnonzero(inside & (br == bc))
            diag = diag[np.lexsort((row[diag], a.indices[diag]))]  # column-major, slice by slice
            colptr = np.searchsorted(a.indices[diag], np.arange(lo, hi + 1)).tolist()
            coupled = np.flatnonzero(later | earlier)  # row-major, slice by slice
            rowptr = np.searchsorted(row[coupled], np.add(bounds, lo)).tolist()
            parts = []
            for k, (b0, b1) in enumerate(zip(bounds[:-1], bounds[1:])):
                d, c = diag[colptr[b0]:colptr[b1]], coupled[rowptr[k]:rowptr[k + 1]]
                parts.append((s[b0], slice(b0, b1), slice(colptr[b0], colptr[b1]), row[d] - (lo + b0),
                              np.subtract(colptr[b0:b1 + 1], colptr[b0], dtype=np.int32),
                              slice(rowptr[k], rowptr[k + 1]), row[c] - (lo + b0), a.indices[c] - lo))
            self.fields.append((diag, coupled, parts[::-1] if later.any() else parts))


class _Sweeps:
    """A plan's sweeps on ``data``: each slice block's SuperLU factor and its
    couplings' values; SingularMatrixError names an exactly singular block."""

    def __init__(self, plan: _SweepPlan, data: np.ndarray):
        self.fields = []
        for entries, coupled, parts in plan.fields:
            values, couplings, steps = data[entries], data[coupled], []
            for sid, part, run, indices, indptr, crun, r, c in parts:
                block = sp.csc_matrix((values[run], indices, indptr), shape=(indptr.size - 1,) * 2)
                try:
                    lu = spla.splu(block, permc_spec=PERMC_SPEC)
                except RuntimeError as exc:
                    raise SingularMatrixError(f"exactly singular block in time slice {sid}") from exc
                steps.append((part, lu, r, c, couplings[crun]))
            self.fields.append(steps)

    def solve(self, f: int, b: np.ndarray) -> np.ndarray:
        """Field f's block solved for ``b``, that field's part of a right-hand side."""
        x = np.empty_like(b)
        for part, lu, r, c, v in self.fields[f]:
            x[part] = lu.solve(b[part] - np.bincount(r, v * x[c], minlength=part.stop - part.start))
        return x


def _checked(a, dense, solve, method: str):
    """``solve(b) -> (x, GMRES iterations)`` with the bound checked on ``a``
    and its addends: one refinement step when the residual misses it, then
    NoConvergenceError on the Schur path, SingularMatrixError otherwise."""

    def solve_checked(b):
        b = np.asarray(b, dtype=float)
        x, its = solve(b)
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError("direct solve produced non-finite values")
        res = _rel_residual(a, dense, x, b)
        if res > DIRECT_TOL:  # one step of iterative refinement
            dx, more = solve(b - apply(a, dense, x))
            x, its = x + dx, its + more
            res = _rel_residual(a, dense, x, b)
        if not res <= DIRECT_TOL and method == "schur":  # also when refinement left a NaN
            raise NoConvergenceError(f"GMRES residual {res:.3e} exceeds {DIRECT_TOL:.1e} after {its} iterations")
        if not res <= DIRECT_TOL:
            raise SingularMatrixError(f"direct solve residual {res:.3e} exceeds {DIRECT_TOL:.1e} "
                                      "after refinement; matrix is numerically singular")
        return x, SolveMeta(method, its, res)

    return solve_checked


def _schur(a, dense, sweeps: _Sweeps, split: int):
    """The two-field solve by GMRES on the density Schur complement, to half
    the bound on S, the ``dense`` addends all in A_um."""
    n = a.shape[0]

    def schur(dm):  # S dm = A_mm dm - A_mu A_uu^-1 A_um dm, the m rows of A [-A_uu^-1 A_um dm; dm]
        x = np.zeros(n)
        x[split:] = dm
        x[:split] = -sweeps.solve(0, apply(a, dense, x)[:split])
        return (a @ x)[split:]

    s_op, precond = (spla.LinearOperator((n - split,) * 2, matvec=f, dtype=float)
                     for f in (schur, lambda r: sweeps.solve(1, r)))

    def solve_schur(b):
        norms, x = [], np.zeros(n)  # one norm per GMRES iteration
        x[:split] = -sweeps.solve(0, b[:split])
        rhs = b[split:] + (a @ x)[split:]  # b_m - A_mu A_uu^-1 b_u
        x[split:], info = spla.gmres(s_op, rhs, rtol=0.0, atol=0.5 * DIRECT_TOL * max(np.linalg.norm(b), 1.0),
                                     restart=GMRES_RESTART, maxiter=GMRES_MAX_ITER, M=precond,
                                     callback=norms.append, callback_type="pr_norm")
        if info or not np.all(np.isfinite(x)):  # also a NaN iterate
            raise NoConvergenceError(f"GMRES missed its bound on S after {len(norms)} iterations")
        x[:split] = 0.0
        x[:split] = sweeps.solve(0, b[:split] - apply(a, dense, x)[:split])
        return x, len(norms)

    return solve_schur


def factorize(a: sp.csr_matrix, slices: np.ndarray, dense=(), method: str = "direct", split: int = 0):
    """Factor the square canonical CSR matrix and its ``dense`` addends once,
    given each unknown's time slice and ``split``, where the density unknowns
    start (0 or n: one field): the block LU in time while ``"direct"`` and
    every field's slices hold fewer than ``SWEEP_MIN_N`` unknowns, else the
    sweeps, one for one field and GMRES on the Schur complement for two.

    Returns ``solve(b) -> (x, SolveMeta)``, x with a relative residual of at
    most ``DIRECT_TOL``.  Raises ValueError on an unknown method, a pattern
    the path's plan rejects, an addend that is not one slice's whole B (or a
    second on one) for the block LU or not in ``A_um`` for the sweeps, and
    SingularMatrixError on an exact zero pivot or singular slice block.  The
    solve refines once a residual that misses the bound, then raises as
    :func:`_checked` does, or NoConvergenceError when GMRES's budget runs out."""
    n, slices = a.shape[0], np.asarray(slices)
    if a.shape[0] != a.shape[1]:
        raise ValueError("solve requires a square matrix")
    if method not in METHODS:
        raise ValueError(f"linear method must be one of {list(METHODS)}, got {method!r}")
    if slices.shape != (n,):
        raise ValueError(f"slice index length {slices.shape} != n_rows {n}")
    per_slice = max((np.unique(s, return_counts=True)[1].max() for s in (slices[:split], slices[split:])
                     if s.size), default=0)
    if method == "direct" and per_slice < SWEEP_MIN_N:
        lu = _SliceLU(*_plan(a, slices, dense), a.data)
        return _checked(a, dense, lambda b: (lu.solve(b), 0), "block-lu")
    for r, c, block in dense:  # none with one field
        if not (r >= 0 and r + block.shape[0] <= split <= c and c + block.shape[1] <= n):
            raise ValueError(f"dense addend at ({r}, {c}) does not lie in A_um")
    sweeps = _Sweeps(_cached(_SweepPlan, a, slices, split)[0], a.data)
    if 0 < split < n:
        return _checked(a, dense, _schur(a, dense, sweeps, split), "schur")
    return _checked(a, (), lambda b: (sweeps.solve(0, b), 0), "sweep")


def solve(system: LinearSystem, method: str = "direct") -> np.ndarray:
    """Factor the square system and solve it, populating ``system.meta``;
    raises as :func:`factorize` and the solve it returns do."""
    x, system.meta = factorize(system.matrix, system.slices, system.dense, method, system.split)(system.rhs)
    return x
