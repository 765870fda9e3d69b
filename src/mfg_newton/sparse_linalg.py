"""Space-time solves of canonical scipy CSR matrices, and triplet assembly.

Matrices are ``scipy.sparse.csr_matrix`` with sorted column indices;
triplet assembly also prunes zeros and sorts by (row, col, value), so any
permutation of one triplet stream gives a bit-identical matrix.  Every
solve meets ``DIRECT_TOL`` on the relative residual, an optional operator
on A_um included (no sweep factors it); a residual that misses it gets one
refinement step, then the solve raises.

The unknowns ``[0, split)`` are the value field and ``[split, n)`` the
density field, each in time order (one field if split is 0 or n).  A sweep
solves one field's block slice by slice in time, the value field backward
and the density field forward, in one reverse Cuthill-McKee order per field
that keeps each slice's unknowns together.  In that order each slice's
diagonal block is a band matrix, factored by LAPACK's band LU up to
``BAND_MAX`` half-bandwidth, in one band storage per field (kl raised to
dgbtrf's block size ``LAPACK_NB`` where cheap; the plan keeps a dropped
factor's storages for the next factorization), and by SuperLU beyond it;
its couplings are layers gathered from x (a Newton system's slice has one).
One field is one sweep; two are solved by GMRES (Saad & Schultz, SIAM J.
Sci. Stat. Comput. 1986) on the density Schur complement
``S = A_mm - A_mu A_uu^-1 A_um``, right-preconditioned by the density sweep
(Benzi, Golub & Liesen, Acta Numerica 2005; Achdou & Perez, NHM 2012).
Each Krylov vector keeps its density sweep, as Saad's FGMRES keeps its
preconditioned vectors (SIAM J. Sci. Comput. 1993), so a product with S is
one more sweep, of the value field.  Each restart cycle starts with the
value sweep from the density so far, and checks S's true residual; the last
one is the back-substitution: k iterations in one cycle take 2k + 2 sweeps,
``GMRES_MAX_ITER`` iterations at most.  The sweeps are planned once per
sparsity pattern, by a :class:`SweepPlan` that the caller keeps and passes
to every factorization of that pattern.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import NoConvergenceError, SingularMatrixError

DIRECT_TOL = 1e-12
PERMC_SPEC = "MMD_AT_PLUS_A"
GMRES_RESTART = 50  # inner iterations between restarts
GMRES_MAX_ITER = 1000  # iterations over all restart cycles: a Newton system takes at most 14
BAND_MAX = 39  # the RCM half-bandwidth up to which LAPACK's band LU factors a slice block, not SuperLU
LAPACK_NB = 32  # dgbtrf's block size: from kl = LAPACK_NB on, it factors by blocks, faster


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
        indptr = np.searchsorted(urows, np.arange(n_rows + 1))
        return sp.csr_matrix((summed, ucols, indptr), shape=(n_rows, n_cols))


@dataclass(frozen=True)
class SolveMeta:
    method: str  # the path that ran: "sweep" (one field) or "schur" (two)
    iterations: int  # GMRES iterations
    residual_norm: float


@dataclass
class LinearSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    plan: SweepPlan  # of the matrix's pattern
    um: Callable | None = None  # A_um's product outside the matrix: x's density part to the value rows
    meta: SolveMeta | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.rhs.shape != (self.matrix.shape[0],):
            raise ValueError(f"rhs length {self.rhs.shape} != n_rows {self.matrix.shape[0]}")


class SweepPlan:
    """Where the sweeps put each stored entry of a CSR pattern, for the fields
    ``[0, split)`` and ``[split, n)`` (one if split is 0 or n), each in time
    order with every coupling reading a later slice (a backward sweep) or
    every one an earlier (forward); ValueError otherwise.  Each field is
    renumbered by one reverse Cuthill-McKee ordering of its slice blocks'
    graph (Cuthill & McKee 1969), stably sorted by slice: each component of
    the graph lies in one slice, so every slice keeps its own RCM order.  Per
    field, all in the new numbering: that order, its diagonal blocks' entries
    (CSC order), its couplings' entries, its band ``(kl, ku, flat positions)``
    in one LAPACK band storage of the field, Fortran order (None if no slice
    is within ``BAND_MAX`` half-bandwidth; kl and ku the maxima over those
    that are, kl raised to ``LAPACK_NB`` if that adds at most an eighth of the
    rows), and per slice in sweep order its id, range, CSC beyond ``BAND_MAX``
    (its block's run, rows and column pointers; else None) and layers: layer j
    holds each row's j-th coupling entry and column, a row with fewer pointing
    at a zero padding slot past the couplings and at x's zero trailing entry.
    ``spare`` holds one band storage per field (None without a band) that no
    live factor holds.

    The plan reads only the pattern ``(indptr, indices)`` and each unknown's
    time slice, once.  Whoever knows that every matrix it factors has this
    pattern keeps the plan and passes it to each :func:`factorize`, as the
    solver's index of one mask of known unknowns does; ``factorize`` checks
    only the shape and the stored-entry count against it."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, slices: np.ndarray, split: int = 0):
        n, slices = indptr.size - 1, np.asarray(slices)
        if slices.shape != (n,):
            raise ValueError(f"slice index length {slices.shape} != n_rows {n}")
        self.shape, self.nnz, self.split, self.spare = (n, n), indices.size, split, None
        row = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
        pos = np.empty(n, dtype=np.int32)  # each unknown's place in its field's new numbering
        self.fields = []
        for lo, hi in ((0, split), (split, n)) if 0 < split < n else ((0, n),):
            s = slices[lo:hi]
            if np.any(s[1:] < s[:-1]):
                raise ValueError(f"unknowns {lo}..{hi - 1} do not run in time order")
            bounds = np.r_[np.flatnonzero(np.r_[True, s[1:] != s[:-1]]), hi - lo]
            block = np.full(n, -1, dtype=np.int32)  # each unknown's slice in the field, or -1
            block[lo:hi] = np.repeat(np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds))
            br, bc = block[row], block[indices]
            inside = (br >= 0) & (bc >= 0)
            later, earlier = inside & (bc > br), inside & (bc < br)
            if later.any() and earlier.any():
                raise ValueError(f"unknowns {lo}..{hi - 1} read both earlier and later slices")
            diag = np.flatnonzero(inside & (br == bc))  # row-major
            graph = sp.csr_matrix((np.ones(diag.size), indices[diag] - lo,
                                   np.searchsorted(row[diag], np.arange(lo, hi + 1))), shape=(hi - lo,) * 2)
            order = reverse_cuthill_mckee(graph, symmetric_mode=False)
            order = order[np.argsort(block[lo + order], kind="stable")]
            pos[lo + order] = np.arange(hi - lo, dtype=np.int32)
            pr, pc = pos[row[diag]], pos[indices[diag]]
            sort = np.lexsort((pr, pc))  # column-major, slice by slice
            diag, pr, pc, sk = diag[sort], pr[sort], pc[sort], bc[diag[sort]]  # sk: each entry's slice
            kl, ku = np.zeros((2, len(bounds) - 1), dtype=np.int32)  # each slice's band
            np.maximum.at(kl, sk, pr - pc)
            np.maximum.at(ku, sk, pc - pr)
            narrow = np.maximum(kl, ku) <= BAND_MAX  # the slices the band LU factors
            bl, bu = int(kl.max(where=narrow, initial=0)), int(ku.max(where=narrow, initial=0))
            bl = max(bl, LAPACK_NB) if 16 * (LAPACK_NB - bl) <= 2 * bl + bu + 1 else bl  # <= 1/8 more rows
            # flat positions, none without a band slice; a wider slice's entries land unread in its own columns
            band = (bl, bu, pr - pc + bl + bu + (2 * bl + bu + 1) * pc.astype(np.int64)) if narrow.any() else None
            colptr = np.searchsorted(pc, np.arange(hi - lo + 1)).tolist()
            coupled = np.flatnonzero(later | earlier)  # row-major, slice by slice
            cr = row[coupled]
            rowptr = np.searchsorted(cr, np.arange(lo, hi + 1))  # each row's first coupling entry
            rank = np.arange(coupled.size) - rowptr[cr - lo]  # each entry's place in its row
            width = np.maximum.reduceat(np.diff(rowptr), bounds[:-1])  # each slice's fullest row
            ents = np.full((width.max(initial=0), hi - lo), coupled.size)  # the padding slot: a zero
            cols = np.full_like(ents, hi - lo)  # x's trailing zero
            ents[rank, pos[cr]], cols[rank, pos[cr]] = np.arange(coupled.size), pos[indices[coupled]]
            parts = []
            for k, (b0, b1) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
                run, w = slice(colptr[b0], colptr[b1]), width[k]
                csc = None if narrow[k] else (run, pr[run] - b0,
                                              np.subtract(colptr[b0:b1 + 1], colptr[b0], dtype=np.int32))
                parts.append((s[b0], slice(b0, b1), csc, list(zip(ents[:w, b0:b1], cols[:w, b0:b1]))))
            self.fields.append((order, diag, coupled, band, parts[::-1] if later.any() else parts))


class _BandLU:
    """LAPACK's band LU of a slice block, in place in its columns of its field's band, with SuperLU's ``solve``."""

    def __init__(self, band: np.ndarray, kl: int, ku: int, sid):
        self.kl, self.ku = kl, ku
        self.lu, self.piv, info = lapack.dgbtrf(band, kl, ku, overwrite_ab=1)
        if info > 0:
            raise SingularMatrixError(f"exact zero pivot in time slice {sid}")

    def solve(self, y: np.ndarray) -> np.ndarray:
        return lapack.dgbtrs(self.lu, self.kl, self.ku, y, self.piv)[0]


def _splu(values: np.ndarray, csc, sid):
    """Slice ``sid``'s block factored by SuperLU from its field's diagonal-block
    values and its plan's ``(run, CSC rows, column pointers)``; a singular one
    raises SingularMatrixError naming the slice."""
    run, rows, colptr = csc
    try:
        return spla.splu(sp.csc_matrix((values[run], rows, colptr), shape=(colptr.size - 1,) * 2),
                         permc_spec=PERMC_SPEC)
    except RuntimeError as exc:
        raise SingularMatrixError(f"exactly singular block in time slice {sid}") from exc


class _Sweeps:
    """A plan's sweeps on ``data``: per field its order, and each slice
    block's factor and its layers' values v and columns c; a slice solves
    for ``b[part] - sum v * x[c]``, subtracting layer by layer.  A field's band
    slices are scattered into one zeroed band storage, then factored in it:
    the plan's spare (a new one where it has none), back to the plan once
    these sweeps are collected, so a live factor's storage is never written."""

    def __init__(self, plan: SweepPlan, data: np.ndarray):
        store, plan.spare = plan.spare or [None] * len(plan.fields), None
        weakref.finalize(self, setattr, plan, "spare", store)  # back to the plan once this is collected
        self.fields = []
        for f, (order, entries, coupled, band, parts) in enumerate(plan.fields):
            values, couplings = data[entries], np.append(data[coupled], 0.0)  # the padding slot last
            if band:
                kl, ku, at = band
                if store[f] is None:
                    store[f] = np.zeros((2 * kl + ku + 1) * order.size)
                else:
                    store[f].fill(0.0)  # the last factorization's LU
                store[f][at] = values
                ab = store[f].reshape(-1, order.size, order="F")
            self.fields.append((order, [(part, _splu(values, csc, sid) if csc else _BandLU(ab[:, part], kl, ku, sid),
                                         [(couplings[e], c) for e, c in layers])
                                        for sid, part, csc, layers in parts]))

    def solve(self, f: int, b: np.ndarray) -> np.ndarray:
        """Field f's block solved for ``b``, that field's part of a right-hand
        side, permuted into the plan's order once and back once."""
        order, steps = self.fields[f]
        b, x = b[order], np.zeros(b.size + 1)  # x's trailing zero is the padding's column
        for part, lu, layers in steps:
            y = b[part]  # a view: b is the permuted copy
            for v, c in layers:
                y -= v * x[c]
            x[part] = lu.solve(y)
        b[order] = x[:-1]
        return b


def _checked(times, solve, method: str):
    """``solve(b) -> (x, GMRES iterations)`` with the bound checked on the
    product ``times(x)``: one refinement step when the residual misses it,
    then NoConvergenceError on the Schur path, SingularMatrixError otherwise."""

    def solve_checked(b):
        b = np.asarray(b, dtype=float)
        x, its = solve(b)
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError("direct solve produced non-finite values")
        r, scale = b - times(x), max(np.linalg.norm(b), 1.0)
        res = float(np.linalg.norm(r) / scale)
        if res > DIRECT_TOL:  # one step of iterative refinement
            dx, more = solve(r)
            x, its = x + dx, its + more
            res = float(np.linalg.norm(b - times(x)) / scale)
        if not res <= DIRECT_TOL and method == "schur":  # also when refinement left a NaN
            raise NoConvergenceError(f"GMRES residual {res:.3e} exceeds {DIRECT_TOL:.1e} after {its} iterations")
        if not res <= DIRECT_TOL:
            raise SingularMatrixError(f"direct solve residual {res:.3e} exceeds {DIRECT_TOL:.1e} "
                                      "after refinement; matrix is numerically singular")
        return x, SolveMeta(method, its, res)

    return solve_checked


def _schur(a, um, sweeps: _Sweeps, split: int):
    """The two-field solve by restarted GMRES on the density Schur complement
    ``S = A_mm - A_mu A_uu^-1 A_um``, right-preconditioned by the density
    sweep, to half the bound on S, A_um with its operator ``um`` if any.  Each
    cycle sweeps u = A_uu^-1 (b_u - A_um m) once and checks the m rows'
    residual, which is S's; the last cycle's sweep is the back-substitution.
    Step j keeps z_j = A_mm^-1 v_j, and S z_j = A_mm z_j - A_mu A_uu^-1 A_um z_j
    is one value sweep and one product with the m rows; the cycle ends with
    ``m += sum c_j z_j``.  A happy breakdown (S z_j in the basis so far) ends
    the cycle exactly."""
    # the m rows are a view of a's arrays: a copy, freed after every solve, raised
    # malloc's mmap threshold and with it the peak RSS of a 2D 64 solve by 18%
    n, start = a.shape[0], a.indptr[split]
    a_um, a_m = a[:split, split:], sp.csr_matrix((a.data[start:], a.indices[start:], a.indptr[split:] - start),
                                                 shape=(n - split, n))

    def um_times(z):  # A_um z, um's product included
        return a_um @ z if um is None else a_um @ z + um(z)

    def solve_schur(b):
        tol, its, x = 0.5 * DIRECT_TOL * max(np.linalg.norm(b), 1.0), 0, np.zeros(n)
        while True:
            x[:split] = sweeps.solve(0, b[:split] - um_times(x[split:]))
            r = b[split:] - a_m @ x
            g = [np.linalg.norm(r)]  # the least-squares right-hand side, rotated
            if not g[0] > tol or its >= GMRES_MAX_ITER:  # a NaN too: the check below raises
                break
            basis, zs, cols, rotations = [r / g[0]], [], [], []
            while abs(g[-1]) > tol and len(zs) < GMRES_RESTART and its < GMRES_MAX_ITER:
                zs.append(sweeps.solve(1, basis[-1]))
                w = a_m @ np.concatenate((-sweeps.solve(0, um_times(zs[-1])), zs[-1]))  # S z_j
                w0, h = np.linalg.norm(w), []
                for v in basis:  # modified Gram-Schmidt
                    h.append(v @ w)
                    w -= h[-1] * v
                h.append(np.linalg.norm(w))
                if h[-1] > np.finfo(float).eps * w0:
                    basis.append(w / h[-1])
                else:  # a happy breakdown: S z_j lies in the basis, and g[-1] becomes 0
                    h[-1] = 0.0
                for k, (c, s) in enumerate(rotations):
                    h[k:k + 2] = c * h[k] + s * h[k + 1], c * h[k + 1] - s * h[k]
                c, s, h[-2] = lapack.dlartg(h[-2], h[-1])
                rotations.append((c, s))
                g[-1:] = c * g[-1], -s * g[-1]
                cols.append(h[:-1])  # R's column j
                its += 1
            y = g[:-1]
            for j in reversed(range(len(y))):  # R y = g, column by column
                y[j] /= cols[j][j]
                for k in range(j):
                    y[k] -= y[j] * cols[j][k]
            for yj, z in zip(y, zs):
                x[split:] += yj * z
        if not g[0] <= tol or not np.all(np.isfinite(x)):  # the budget spent, or a NaN iterate
            raise NoConvergenceError(f"GMRES missed its bound on S after {its} iterations: residual {g[0]:.3e} > {tol:.3e}")
        return x, its

    return solve_schur


def factorize(a: sp.csr_matrix, plan: SweepPlan, um=None):
    """Factor the square canonical CSR matrix once, on ``plan``, the
    :class:`SweepPlan` of a's pattern: the sweeps of :class:`_Sweeps`, one
    for one field and GMRES on the density Schur complement for two, where
    ``um`` maps x's density part to A_um's product outside the CSR.

    Returns ``solve(b) -> (x, SolveMeta)``, x with a relative residual of at
    most ``DIRECT_TOL``.  Raises ValueError on a matrix whose shape or count
    of stored entries is not the plan's, or on ``um`` with a one-field plan,
    and SingularMatrixError on an exactly singular slice block.  The solve
    refines once a residual that misses the bound, then raises as
    :func:`_checked` does, or NoConvergenceError when GMRES's budget of
    ``GMRES_MAX_ITER`` iterations runs out."""
    n, split = a.shape[0], plan.split
    if a.shape != plan.shape or a.nnz != plan.nnz:
        raise ValueError(f"a {a.shape} matrix with {a.nnz} stored entries is not its plan's "
                         f"{plan.shape} with {plan.nnz}")
    if um is not None and not 0 < split < n:
        raise ValueError("an operator on A_um needs a two-field plan")

    def times(x):  # a @ x, um's product added to the value rows
        y = a @ x
        if um is not None:
            y[:split] += um(x[split:])
        return y

    sweeps = _Sweeps(plan, a.data)
    if 0 < split < n:
        return _checked(times, _schur(a, um, sweeps, split), "schur")
    return _checked(times, lambda b: (sweeps.solve(0, b), 0), "sweep")


def solve(system: LinearSystem) -> np.ndarray:
    """Factor the square system and solve it, populating ``system.meta``;
    raises as :func:`factorize` and the solve it returns do."""
    x, system.meta = factorize(system.matrix, system.plan, system.um)(system.rhs)
    return x
