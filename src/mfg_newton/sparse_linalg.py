"""Compressed sparse row matrices, triplet assembly, and space-time solves.

Assembly canonicalizes triplets by (row, col, value) so that any permutation
of the same triplet stream produces a bit-identical matrix; duplicates are
summed and exact zeros pruned.  Solves are delegated to SuperLU (direct) and
restarted GMRES with an incomplete-LU preconditioner (iterative); the direct
path is the default because the Newton-rate measurements must not be polluted
by inner-solver error.

Both factorizations order columns by minimum degree on the pattern of
A^T + A (``PERMC_SPEC``): the space-time Jacobians are nearly structurally
symmetric, and this ordering fills them far less than SuperLU's default
COLAMD.  A matrix is factored once by :func:`factorize`, which returns a
solve for any number of right-hand sides.  A direct solve whose relative
residual exceeds ``DIRECT_TOL`` gets one step of iterative refinement with
the same factors; only if the residual still exceeds it is the matrix
reported as numerically singular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(indptr, urows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n_rows, n_cols, indptr, ucols.astype(np.int64), summed)

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.data, self.indices, self.indptr),
                             shape=(self.n_rows, self.n_cols))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.to_scipy() @ np.asarray(x, dtype=float)

    def todense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    def validate(self) -> None:
        if self.indptr.shape != (self.n_rows + 1,):
            raise ValueError("bad indptr length")
        for r in range(self.n_rows):
            cols = self.indices[self.indptr[r]:self.indptr[r + 1]]
            if cols.size and np.any(np.diff(cols) <= 0):
                raise ValueError(f"row {r}: column indices not strictly increasing")
        if np.any(self.data == 0.0):
            raise ValueError("explicitly stored zero survived pruning")


@dataclass(frozen=True)
class SolveMeta:
    method: str
    iterations: int
    residual_norm: float


@dataclass
class LinearSystem:
    matrix: SparseMatrix
    rhs: np.ndarray
    meta: SolveMeta | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.rhs.shape != (self.matrix.n_rows,):
            raise ValueError(f"rhs length {self.rhs.shape} != n_rows {self.matrix.n_rows}")


def _rel_residual(a_csr, x, b) -> float:
    return float(np.linalg.norm(a_csr @ x - b) / max(np.linalg.norm(b), 1.0))


def factorize(mat: SparseMatrix, method: Direct | Iterative = Direct()):
    """Factor the square matrix once (LU, or ILU for the iterative path).

    Returns ``solve(b) -> (x, SolveMeta)`` for any right-hand side ``b``.
    Raises SingularMatrixError when the factorization fails; the returned
    solve raises SingularMatrixError when the direct solve cannot meet the
    relative-residual contract after one refinement step, NoConvergenceError
    when the Krylov iteration exhausts its budget.
    """
    if mat.n_rows != mat.n_cols:
        raise ValueError("solve requires a square matrix")
    a = mat.to_scipy()

    if isinstance(method, Direct):
        try:
            lu = spla.splu(a.tocsc(), permc_spec=PERMC_SPEC)
        except RuntimeError as exc:  # SuperLU signals exact singularity this way
            raise SingularMatrixError(f"sparse LU factorization failed: {exc}") from exc

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
    x, system.meta = factorize(system.matrix, method)(system.rhs)
    return x

