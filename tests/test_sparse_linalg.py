import numpy as np
import pytest

from mfg_newton import sparse_linalg as sla
from mfg_newton.errors import NoConvergenceError, SingularMatrixError


def dense_gauss_solve(a, b):
    """Brute-force dense Gaussian elimination with partial pivoting (oracle)."""
    a = a.astype(float).copy()
    b = b.astype(float).copy()
    n = len(b)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[piv, col]) < 1e-300:
            raise ZeroDivisionError("singular")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for r in range(col + 1, n):
            f = a[r, col] / a[col, col]
            a[r, col:] -= f * a[col, col:]
            b[r] -= f * b[col]
    x = np.zeros(n)
    for r in range(n - 1, -1, -1):
        x[r] = (b[r] - a[r, r + 1:] @ x[r + 1:]) / a[r, r]
    return x


def periodic_minus_lap_plus_identity(nx):
    """1D periodic (-Delta + I) at unit spacing times dx^-2 scaling."""
    dx = 1.0 / nx
    rows, cols, vals = [], [], []
    for i in range(nx):
        rows += [i, i, i]
        cols += [i, (i + 1) % nx, (i - 1) % nx]
        vals += [2.0 / dx**2 + 1.0, -1.0 / dx**2, -1.0 / dx**2]
    return sla.SparseMatrix.from_triplets(nx, nx, rows, cols, vals)


class TestAssembly:
    def test_duplicates_summed_and_zeros_pruned(self):
        mat = sla.SparseMatrix.from_triplets(
            2, 2,
            rows=[0, 0, 1, 1, 0],
            cols=[0, 0, 1, 1, 1],
            vals=[1.5, 2.5, 3.0, -3.0, 0.0],
        )
        assert mat.nnz == 1
        np.testing.assert_array_equal(mat.todense(), [[4.0, 0.0], [0.0, 0.0]])

    def test_permutation_gives_bit_identical_csr(self):
        rng = np.random.default_rng(0)
        n = 30
        rows = rng.integers(0, n, 500)
        cols = rng.integers(0, n, 500)
        vals = rng.standard_normal(500)
        ref = sla.SparseMatrix.from_triplets(n, n, rows, cols, vals)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(500)
            mat = sla.SparseMatrix.from_triplets(n, n, rows[perm], cols[perm], vals[perm])
            assert mat.indptr.tobytes() == ref.indptr.tobytes()
            assert mat.indices.tobytes() == ref.indices.tobytes()
            assert mat.data.tobytes() == ref.data.tobytes()

    def test_column_indices_strictly_increasing(self):
        mat = periodic_minus_lap_plus_identity(16)
        mat.validate()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sla.SparseMatrix.from_triplets(2, 2, [0, 2], [0, 0], [1.0, 1.0])

    def test_matvec(self):
        mat = sla.SparseMatrix.from_triplets(2, 2, [0, 1], [1, 0], [2.0, 3.0])
        np.testing.assert_allclose(mat.matvec([1.0, 4.0]), [8.0, 3.0])


class TestSolve:
    def test_identity(self):
        n = 7
        mat = sla.SparseMatrix.from_triplets(n, n, range(n), range(n), np.ones(n))
        b = np.arange(n, dtype=float)
        x = sla.solve(sla.LinearSystem(mat, b))
        np.testing.assert_array_equal(x, b)

    def test_periodic_lap_against_dense_oracle(self):
        nx = 16
        mat = periodic_minus_lap_plus_identity(nx)
        x_nodes = np.arange(nx) / nx
        b = np.sin(2 * np.pi * x_nodes)
        sys = sla.LinearSystem(mat, b)
        x = sla.solve(sys, sla.Direct())
        expected = dense_gauss_solve(mat.todense(), b)
        np.testing.assert_allclose(x, expected, atol=1e-10)
        assert sys.meta.method == "direct"
        assert sys.meta.residual_norm <= 1e-12

    def test_all_zero_matrix_is_singular(self):
        mat = sla.SparseMatrix.from_triplets(2, 2, [], [], [])
        with pytest.raises(SingularMatrixError):
            sla.solve(sla.LinearSystem(mat, np.ones(2)))

    def test_structurally_singular(self):
        # duplicated row -> rank deficient
        mat = sla.SparseMatrix.from_triplets(2, 2, [0, 1], [0, 0], [1.0, 1.0])
        with pytest.raises(SingularMatrixError):
            sla.solve(sla.LinearSystem(mat, np.ones(2)))

    def test_hilbert_stays_singular_after_refinement(self):
        # Hilbert(10) has condition ~1.6e13: its residual is ~1e-10 before
        # the refinement step and ~9e-11 after, so refinement cannot hide a
        # numerically singular matrix.
        n = 10
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        mat = sla.SparseMatrix.from_triplets(
            n, n, i.ravel(), j.ravel(), (1.0 / (i + j + 1)).ravel())
        with pytest.raises(SingularMatrixError, match="after refinement"):
            sla.solve(sla.LinearSystem(mat, np.ones(n)))

    @pytest.mark.parametrize("method", [sla.Direct(), sla.Iterative(tol=1e-13)])
    def test_zero_diagonal_forces_pivoting(self, method):
        # nonsymmetric, with every diagonal entry zero: no factorization
        # without row exchanges exists
        n = 40
        rng = np.random.default_rng(1)
        i = np.arange(n)
        rows = np.concatenate([i, i, i])
        cols = np.concatenate([(i + 1) % n, (i + 3) % n, (i - 5) % n])
        vals = np.concatenate([rng.uniform(1.0, 2.0, n), rng.uniform(-1.0, 1.0, n),
                               rng.uniform(-0.5, 0.5, n)])
        mat = sla.SparseMatrix.from_triplets(n, n, rows, cols, vals)
        assert np.all(np.diag(mat.todense()) == 0.0)
        b = rng.standard_normal(n)
        x = sla.solve(sla.LinearSystem(mat, b), method)
        np.testing.assert_allclose(x, dense_gauss_solve(mat.todense(), b), atol=1e-10)

    def test_factor_once_solve_many(self):
        mat = periodic_minus_lap_plus_identity(16)
        solve = sla.factorize(mat)
        for k in range(1, 4):
            b = np.sin(2 * np.pi * k * np.arange(16) / 16)
            x, meta = solve(b)
            np.testing.assert_array_equal(x, sla.solve(sla.LinearSystem(mat, b)))
            assert meta.method == "direct" and meta.residual_norm <= sla.DIRECT_TOL

    def test_non_square_rejected(self):
        mat = sla.SparseMatrix.from_triplets(2, 3, [0, 1], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError):
            sla.solve(sla.LinearSystem(mat, np.ones(2)))

    def test_rhs_length_checked(self):
        mat = periodic_minus_lap_plus_identity(8)
        with pytest.raises(ValueError):
            sla.LinearSystem(mat, np.ones(9))

    def test_iterative_matches_direct(self):
        nx = 64
        mat = periodic_minus_lap_plus_identity(nx)
        b = np.cos(2 * np.pi * np.arange(nx) / nx)
        xd = sla.solve(sla.LinearSystem(mat, b), sla.Direct())
        sys = sla.LinearSystem(mat, b)
        xi = sla.solve(sys, sla.Iterative(tol=1e-12))
        assert sys.meta.method == "iterative"
        assert sys.meta.iterations >= 1
        np.testing.assert_allclose(xi, xd, rtol=1e-8)

    def test_iterative_budget_exhaustion(self):
        nx = 64
        mat = periodic_minus_lap_plus_identity(nx)
        b = np.cos(2 * np.pi * np.arange(nx) / nx)
        with pytest.raises(NoConvergenceError):
            sla.solve(sla.LinearSystem(mat, b), sla.Iterative(tol=1e-14, max_iter=1, restart=2))

