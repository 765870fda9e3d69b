import numpy as np
import pytest
import scipy.sparse as sp

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


def assert_csr_invariants(mat):
    """Strictly increasing columns in every row, and no stored zero."""
    assert mat.indptr.shape == (mat.shape[0] + 1,)
    assert mat.has_canonical_format
    assert np.all(mat.data != 0.0)


class TestAssembly:
    def test_duplicates_summed_and_zeros_pruned(self):
        mat = sla.SparseMatrix.from_triplets(
            2, 2,
            rows=[0, 0, 1, 1, 0],
            cols=[0, 0, 1, 1, 1],
            vals=[1.5, 2.5, 3.0, -3.0, 0.0],
        )
        assert mat.nnz == 1
        np.testing.assert_array_equal(mat.toarray(), [[4.0, 0.0], [0.0, 0.0]])

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
        assert_csr_invariants(periodic_minus_lap_plus_identity(16))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sla.SparseMatrix.from_triplets(2, 2, [0, 2], [0, 0], [1.0, 1.0])

    def test_matvec(self):
        mat = sla.SparseMatrix.from_triplets(2, 2, [0, 1], [1, 0], [2.0, 3.0])
        np.testing.assert_allclose(mat @ [1.0, 4.0], [8.0, 3.0])


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
        expected = dense_gauss_solve(mat.toarray(), b)
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
        dense = mat.toarray()
        assert np.all(np.diag(dense) == 0.0)
        b = rng.standard_normal(n)
        x = sla.solve(sla.LinearSystem(mat, b), method)
        np.testing.assert_allclose(x, dense_gauss_solve(dense, b), atol=1e-10)

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
        # normwise: the solution of cos(2 pi x) has exact zeros, where the
        # two solvers' round-off differs entrywise
        assert np.linalg.norm(xi - xd) / np.linalg.norm(xd) <= 1e-8

    def test_iterative_budget_exhaustion(self):
        nx = 64
        mat = periodic_minus_lap_plus_identity(nx)
        b = np.cos(2 * np.pi * np.arange(nx) / nx)
        with pytest.raises(NoConvergenceError):
            sla.solve(sla.LinearSystem(mat, b), sla.Iterative(tol=1e-14, max_iter=1, restart=2))


def random_block_tridiagonal(sizes, seed, density=0.3):
    """Random matrix coupling each slice to its neighbours only, as a
    CSR matrix in slice-major order, its dense copy, and the slice index of
    each unknown.  Diagonal blocks are dense and diagonally heavy; the
    couplings keep each entry with probability ``density``."""
    rng = np.random.default_rng(seed)
    off = np.concatenate([[0], np.cumsum(sizes)])
    n = off[-1]
    dense = np.zeros((n, n))
    for k, size in enumerate(sizes):
        part = slice(off[k], off[k + 1])
        dense[part, part] = rng.standard_normal((size, size)) + 3.0 * np.eye(size)
        if k:
            prev = slice(off[k - 1], off[k])
            for rows, cols in ((part, prev), (prev, part)):
                block = rng.standard_normal(dense[rows, cols].shape)
                dense[rows, cols] = np.where(rng.random(block.shape) < density, block, 0.0)
    i, j = np.nonzero(dense)
    mat = sla.SparseMatrix.from_triplets(n, n, i, j, dense[i, j])
    return mat, dense, np.repeat(np.arange(len(sizes)), sizes)


def permuted(mat, dense, perm):
    """The same system with its unknowns (rows and columns) reordered."""
    a = mat[perm][:, perm].tocoo()
    return (sla.SparseMatrix.from_triplets(*mat.shape, a.row, a.col, a.data),
            dense[np.ix_(perm, perm)])


class TestSliceLU:
    @pytest.mark.parametrize("sizes", [(5, 5, 5, 5), (1, 7, 3, 12, 2), (9,)])
    def test_matches_dense_solve(self, sizes):
        mat, dense, slices = random_block_tridiagonal(sizes, seed=len(sizes))
        b = np.random.default_rng(7).standard_normal(mat.shape[0])
        x, meta = sla.factorize(mat, sla.Direct(), slices)(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
        assert meta.residual_norm <= sla.DIRECT_TOL

    def test_slice_ids_out_of_order_and_with_gaps(self):
        # unknowns interleaved across slices, and ids 0, 2, 5, 6 with the
        # empty slices 1, 3, 4 skipped: adjacent ids present are neighbours
        mat, dense, slices = random_block_tridiagonal((4, 6, 3, 5), seed=3)
        perm = np.random.default_rng(4).permutation(mat.shape[0])
        mat, dense = permuted(mat, dense, perm)
        ids = np.array([0, 2, 5, 6])[slices[perm]]
        b = np.random.default_rng(5).standard_normal(mat.shape[0])
        x, _ = sla.factorize(mat, sla.Direct(), ids)(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)

    def test_single_slice_is_dense_lu(self):
        mat, dense, _ = random_block_tridiagonal((4, 4, 4), seed=6, density=1.0)
        b = np.arange(mat.shape[0], dtype=float)
        x_one, _ = sla.factorize(mat, sla.Direct(), np.zeros(mat.shape[0], dtype=int))(b)
        x_none, _ = sla.factorize(mat)(b)
        np.testing.assert_array_equal(x_one, x_none)
        np.testing.assert_allclose(x_none, np.linalg.solve(dense, b), rtol=1e-10)

    def test_system_carries_its_slices(self):
        mat, _, slices = random_block_tridiagonal((3, 4, 5), seed=8)
        b = np.ones(mat.shape[0])
        x = sla.solve(sla.LinearSystem(mat, b, slices))
        np.testing.assert_array_equal(x, sla.factorize(mat, sla.Direct(), slices)(b)[0])

    def test_coupling_two_slices_apart_rejected(self, plan_builds):
        mat, dense, slices = random_block_tridiagonal((3, 3, 3), seed=9)
        dense[0, 7] = 1.0  # slice 0 row, slice 2 column
        i, j = np.nonzero(dense)
        mat = sla.SparseMatrix.from_triplets(9, 9, i, j, dense[i, j])
        for _ in range(2):  # a rejected pattern is not cached
            with pytest.raises(ValueError, match="non-neighbour"):
                sla.factorize(mat, sla.Direct(), slices)
        assert sla._PLANS == {}

    def test_slice_index_length_checked(self):
        mat, _, slices = random_block_tridiagonal((3, 3), seed=10)
        with pytest.raises(ValueError):
            sla.factorize(mat, sla.Direct(), slices[:-1])

    def test_exact_zero_pivot_is_singular(self):
        # slice 1's Schur complement A_11 - A_10 A_00^-1 A_01 is exactly 0
        # although A_11 = 1 is not
        mat = sla.SparseMatrix.from_triplets(
            2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(SingularMatrixError, match="zero pivot"):
            sla.factorize(mat, sla.Direct(), np.array([0, 1]))


class TestPlanCache:
    def test_refactor_matches_fresh_plan_bitwise(self, plan_builds):
        mat, _, slices = random_block_tridiagonal((4, 6, 3, 5), seed=11)
        sla.factorize(mat, sla.Direct(), slices)
        values = np.random.default_rng(12).standard_normal(mat.nnz)
        a = sp.csr_matrix((mat.data + values, mat.indices, mat.indptr), shape=mat.shape)
        cached = sla._SliceLU(sla._plan(a, slices), a.data)
        assert len(plan_builds) == 1 and cached.plan is plan_builds[0]
        fresh = sla._SliceLU(sla._SlicePlan(a, slices), a.data)  # built, not cached
        for (lu, piv), (lu_ref, piv_ref) in zip(cached.lu, fresh.lu, strict=True):
            assert lu.tobytes() == lu_ref.tobytes() and piv.tobytes() == piv_ref.tobytes()
        b = np.random.default_rng(13).standard_normal(mat.shape[0])
        assert cached.solve(b).tobytes() == fresh.solve(b).tobytes()

    def test_moved_column_builds_new_plan(self, plan_builds):
        mat, dense, slices = random_block_tridiagonal((3, 4, 3), seed=14, density=0.5)
        b = np.random.default_rng(15).standard_normal(mat.shape[0])
        sla.factorize(mat, sla.Direct(), slices)
        # in a slice 1 row, move one entry of its coupling to slice 0 to a free column
        row = next(r for r in range(3, 7) if 0 < np.count_nonzero(dense[r, :3]) < 3)
        stored, free = np.flatnonzero(dense[row, :3]), np.flatnonzero(dense[row, :3] == 0.0)
        dense[row, free[0]], dense[row, stored[0]] = dense[row, stored[0]], 0.0
        i, j = np.nonzero(dense)
        moved = sla.SparseMatrix.from_triplets(*mat.shape, i, j, dense[i, j])
        assert moved.nnz == mat.nnz
        x, _ = sla.factorize(moved, sla.Direct(), slices)(b)
        assert len(plan_builds) == 2
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)

    def test_changed_slices_build_new_plan(self, plan_builds):
        mat, dense, slices = random_block_tridiagonal((3, 4, 3), seed=16)
        b = np.random.default_rng(17).standard_normal(mat.shape[0])
        sla.factorize(mat, sla.Direct(), slices)
        merged = np.minimum(slices, 1)  # slices 1 and 2 become one slice
        x, _ = sla.factorize(mat, sla.Direct(), merged)(b)
        assert len(plan_builds) == 2
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
