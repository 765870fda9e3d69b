import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import blas, lapack

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
        assert all(same(x, y) for x, y in zip(stored(cached), stored(fresh), strict=True))
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


def two_field(n_u, n_m, seed, aligned=True, dense_b=False, density=0.4):
    """Random two-field block-tridiagonal matrix laid out like the Newton
    matrix: every value unknown u_0..u_K, then every density unknown
    m_0..m_K, slice k holding n_u[k] of u and n_m[k] of m.  The couplings
    are those of the implicit scheme, u_k reading u_k+1 and m_k reading
    m_k-1: -I/dt when ``aligned`` (equal field sizes), else random sparse.
    B, the (u, m) block, is diagonal or dense; A and D are diagonally heavy
    and C random.  Returns the CSR matrix, its dense copy and the slices."""
    rng = np.random.default_rng(seed)
    off = np.concatenate([[0], np.cumsum(np.r_[n_u, n_m])])
    field = [slice(lo, hi) for lo, hi in zip(off[:-1], off[1:])]
    us, ms = field[:len(n_u)], field[len(n_u):]
    dense = np.zeros((off[-1], off[-1]))

    def sparse(shape):
        return np.where(rng.random(shape) < density, rng.standard_normal(shape), 0.0)

    for k, (nu, nm) in enumerate(zip(n_u, n_m)):
        dense[us[k], us[k]] = sparse((nu, nu)) + 4.0 * np.eye(nu)
        dense[ms[k], ms[k]] = sparse((nm, nm)) + 4.0 * np.eye(nm)
        dense[ms[k], us[k]] = sparse((nm, nu))
        dense[us[k], ms[k]] = (rng.standard_normal((nu, nm)) if dense_b
                               else np.eye(nu, nm) * rng.uniform(0.5, 1.5, nm))
        if k + 1 < len(n_u):
            for rows, cols in ((us[k], us[k + 1]), (ms[k + 1], ms[k])):
                shape = dense[rows, cols].shape
                dense[rows, cols] = -8.0 * np.eye(*shape) if aligned else sparse(shape)
    i, j = np.nonzero(dense)
    slices = np.r_[np.repeat(np.arange(len(n_u)), n_u), np.repeat(np.arange(len(n_m)), n_m)]
    return sla.SparseMatrix.from_triplets(*dense.shape, i, j, dense[i, j]), dense, slices


def stored(factor):
    """Every array and index that a factor keeps for its slices, in order."""
    def flat(x):
        return [y for part in x for y in flat(part)] if isinstance(x, tuple) else [x]
    return flat(tuple(factor.lu))


def same(a, b):
    return (a.dtype == b.dtype and a.tobytes() == b.tobytes()) if isinstance(a, np.ndarray) else a == b


class TestTwoLevel:
    """Slices that hold both rows that read the previous slice (or columns
    the next slice reads) and other unknowns are factored in two levels."""

    @pytest.mark.parametrize("n_u, n_m, aligned, dense_b", [
        ((6, 6, 6, 6, 0), (0, 6, 6, 6, 6), True, False),  # local coupling: m(T) alone
        ((5, 5, 5, 5), (0, 5, 5, 5), True, True),  # kernel coupling: u(T) and m(T)
        ((4, 7, 3, 6, 2), (0, 5, 6, 2, 4), False, False),
        ((4, 7, 3, 6, 2), (0, 5, 6, 2, 4), False, True),
    ])
    def test_matches_dense_solve(self, n_u, n_m, aligned, dense_b):
        mat, dense, slices = two_field(n_u, n_m, seed=sum(n_u), aligned=aligned, dense_b=dense_b)
        plan = sla._plan(mat, slices)
        assert all(plan.split[k][0] > 0 for k in range(len(n_u)) if n_u[k] and n_m[k])
        assert any(s is not None and s[-1] == aligned for s in plan.schur)  # gathered, or not
        b = np.random.default_rng(1).standard_normal(mat.shape[0])
        x, meta = sla.factorize(mat, sla.Direct(), slices)(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
        assert meta.residual_norm <= sla.DIRECT_TOL

    @pytest.mark.parametrize("aligned, dense_b", [(True, False), (True, True), (False, False)])
    def test_one_block_slice_between_split_slices(self, aligned, dense_b):
        # slice 2's first density row also reads slice 3's value: slice 2
        # splits all the same, with a coupling row in its m block, so the
        # update it passes to slice 3 is never gathered
        mat, dense, slices = two_field((5, 5, 5, 5, 5), (0, 5, 5, 5, 5), seed=9,
                                       aligned=aligned, dense_b=dense_b)
        dense[30, 15] = 0.5
        i, j = np.nonzero(dense)
        mat = sla.SparseMatrix.from_triplets(*dense.shape, i, j, dense[i, j])
        plan = sla._plan(mat, slices)
        assert [s[0] > 0 for s in plan.split] == [False, True, True, True, True]
        assert [s is not None and s[-1] for s in plan.schur] == [False, False, aligned, False, aligned]
        b = np.random.default_rng(10).standard_normal(mat.shape[0])
        x, meta = sla.factorize(mat, sla.Direct(), slices)(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
        assert meta.residual_norm <= sla.DIRECT_TOL

    def test_stores_three_quarters_of_a_dense_slice(self):
        mat, _, slices = two_field((8, 8, 8), (0, 8, 8), seed=2)
        factor = sla._SliceLU(sla._plan(mat, slices), mat.data)
        entries = sum(x.size for x in stored(factor) if isinstance(x, np.ndarray) and x.dtype == float)
        assert entries == 8 * 8 + 2 * (3 * 8 * 8 + 8)  # slice 0 whole; A, W, Sigma and B's diagonal

    def test_refactor_matches_fresh_plan_bitwise(self, plan_builds):
        mat, _, slices = two_field((6, 6, 6, 6), (0, 6, 6, 6), seed=3, dense_b=True)
        sla.factorize(mat, sla.Direct(), slices)
        values = np.random.default_rng(4).uniform(0.5, 1.0, mat.nnz)
        a = sp.csr_matrix((mat.data * values, mat.indices, mat.indptr), shape=mat.shape)
        cached = sla._SliceLU(sla._plan(a, slices), a.data)
        assert len(plan_builds) == 1 and cached.plan is plan_builds[0]
        fresh = sla._SliceLU(sla._SlicePlan(a, slices), a.data)  # built, not cached
        assert all(same(x, y) for x, y in zip(stored(cached), stored(fresh), strict=True))
        b = np.random.default_rng(5).standard_normal(mat.shape[0])
        assert cached.solve(b).tobytes() == fresh.solve(b).tobytes()

    def test_overlapping_fields_split_and_match_dense_solve(self):
        # the first density row of slices 1 and 2 also reads the next slice's
        # value, and a value row of slice 2 reads slice 3's density: every
        # two-field slice still splits, and slice 3's update reaches its D
        mat, dense, slices = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=6)
        dense[20, 10] = dense[25, 15] = dense[10, 30] = 0.5
        i, j = np.nonzero(dense)
        mat = sla.SparseMatrix.from_triplets(*dense.shape, i, j, dense[i, j])
        plan = sla._plan(mat, slices)
        assert [s[0] for s in plan.split] == [0, 5, 5, 5]
        assert plan.schur[:2] == [None, None] and not any(s[-1] for s in plan.schur[2:])
        assert plan.schur[3][1] > plan.split[3][0]  # the update's columns run into m
        b = np.random.default_rng(7).standard_normal(mat.shape[0])
        x, meta = sla.factorize(mat, sla.Direct(), slices)(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(OneBlockLU(mat, slices).solve(b), x, rtol=1e-10, atol=1e-12)
        assert meta.residual_norm <= sla.DIRECT_TOL


class TestDenseAddends:
    """Dense blocks added to a slice's B outside the CSR, as the kernel
    coupling's are: the factor, the residual check, ``apply`` and GMRES
    all see the whole operator."""

    # two_field((5, 5, 5, 5), (0, 5, 5, 5)): u_k at 5k.., m_k at 15 + 5k..
    ADDENDS = [(5, 20, (5, 5)), (11, 27, (3, 2)), (15, 30, (5, 5)), (15, 30, (2, 2))]

    @pytest.mark.parametrize("dense_b", [False, True])
    def test_match_dense_solve(self, dense_b):
        mat, dense, slices = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=20, dense_b=dense_b)
        rng = np.random.default_rng(21)
        addends = [(r, c, rng.standard_normal(shape)) for r, c, shape in self.ADDENDS]
        for r, c, block in addends:
            dense[r:r + block.shape[0], c:c + block.shape[1]] += block
        b = rng.standard_normal(mat.shape[0])
        np.testing.assert_allclose(sla.apply(mat, addends, b), dense @ b, rtol=1e-12)
        x, meta = sla.factorize(mat, sla.Direct(), slices, addends)(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
        assert meta.residual_norm <= sla.DIRECT_TOL
        xi = sla.solve(sla.LinearSystem(mat, b, dense=addends), sla.Iterative(tol=1e-13))
        np.testing.assert_allclose(xi, x, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("r, c, shape", [
        (8, 20, (5, 5)),   # rows straddle the u of slices 1 and 2
        (5, 22, (5, 5)),   # columns straddle the m of slices 1 and 2
        (5, 5, (5, 5)),    # slice 1's A
        (20, 20, (5, 5)),  # slice 1's D
        (0, 15, (5, 1)),   # slice 0 holds u only: it has no B
        (15, 33, (5, 5)),  # past the last column
    ])
    def test_misplaced_rejected_before_plan_cached(self, plan_builds, r, c, shape):
        mat, _, slices = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=22)
        with pytest.raises(ValueError, match="one slice's B block"):
            sla.factorize(mat, sla.Direct(), slices, [(r, c, np.ones(shape))])
        assert len(plan_builds) == 1 and sla._PLANS == {}

    def test_run_through_another_field_rejected(self, plan_builds):
        # unknowns reordered so that rows 0..2 are u_1, m_1, u_1: both ends of
        # the run lie in slice 1's u, its middle does not
        mat, dense, slices = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=22)
        order = np.r_[5, 20, 6:10, 0:5, 10:20, 21:35]
        i, j = np.nonzero(dense[order][:, order])
        mat = sla.SparseMatrix.from_triplets(35, 35, i, j, dense[order][:, order][i, j])
        column = int(np.flatnonzero(order == 21)[0])  # in slice 1's m
        with pytest.raises(ValueError, match="one slice's B block"):
            sla.factorize(mat, sla.Direct(), slices[order], [(0, column, np.ones((3, 1)))])
        assert sla._PLANS == {}


def random_two_field(seed):
    """A random pattern in ``two_field``'s layout: 2 to 5 slices of 0 to 6
    unknowns per field, some slices holding one field only, -I/dt or random
    sparse couplings, diagonal or dense B, and for about half the seeds up
    to four extra entries from any row to any column of a neighbour slice,
    so that the fields overlap.  Returns what ``two_field`` does."""
    rng = np.random.default_rng([seed, 1])
    n = int(rng.integers(2, 6))
    n_u, n_m = rng.integers(1, 7, n), rng.integers(1, 7, n)
    single, value = rng.random(n) < 0.3, rng.random(n) < 0.5
    n_u[single & ~value], n_m[single & value] = 0, 0
    mat, dense, slices = two_field(tuple(n_u), tuple(n_m), seed, aligned=rng.random() < 0.5,
                                   dense_b=rng.random() < 0.5)
    if rng.random() < 0.5:
        for _ in range(int(rng.integers(1, 5))):
            k = int(rng.integers(n - 1))
            rows, cols = np.flatnonzero(slices == k), np.flatnonzero(slices == k + 1)
            if rng.random() < 0.5:
                rows, cols = cols, rows
            dense[rng.choice(rows), rng.choice(cols)] = rng.uniform(0.5, 1.0)
        i, j = np.nonzero(dense)
        mat = sla.SparseMatrix.from_triplets(*dense.shape, i, j, dense[i, j])
    return mat, dense, slices


class TestSweep:
    def test_random_patterns_match_dense_solve(self):
        # every pattern against a dense solve; the sweep must reach each
        # kind of Schur update and split slices whose coupling rows lie in m
        seen = {"gathered": 0, "from a split slice": 0, "from one block": 0, "into D": 0,
                "coupling row in m": 0}
        for seed in range(200):
            mat, dense, slices = random_two_field(seed)
            plan = sla._plan(mat, slices)
            for k, update in enumerate(plan.schur):
                if update is not None:
                    nu = plan.split[k - 1][0]
                    seen["gathered" if update[-1] else "from a split slice" if nu else "from one block"] += 1
                    seen["into D"] += update[1] > plan.split[k][0] > 0
                    seen["coupling row in m"] += bool(nu) and plan.upper[k - 1][0].max() >= nu
            b = np.random.default_rng(seed).standard_normal(mat.shape[0])
            x, meta = sla.factorize(mat, sla.Direct(), slices)(b)
            np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12,
                                       err_msg=f"seed {seed}")
            assert meta.residual_norm <= sla.DIRECT_TOL, seed
        assert min(seen.values()) > 0, seen


class OneBlockLU(sla._SliceLU):
    """The block LU in time as it was before slices were split in two levels:
    a dense LU of every Schur complement, here in the plan's order of the
    unknowns, updated through the whole L and only the trailing block of U
    of the previous slice, from the first row that A_k,k-1 reads.  The
    single-LU oracle, for any pattern."""

    def __init__(self, a, slices):
        plan = sla._SlicePlan(a, slices)
        self.plan, self.lu = plan, []
        self.lower, self.upper = ([(r, c, a.data[e]) for r, c, e in x] for x in (plan.lower, plan.upper))
        for k, part in enumerate(plan.parts):
            s = np.asfortranarray(a[plan.order[part]][:, plan.order[part]].toarray())
            (lr, lc, lv), (ur, uc, uv) = self.lower[k], self.upper[k - 1]
            if k and lr.size and uc.size:
                lu, piv = self.lu[k - 1]
                lc = lc + plan.split[k - 1][0]  # A_k,k-1's columns in all of slice k-1
                t, c0, c1 = lc.min(), uc.min(), uc.max() + 1
                coupling = np.zeros((lu.shape[0], c1 - c0), order="F")
                coupling[ur, uc - c0] = uv
                y = blas.dtrsm(1.0, lu, lapack.dlaswp(coupling, piv, overwrite_a=True),
                               lower=1, diag=1, overwrite_b=True)
                w = blas.dtrsm(1.0, lu[t:, t:], y[t:], lower=0, overwrite_b=True)
                starts = np.flatnonzero(np.r_[True, lr[1:] != lr[:-1]])
                s[lr[starts], c0:c1] -= np.add.reduceat(lv[:, None] * w[lc - t], starts)
            lu, piv, _ = lapack.dgetrf(s, overwrite_a=True)
            self.lu.append((lu, piv))

    def _solve_m(self, k, r):
        return lapack.dgetrs(*self.lu[k], r)[0][self.plan.split[k][0]:]

    def _solve(self, k, b):
        return lapack.dgetrs(*self.lu[k], b)[0]
