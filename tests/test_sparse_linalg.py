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


def one_slice(mat):
    """Every unknown in time slice 0: the block LU is one dense LU."""
    return np.zeros(mat.shape[0], dtype=int)


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

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="matching shapes"):
            sla.SparseMatrix.from_triplets(2, 2, [0, 1], [0], [1.0, 1.0])

    def test_matvec(self):
        mat = sla.SparseMatrix.from_triplets(2, 2, [0, 1], [1, 0], [2.0, 3.0])
        np.testing.assert_allclose(mat @ [1.0, 4.0], [8.0, 3.0])


class TestSolve:
    def test_identity(self):
        n = 7
        mat = sla.SparseMatrix.from_triplets(n, n, range(n), range(n), np.ones(n))
        b = np.arange(n, dtype=float)
        x = sla.solve(sla.LinearSystem(mat, b, one_slice(mat)))
        np.testing.assert_array_equal(x, b)

    def test_periodic_lap_against_dense_oracle(self):
        nx = 16
        mat = periodic_minus_lap_plus_identity(nx)
        x_nodes = np.arange(nx) / nx
        b = np.sin(2 * np.pi * x_nodes)
        sys = sla.LinearSystem(mat, b, one_slice(mat))
        x = sla.solve(sys)
        expected = dense_gauss_solve(mat.toarray(), b)
        np.testing.assert_allclose(x, expected, atol=1e-10)
        assert sys.meta.method == "block-lu"
        assert sys.meta.residual_norm <= 1e-12

    def test_overflow_to_non_finite_is_singular(self):
        # x = (1e600, 1) overflows: the factor has no zero pivot, yet no finite solution
        mat = sla.SparseMatrix.from_triplets(2, 2, [0, 1], [0, 1], [1e-300, 1.0])
        with pytest.raises(SingularMatrixError, match="^direct solve produced non-finite values$"):
            sla.solve(sla.LinearSystem(mat, np.array([1e300, 1.0]), one_slice(mat)))

    def test_all_zero_matrix_is_singular(self):
        mat = sla.SparseMatrix.from_triplets(2, 2, [], [], [])
        with pytest.raises(SingularMatrixError):
            sla.solve(sla.LinearSystem(mat, np.ones(2), one_slice(mat)))

    def test_structurally_singular(self):
        # duplicated row -> rank deficient
        mat = sla.SparseMatrix.from_triplets(2, 2, [0, 1], [0, 0], [1.0, 1.0])
        with pytest.raises(SingularMatrixError):
            sla.solve(sla.LinearSystem(mat, np.ones(2), one_slice(mat)))

    def test_hilbert_stays_singular_after_refinement(self):
        # Hilbert(10) has condition ~1.6e13: its residual is ~1e-10 before
        # the refinement step and ~9e-11 after, so refinement cannot hide a
        # numerically singular matrix.
        n = 10
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        mat = sla.SparseMatrix.from_triplets(
            n, n, i.ravel(), j.ravel(), (1.0 / (i + j + 1)).ravel())
        with pytest.raises(SingularMatrixError, match="after refinement"):
            sla.solve(sla.LinearSystem(mat, np.ones(n), one_slice(mat)))

    @pytest.mark.parametrize("method", sla.METHODS)
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
        x = sla.solve(sla.LinearSystem(mat, b, one_slice(mat)), method)
        np.testing.assert_allclose(x, dense_gauss_solve(dense, b), atol=1e-10)

    def test_factor_once_solve_many(self):
        mat = periodic_minus_lap_plus_identity(16)
        solve = sla.factorize(mat, one_slice(mat))
        for k in range(1, 4):
            b = np.sin(2 * np.pi * k * np.arange(16) / 16)
            x, meta = solve(b)
            np.testing.assert_array_equal(x, sla.solve(sla.LinearSystem(mat, b, one_slice(mat))))
            assert meta.method == "block-lu" and meta.residual_norm <= sla.DIRECT_TOL

    def test_non_square_rejected(self):
        mat = sla.SparseMatrix.from_triplets(2, 3, [0, 1], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError):
            sla.solve(sla.LinearSystem(mat, np.ones(2), one_slice(mat)))

    def test_rhs_length_checked(self):
        mat = periodic_minus_lap_plus_identity(8)
        with pytest.raises(ValueError):
            sla.LinearSystem(mat, np.ones(9), one_slice(mat))

    def test_iterative_matches_direct(self):
        nx = 64
        mat = periodic_minus_lap_plus_identity(nx)
        b = np.cos(2 * np.pi * np.arange(nx) / nx)
        xd = sla.solve(sla.LinearSystem(mat, b, one_slice(mat)))
        sys = sla.LinearSystem(mat, b, one_slice(mat))
        xi = sla.solve(sys, "iterative")
        assert sys.meta.method == "sweep"  # one field: one exact sweep, no GMRES
        assert sys.meta.iterations == 0
        assert sys.meta.residual_norm <= sla.DIRECT_TOL
        # normwise: the solution of cos(2 pi x) has exact zeros, where the
        # two solvers' round-off differs entrywise
        assert np.linalg.norm(xi - xd) / np.linalg.norm(xd) <= 1e-8

    def test_iterative_budget_exhaustion(self, monkeypatch):
        # a two-field system: GMRES on its density Schur complement needs
        # more than one iteration to reach the bound, and the budget allows 1
        mat, _, slices, added = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=23, aligned=False,
                                          holes=0.3, addends=True)
        b = np.random.default_rng(24).standard_normal(mat.shape[0])
        sla.solve(system := sla.LinearSystem(mat, b, slices, added, 20), "iterative")
        assert system.meta.method == "schur"
        assert system.meta.iterations > 1 and system.meta.residual_norm <= sla.DIRECT_TOL
        monkeypatch.setattr(sla, "GMRES_MAX_ITER", 1)
        monkeypatch.setattr(sla, "GMRES_RESTART", 1)
        with pytest.raises(NoConvergenceError, match="after 1 iterations"):
            sla.solve(system, "iterative")

    def test_unknown_method_rejected(self):
        mat = periodic_minus_lap_plus_identity(8)
        with pytest.raises(ValueError, match="linear method"):
            sla.factorize(mat, one_slice(mat), method="gmres")


def random_block_tridiagonal(sizes, seed, density=0.3):
    """Random matrix in which each slice reads the next one only, as the
    fixed-point baseline's value block does, as a CSR matrix in slice-major
    order, its dense copy, and the slice index of each unknown.  Diagonal
    blocks are dense and diagonally heavy; the couplings keep each entry
    with probability ``density``.  No row reads the previous slice, so every
    slice keeps one dense LU."""
    rng = np.random.default_rng(seed)
    off = np.concatenate([[0], np.cumsum(sizes)])
    n = off[-1]
    dense = np.zeros((n, n))
    for k, size in enumerate(sizes):
        part = slice(off[k], off[k + 1])
        dense[part, part] = rng.standard_normal((size, size)) + 3.0 * np.eye(size)
        if k:
            prev = slice(off[k - 1], off[k])
            block = rng.standard_normal(dense[prev, part].shape)
            dense[prev, part] = np.where(rng.random(block.shape) < density, block, 0.0)
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
        x, meta = sla.factorize(mat, slices)(b)
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
        x, _ = sla.factorize(mat, ids)(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)

    def test_single_slice_is_dense_lu(self):
        mat, dense, _ = random_block_tridiagonal((4, 4, 4), seed=6, density=1.0)
        b = np.arange(mat.shape[0], dtype=float)
        lu = sla._SliceLU(*sla._plan(mat, one_slice(mat)), mat.data)
        assert len(lu.lu) == 1 and lu.lu[0][0] is None  # one LU, not split
        x, _ = sla.factorize(mat, one_slice(mat))(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10)

    def test_system_carries_its_slices(self):
        mat, _, slices = random_block_tridiagonal((3, 4, 5), seed=8)
        b = np.ones(mat.shape[0])
        x = sla.solve(sla.LinearSystem(mat, b, slices))
        np.testing.assert_array_equal(x, sla.factorize(mat, slices)(b)[0])

    def test_coupling_two_slices_apart_rejected(self, plan_builds):
        mat, dense, slices = random_block_tridiagonal((3, 3, 3), seed=9)
        dense[0, 7] = 1.0  # slice 0 row, slice 2 column
        i, j = np.nonzero(dense)
        mat = sla.SparseMatrix.from_triplets(9, 9, i, j, dense[i, j])
        for _ in range(2):  # a rejected pattern is not cached
            with pytest.raises(ValueError, match="non-neighbour"):
                sla.factorize(mat, slices)
        assert sla._PLANS == {}

    def test_slice_index_length_checked(self):
        mat, _, slices = random_block_tridiagonal((3, 3), seed=10)
        with pytest.raises(ValueError):
            sla.factorize(mat, slices[:-1])

    def test_exact_zero_pivot_is_singular(self):
        # unknowns u_0, m_0, u_1, m_1; m_1 reads m_0 and u_0 reads u_1.  The
        # Schur update turns slice 1's C from 0 into 1, so D - C A^-1 B is
        # 1 - 1 = 0 exactly, although slice 1's block is not singular
        mat = sla.SparseMatrix.from_triplets(
            4, 4, [0, 0, 1, 1, 2, 2, 3, 3], [0, 2, 0, 1, 2, 3, 1, 3], np.ones(8))
        with pytest.raises(SingularMatrixError, match="zero pivot in time slice 1"):
            sla.factorize(mat, np.array([0, 0, 1, 1]))


class TestPlanCache:
    def test_refactor_matches_fresh_plan_bitwise(self, plan_builds):
        mat, _, slices = random_block_tridiagonal((4, 6, 3, 5), seed=11)
        sla.factorize(mat, slices)
        values = np.random.default_rng(12).standard_normal(mat.nnz)
        a = sp.csr_matrix((mat.data + values, mat.indices, mat.indptr), shape=mat.shape)
        cached = sla._SliceLU(*sla._plan(a, slices), a.data)
        assert len(plan_builds) == 1 and cached.plan is plan_builds[0]
        fresh = sla._SliceLU(sla._SlicePlan(a, slices), {}, a.data)  # built, not cached
        assert all(same(x, y) for x, y in zip(stored(cached), stored(fresh), strict=True))
        b = np.random.default_rng(13).standard_normal(mat.shape[0])
        assert cached.solve(b).tobytes() == fresh.solve(b).tobytes()

    def test_moved_column_builds_new_plan(self, plan_builds):
        mat, dense, slices = random_block_tridiagonal((3, 4, 3), seed=14, density=0.5)
        b = np.random.default_rng(15).standard_normal(mat.shape[0])
        sla.factorize(mat, slices)
        # in a slice 0 row, move one entry of its coupling to slice 1 to a free column
        row = next(r for r in range(3) if 0 < np.count_nonzero(dense[r, 3:7]) < 4)
        stored, free = np.flatnonzero(dense[row, 3:7]) + 3, np.flatnonzero(dense[row, 3:7] == 0.0) + 3
        dense[row, free[0]], dense[row, stored[0]] = dense[row, stored[0]], 0.0
        i, j = np.nonzero(dense)
        moved = sla.SparseMatrix.from_triplets(*mat.shape, i, j, dense[i, j])
        assert moved.nnz == mat.nnz
        x, _ = sla.factorize(moved, slices)(b)
        assert len(plan_builds) == 2
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)

    def test_changed_slices_build_new_plan(self, plan_builds):
        mat, dense, slices = random_block_tridiagonal((3, 4, 3), seed=16)
        b = np.random.default_rng(17).standard_normal(mat.shape[0])
        sla.factorize(mat, slices)
        merged = np.minimum(slices, 1)  # slices 1 and 2 become one slice
        x, _ = sla.factorize(mat, merged)(b)
        assert len(plan_builds) == 2
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)


def two_field(n_u, n_m, seed, aligned=True, holes=0.0, addends=False, density=0.4):
    """Random two-field block-tridiagonal matrix laid out like the Newton
    matrix: every value unknown u_0..u_K, then every density unknown
    m_0..m_K, slice k holding n_u[k] of u and n_m[k] of m.  The couplings
    are those of the implicit scheme: each row of m_k reads one column of
    m_k-1, and rows of u_k read a run of u_k+1's columns, one entry each.
    They are -I/dt between leading unknowns when ``aligned``, otherwise
    random values, shifted columns of m_k-1, and sorted random rows of u_k
    reading a run at a random offset.  Density unknowns lie on consecutive
    slices, the first holding no more than the second, so that each reads
    the previous slice or is read by the next: these are the fields the
    plan finds.  B, the (u, m) block, is a diagonal lacking each entry with
    probability ``holes``, as the solver prunes B where H_m = 0; with
    ``addends`` a dense block is added to every B outside the CSR, as the
    kernel coupling's are.  A and D are diagonally heavy and C random.
    Returns the CSR matrix, its dense copy (addends included), the slices
    and the addends."""
    rng = np.random.default_rng(seed)
    off = np.concatenate([[0], np.cumsum(np.r_[n_u, n_m])])
    field = [slice(lo, hi) for lo, hi in zip(off[:-1], off[1:])]
    us, ms = field[:len(n_u)], field[len(n_u):]
    dense, blocks = np.zeros((off[-1], off[-1])), []

    def sparse(shape):
        return np.where(rng.random(shape) < density, rng.standard_normal(shape), 0.0)

    def coupling(size):
        return np.full(size, -8.0) if aligned else rng.uniform(-2.0, 2.0, size)

    for k, (nu, nm) in enumerate(zip(n_u, n_m)):
        dense[us[k], us[k]] = sparse((nu, nu)) + 4.0 * np.eye(nu)
        dense[ms[k], ms[k]] = sparse((nm, nm)) + 4.0 * np.eye(nm)
        dense[ms[k], us[k]] = sparse((nm, nu))
        i = np.arange(min(nu, nm))  # B's diagonal, less its holes
        dense[us[k].start + i, ms[k].start + i] = np.where(rng.random(i.size) < holes, 0.0,
                                                           rng.uniform(0.5, 1.5, i.size))
        if addends and nu and nm:
            blocks.append((us[k].start, ms[k].start, rng.standard_normal((nu, nm))))
        if k + 1 < len(n_u) and nm and n_m[k + 1]:
            rows = np.arange(n_m[k + 1])
            cols = (rows + (0 if aligned else rng.integers(nm))) % nm
            dense[ms[k + 1].start + rows, ms[k].start + cols] = coupling(rows.size)
        if k + 1 < len(n_u) and nu and n_u[k + 1]:
            run = min(nu, n_u[k + 1]) if aligned else int(rng.integers(1, min(nu, n_u[k + 1]) + 1))
            rows = np.arange(run) if aligned else np.sort(rng.choice(nu, run, replace=False))
            c0 = 0 if aligned else int(rng.integers(n_u[k + 1] - run + 1))
            dense[us[k].start + rows, us[k + 1].start + c0 + np.arange(run)] = coupling(run)
    i, j = np.nonzero(dense)
    mat = sla.SparseMatrix.from_triplets(*dense.shape, i, j, dense[i, j])
    for r, c, block in blocks:
        dense[r:r + block.shape[0], c:c + block.shape[1]] += block
    slices = np.r_[np.repeat(np.arange(len(n_u)), n_u), np.repeat(np.arange(len(n_m)), n_m)]
    return mat, dense, slices, blocks


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

    @pytest.mark.parametrize("n_u, n_m, aligned, addends", [
        ((6, 6, 6, 6, 0), (0, 6, 6, 6, 6), True, False),  # local coupling: m(T) alone
        ((5, 5, 5, 5), (0, 5, 5, 5), True, True),  # kernel coupling: u(T) and m(T)
        ((4, 7, 3, 6, 2), (0, 5, 6, 2, 4), False, False),
        ((4, 7, 3, 6, 2), (0, 5, 6, 2, 4), False, True),  # B's entries and addends
    ])
    def test_matches_dense_solve(self, n_u, n_m, aligned, addends):
        # the kernel coupling's B has no entries (H_m = 0); a random B has holes
        holes = float(addends) if aligned else 0.3
        mat, dense, slices, added = two_field(n_u, n_m, seed=sum(n_u), aligned=aligned,
                                              holes=holes, addends=addends)
        plan, _ = sla._plan(mat, slices, added)
        assert [s[0] for s in plan.split] == [nu if nu and nm else 0 for nu, nm in zip(n_u, n_m)]
        assert any(s is not None for s in plan.schur)
        b = np.random.default_rng(1).standard_normal(mat.shape[0])
        x, meta = sla.factorize(mat, slices, added)(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
        assert meta.residual_norm <= sla.DIRECT_TOL

    def test_stores_three_quarters_of_a_dense_slice(self):
        mat, _, slices, _ = two_field((8, 8, 8), (0, 8, 8), seed=2)
        factor = sla._SliceLU(*sla._plan(mat, slices), mat.data)
        entries = sum(x.size for x in stored(factor) if isinstance(x, np.ndarray) and x.dtype == float)
        assert entries == 8 * 8 + 2 * (3 * 8 * 8 + 8)  # slice 0 whole; A, W, Sigma and B's diagonal

    def test_refactor_matches_fresh_plan_bitwise(self, plan_builds):
        mat, _, slices, added = two_field((6, 6, 6, 6), (0, 6, 6, 6), seed=3, holes=0.3, addends=True)
        sla.factorize(mat, slices, added)
        values = np.random.default_rng(4).uniform(0.5, 1.0, mat.nnz)
        a = sp.csr_matrix((mat.data * values, mat.indices, mat.indptr), shape=mat.shape)
        cached = sla._SliceLU(*sla._plan(a, slices, added), a.data)
        assert len(plan_builds) == 1 and cached.plan is plan_builds[0]
        plan = sla._SlicePlan(a, slices)  # built, not cached
        fresh = sla._SliceLU(plan, plan.place(added), a.data)
        assert all(same(x, y) for x, y in zip(stored(cached), stored(fresh), strict=True))
        b = np.random.default_rng(5).standard_normal(mat.shape[0])
        assert cached.solve(b).tobytes() == fresh.solve(b).tobytes()

    # two_field(n_u, (0, 5, 5, 5)) numbers u_0.. first, then m_1, m_2, m_3;
    # each added entry breaks one condition of the plan, in slice k
    @pytest.mark.parametrize("n_u, entry, k", [
        ((5, 5, 5, 5), (slice(5, 10), slice(10, 15)), 2),
        ((5, 5, 6, 5), (21, 15), 2),
        ((5, 0, 5, 5), (15, 5), 2),
        ((5, 5, 5, 5), (5, 21), 1),
        ((5, 5, 5, 5), (25, 21), 2),
        ((5, 5, 5, 5), (14, 30), 3),
    ], ids=["u_1 reads all of u_2: a dense coupling",
            "m_1 reads u_2's unread column: a coupling row in S_1's m",
            "m_1 reads u_2, and slice 1 keeps one LU",
            "a second entry in a row of slice 1's B",
            "a row of m_2 reads two columns of m_1",
            "u_2's last row also reads m_3: the update would reach D"])
    def test_unsupported_pattern_rejected_before_plan_cached(self, plan_builds, n_u, entry, k):
        _, dense, slices, _ = two_field(n_u, (0, 5, 5, 5), seed=30)
        dense[entry] = 0.5
        i, j = np.nonzero(dense)
        mat = sla.SparseMatrix.from_triplets(*dense.shape, i, j, dense[i, j])
        with pytest.raises(ValueError, match=f"time slice {k}:"):
            sla.factorize(mat, slices)
        assert sla._PLANS == {}


class TestDenseAddends:
    """Dense blocks added to a slice's B outside the CSR, as the kernel
    coupling's are: the factor, the residual check, ``apply`` and GMRES
    all see the whole operator."""

    # two_field((5, 5, 5, 5), (0, 5, 5, 5)): u_k at 5k.., m_k at 15 + 5k..;
    # each addend is the whole B of slices 1, 2 and 3
    ADDENDS = [(5, 20, (5, 5)), (10, 25, (5, 5)), (15, 30, (5, 5))]

    @pytest.mark.parametrize("no_entries", [False, True])  # B's diagonal under the addends, or none
    def test_match_dense_solve(self, no_entries):
        mat, dense, slices, _ = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=20, holes=float(no_entries))
        rng = np.random.default_rng(21)
        addends = [(r, c, rng.standard_normal(shape)) for r, c, shape in self.ADDENDS]
        for r, c, block in addends:
            dense[r:r + block.shape[0], c:c + block.shape[1]] += block
        b = rng.standard_normal(mat.shape[0])
        np.testing.assert_allclose(sla.apply(mat, addends, b), dense @ b, rtol=1e-12)
        x, meta = sla.factorize(mat, slices, addends)(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
        assert meta.residual_norm <= sla.DIRECT_TOL
        xi = sla.solve(sla.LinearSystem(mat, b, slices, addends, 20), "iterative")
        np.testing.assert_allclose(xi, x, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("r, c, shape", [
        (8, 20, (5, 5)),   # rows straddle the u of slices 1 and 2
        (5, 22, (5, 5)),   # columns straddle the m of slices 1 and 2
        (5, 5, (5, 5)),    # slice 1's A
        (20, 20, (5, 5)),  # slice 1's D
        (0, 15, (5, 1)),   # slice 0 holds u only: it has no B
        (15, 33, (5, 5)),  # past the last column
        (11, 27, (3, 2)),  # part of slice 2's B
    ])
    def test_misplaced_rejected_before_plan_cached(self, plan_builds, r, c, shape):
        mat, _, slices, _ = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=22)
        with pytest.raises(ValueError, match="one slice's B block"):
            sla.factorize(mat, slices, [(r, c, np.ones(shape))])
        assert len(plan_builds) == 1 and sla._PLANS == {}

    def test_second_addend_on_one_b_rejected(self, plan_builds):
        # the factor keeps an addend by reference, so two are never summed
        mat, _, slices, _ = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=22)
        with pytest.raises(ValueError, match="one slice's B block, or a second one"):
            sla.factorize(mat, slices, [(15, 30, np.ones((5, 5)))] * 2)
        assert len(plan_builds) == 1 and sla._PLANS == {}

    def test_run_through_another_field_rejected(self, plan_builds):
        # unknowns reordered so that rows 0..4 are u_1, m_1, u_1, u_1, u_1: both
        # ends of the run lie in slice 1's u, its middle does not
        mat, dense, slices, _ = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=22)
        order = np.r_[5, 20, 6:10, 0:5, 10:20, 21:35]
        i, j = np.nonzero(dense[order][:, order])
        mat = sla.SparseMatrix.from_triplets(35, 35, i, j, dense[order][:, order][i, j])
        column = int(np.flatnonzero(order == 21)[0])  # in slice 1's m
        with pytest.raises(ValueError, match="one slice's B block"):
            sla.factorize(mat, slices[order], [(0, column, np.ones((5, 5)))])
        assert sla._PLANS == {}


def random_two_field(seed):
    """A random pattern in ``two_field``'s layout: 2 to 5 slices of 1 to 6
    unknowns per field, u missing from about a third of the slices and m
    from those before a random one (not the last), -I/dt or random
    couplings, B with holes or without entries, and dense addends for about
    half the seeds.  For about half the seeds each slice's fields are
    reordered as whole groups of unknowns, so that slice ids run out of
    order, and the ids skip values.  Returns what ``two_field`` does and
    the field of each unknown (0: u, 1: m)."""
    rng = np.random.default_rng([seed, 1])
    n = int(rng.integers(2, 6))
    n_u, n_m = rng.integers(1, 7, n), rng.integers(1, 7, n)
    n_u[rng.random(n) < 0.3] = 0
    first = int(rng.integers(n - 1))  # m on slices first..n-1
    n_m[:first], n_m[first] = 0, min(n_m[first], n_m[first + 1])
    mat, dense, slices, addends = two_field(tuple(n_u), tuple(n_m), seed, aligned=rng.random() < 0.5,
                                            holes=rng.choice([0.0, 0.5, 1.0]),
                                            addends=rng.random() < 0.5)
    fields = (np.arange(slices.size) >= n_u.sum()).astype(int)
    if rng.random() < 0.5:
        group = 2 * slices + fields  # (slice, field) of each unknown
        perm = np.concatenate([np.flatnonzero(group == g) for g in rng.permutation(2 * n)])
        mat, dense = permuted(mat, dense, perm)
        new = np.argsort(perm)  # each unknown's index after the reordering
        addends = [(new[r], new[c], block) for r, c, block in addends]
        slices, fields = np.cumsum(rng.integers(1, 3, n))[slices[perm]], fields[perm]
    return mat, dense, slices, addends, fields


class TestSweep:
    def test_random_patterns_match_dense_solve(self):
        # every pattern against a dense solve and the single-LU factor; the
        # sweep must reach each feature of the patterns the solver builds
        seen = dict.fromkeys(["update", "update from some u rows", "B with holes",
                              "B without entries", "addends", "ids out of order, with gaps"], 0)
        for seed in range(200):
            mat, dense, slices, addends, _ = random_two_field(seed)
            plan, _ = sla._plan(mat, slices, addends)
            for update, (nu, _, br, _) in zip(plan.schur, plan.split):
                seen["update"] += update is not None
                seen["update from some u rows"] += update is not None and not isinstance(update[3], slice)
                seen["B with holes"] += bool(nu) and isinstance(br, np.ndarray)
                seen["B without entries"] += bool(nu) and isinstance(br, slice) and br.stop == 0
            seen["addends"] += bool(addends)
            seen["ids out of order, with gaps"] += bool(np.diff(np.unique(slices)).max(initial=1) > 1)
            b = np.random.default_rng(seed).standard_normal(mat.shape[0])
            x, meta = sla.factorize(mat, slices, addends)(b)
            np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12,
                                       err_msg=f"seed {seed}")
            np.testing.assert_allclose(OneBlockLU(mat, slices, addends).solve(b), x, rtol=1e-10,
                                       atol=1e-12, err_msg=f"seed {seed}")
            assert meta.residual_norm <= sla.DIRECT_TOL, seed
        assert min(seen.values()) > 0, seen


class OneBlockLU(sla._SliceLU):
    """The block LU in time as it was before slices were split in two levels:
    a dense LU of every Schur complement, addends included, here in the
    plan's order of the unknowns, updated through the whole L and only the
    trailing block of U of the previous slice, from the first row that
    A_k,k-1 reads.  The single-LU oracle, for any pattern the plan
    accepts."""

    def __init__(self, a, slices, dense=()):
        plan = sla._SlicePlan(a, slices)
        self.plan, self.lu, whole = plan, [], a.toarray()
        for r, c, block in dense:
            whole[r:r + block.shape[0], c:c + block.shape[1]] += block
        self.lower, self.upper = ([(r, c, a.data[e]) for r, c, e in x] for x in (plan.lower, plan.upper))
        for k, part in enumerate(plan.parts):
            s = np.asfortranarray(whole[np.ix_(plan.order[part], plan.order[part])])
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
                s[lr, c0:c1] -= lv[:, None] * w[lc - t]  # one entry in each row of A_k,k-1
            lu, piv, _ = lapack.dgetrf(s, overwrite_a=True)
            self.lu.append((lu, piv))

    def _solve_m(self, k, r):
        return lapack.dgetrs(*self.lu[k], r)[0][self.plan.split[k][0]:]

    def _solve(self, k, b):
        return lapack.dgetrs(*self.lu[k], b)[0]


def in_field_order(seed):
    """``random_two_field(seed)`` with its unknowns put back field by field,
    value first, each field in time order, as ``_eliminate`` lays them out:
    the matrix, its dense copy, the slices, the addends and the split."""
    mat, dense, slices, addends, fields = random_two_field(seed)
    order = np.lexsort((slices, fields))
    mat, dense = permuted(mat, dense, order)
    new = np.argsort(order)
    return (mat, dense, slices[order], [(new[r], new[c], block) for r, c, block in addends],
            int(np.count_nonzero(fields == 0)))


class TestSchur:
    """The sweeps in time and GMRES on the density Schur complement, which
    ``"iterative"`` always takes, against a dense solve."""

    def test_random_patterns_match_dense_solve(self):
        seen = dict.fromkeys(["two fields", "one field", "addends", "ids with gaps"], 0)
        for seed in range(200):
            mat, dense, slices, addends, split = in_field_order(seed)
            two = 0 < split < mat.shape[0]
            seen["two fields" if two else "one field"] += 1
            seen["addends"] += bool(addends)
            seen["ids with gaps"] += bool(np.diff(np.unique(slices)).max(initial=1) > 1)
            b = np.random.default_rng(seed).standard_normal(mat.shape[0])
            x, meta = sla.factorize(mat, slices, addends, "iterative", split)(b)
            np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-9, atol=1e-11,
                                       err_msg=f"seed {seed}")
            assert meta.residual_norm <= sla.DIRECT_TOL, seed
            assert meta.method == ("schur" if two else "sweep"), seed
            assert (meta.iterations > 0) == two, seed
            for field in (slice(0, split), slice(split, None)):  # each field alone: one sweep
                block = mat[field][:, field]
                if block.shape[0]:
                    y, meta = sla.factorize(block, slices[field], method="iterative")(b[field])
                    np.testing.assert_allclose(y, np.linalg.solve(dense[field, field], b[field]),
                                               rtol=1e-10, atol=1e-12, err_msg=f"seed {seed}")
                    assert meta.method == "sweep" and meta.iterations == 0, seed
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("slice_major, match", [
        (False, "do not run in time order"), (True, "read both earlier and later slices")])
    def test_two_fields_as_one_rejected(self, slice_major, match):
        # without the split, the fields are one that runs back in time at m_1,
        # and in slice-major order the value field's backward couplings and the
        # density field's forward ones make one block that no sweep solves
        mat, dense, slices, _ = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=25)
        if slice_major:
            order = np.argsort(slices, kind="stable")
            mat, slices = permuted(mat, dense, order)[0], slices[order]
        with pytest.raises(ValueError, match=match):
            sla.factorize(mat, slices, method="iterative")

    @pytest.mark.parametrize("r, c, shape", [(5, 5, (5, 5)), (20, 20, (5, 5)), (20, 5, (5, 5)),
                                             (15, 33, (5, 5)), (-1, 20, (5, 5))])
    def test_addend_outside_a_um_rejected(self, r, c, shape):
        # A_uu's and A_mm's slice 1, A_mu, past the last column, before the first row
        mat, _, slices, _ = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=25)
        with pytest.raises(ValueError, match="does not lie in A_um"):
            sla.factorize(mat, slices, [(r, c, np.ones(shape))], "iterative", 20)

    @pytest.mark.parametrize("spoil_every", [False, True])
    def test_a_residual_above_the_bound_is_refined_once(self, monkeypatch, spoil_every):
        # GMRES's solution on S, shifted by 1e-6, misses the bound on the whole
        # system: one refinement step recovers it, unless it is shifted too
        mat, dense, slices, added = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=23, aligned=False,
                                              holes=0.3, addends=True)
        b = np.random.default_rng(27).standard_normal(mat.shape[0])
        calls, gmres = [], sla.spla.gmres

        def spoiled(*args, **kwargs):
            x, info = gmres(*args, **kwargs)
            calls.append(x.size)
            return (x + 1e-6 if spoil_every or len(calls) == 1 else x), info

        monkeypatch.setattr(sla.spla, "gmres", spoiled)
        solve = sla.factorize(mat, slices, added, "iterative", 20)
        if spoil_every:
            with pytest.raises(NoConvergenceError, match=r"exceeds 1.0e-12 after \d+ iterations$"):
                solve(b)
        else:
            x, meta = solve(b)
            assert meta.residual_norm <= sla.DIRECT_TOL
            np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-9, atol=1e-11)
        assert calls == [15, 15]  # the solve and its refinement, each on S's 15 unknowns

    def test_direct_sweeps_from_sweep_min_n(self, monkeypatch):
        mat, dense, slices, addends, split = in_field_order(3)
        b = np.random.default_rng(26).standard_normal(mat.shape[0])
        assert sla.factorize(mat, slices, addends, split=split)(b)[1].method == "block-lu"
        monkeypatch.setattr(sla, "SWEEP_MIN_N", 1)
        x, meta = sla.factorize(mat, slices, addends, split=split)(b)
        assert meta.method == "schur"
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-9, atol=1e-11)
