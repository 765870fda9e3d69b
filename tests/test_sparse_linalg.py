import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import mfg_newton as mn
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
    """Every unknown in time slice 0: the sweep is one LU."""
    return np.zeros(mat.shape[0], dtype=int)


def planned(mat, slices, split=0):
    """The sweep plan of mat's pattern, given each unknown's time slice and
    where the density field starts (0: one field)."""
    return sla.SweepPlan(mat.indptr, mat.indices, slices, split)


def slice_factors(plan):
    """The slice factors that ``plan`` picks: "band" for LAPACK's band LU,
    "splu" for SuperLU."""
    return {"splu" if csc else "band" for *_, parts in plan.fields for _, _, csc, _ in parts}


SLICE_FACTORS = {"band": sys.maxsize, "splu": -1}  # BAND_MAX that forces each slice factor


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
        x = sla.solve(sla.LinearSystem(mat, b, planned(mat, one_slice(mat))))
        np.testing.assert_array_equal(x, b)

    def test_periodic_lap_against_dense_oracle(self):
        nx = 16
        mat = periodic_minus_lap_plus_identity(nx)
        x_nodes = np.arange(nx) / nx
        b = np.sin(2 * np.pi * x_nodes)
        sys = sla.LinearSystem(mat, b, planned(mat, one_slice(mat)))
        x = sla.solve(sys)
        expected = dense_gauss_solve(mat.toarray(), b)
        np.testing.assert_allclose(x, expected, atol=1e-10)
        assert sys.meta.method == "sweep"
        assert sys.meta.residual_norm <= 1e-12

    def test_overflow_to_non_finite_is_singular(self):
        # x = (1e600, 1) overflows: the factor has no zero pivot, yet no finite solution
        mat = sla.SparseMatrix.from_triplets(2, 2, [0, 1], [0, 1], [1e-300, 1.0])
        with pytest.raises(SingularMatrixError, match="^direct solve produced non-finite values$"):
            sla.solve(sla.LinearSystem(mat, np.array([1e300, 1.0]), planned(mat, one_slice(mat))))

    def test_all_zero_matrix_is_singular(self):
        mat = sla.SparseMatrix.from_triplets(2, 2, [], [], [])
        with pytest.raises(SingularMatrixError):
            sla.solve(sla.LinearSystem(mat, np.ones(2), planned(mat, one_slice(mat))))

    def test_structurally_singular(self):
        # duplicated row -> rank deficient
        mat = sla.SparseMatrix.from_triplets(2, 2, [0, 1], [0, 0], [1.0, 1.0])
        with pytest.raises(SingularMatrixError):
            sla.solve(sla.LinearSystem(mat, np.ones(2), planned(mat, one_slice(mat))))

    def test_hilbert_stays_singular_after_refinement(self):
        # Hilbert(10) has condition ~1.6e13: its residual is ~1e-10 before
        # the refinement step and ~9e-11 after, so refinement cannot hide a
        # numerically singular matrix.
        n = 10
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        mat = sla.SparseMatrix.from_triplets(
            n, n, i.ravel(), j.ravel(), (1.0 / (i + j + 1)).ravel())
        with pytest.raises(SingularMatrixError, match="after refinement"):
            sla.solve(sla.LinearSystem(mat, np.ones(n), planned(mat, one_slice(mat))))

    # the ids keep the names of the two linear methods, which once chose
    # between a dense factor and SuperLU; each now forces a slice factor,
    # LAPACK's band LU or SuperLU
    @pytest.mark.parametrize("band_max", [pytest.param(SLICE_FACTORS["band"], id="direct"),
                                          pytest.param(SLICE_FACTORS["splu"], id="iterative")])
    def test_zero_diagonal_forces_pivoting(self, monkeypatch, band_max):
        # nonsymmetric, with every diagonal entry zero: no factorization
        # without row exchanges exists
        monkeypatch.setattr(sla, "BAND_MAX", band_max)
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
        system = sla.LinearSystem(mat, b, planned(mat, one_slice(mat)))
        assert slice_factors(system.plan) == {"band" if band_max > 0 else "splu"}
        x = sla.solve(system)
        np.testing.assert_allclose(x, dense_gauss_solve(dense, b), atol=1e-10)

    def test_factor_once_solve_many(self):
        mat = periodic_minus_lap_plus_identity(16)
        solve = sla.factorize(mat, planned(mat, one_slice(mat)))
        for k in range(1, 4):
            b = np.sin(2 * np.pi * k * np.arange(16) / 16)
            x, meta = solve(b)
            np.testing.assert_array_equal(x, sla.solve(sla.LinearSystem(mat, b, planned(mat, one_slice(mat)))))
            assert meta.method == "sweep" and meta.residual_norm <= sla.DIRECT_TOL

    def test_non_square_rejected(self):
        mat = sla.SparseMatrix.from_triplets(2, 3, [0, 1], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError):
            sla.solve(sla.LinearSystem(mat, np.ones(2), planned(mat, one_slice(mat))))

    def test_rhs_length_checked(self):
        mat = periodic_minus_lap_plus_identity(8)
        with pytest.raises(ValueError):
            sla.LinearSystem(mat, np.ones(9), planned(mat, one_slice(mat)))

    def test_iterative_matches_direct(self, monkeypatch):
        # one slice of 64 unknowns: one sweep of LAPACK's band LU, and with
        # the half-bandwidth constant at -1 one sweep of SuperLU's, neither
        # with GMRES
        nx = 64
        mat = periodic_minus_lap_plus_identity(nx)
        b = np.cos(2 * np.pi * np.arange(nx) / nx)
        direct = sla.LinearSystem(mat, b, planned(mat, one_slice(mat)))
        xd = sla.solve(direct)
        monkeypatch.setattr(sla, "BAND_MAX", SLICE_FACTORS["splu"])
        sys = sla.LinearSystem(mat, b, planned(mat, one_slice(mat)))
        xi = sla.solve(sys)
        assert slice_factors(direct.plan) == {"band"} and slice_factors(sys.plan) == {"splu"}
        assert sys.meta.method == "sweep"
        assert sys.meta.iterations == 0
        assert sys.meta.residual_norm <= sla.DIRECT_TOL
        # normwise: the solution of cos(2 pi x) has exact zeros, where the
        # two factors' round-off differs entrywise
        assert np.linalg.norm(xi - xd) / np.linalg.norm(xd) <= 1e-8

    def test_iterative_budget_exhaustion(self, monkeypatch):
        # a two-field system: GMRES on its density Schur complement needs
        # more than one iteration to reach the bound, and the budget allows 1
        mat, _, slices, added = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=23, aligned=False,
                                          holes=0.3, addends=True)
        b = np.random.default_rng(24).standard_normal(mat.shape[0])
        sla.solve(system := sla.LinearSystem(mat, b, planned(mat, slices, 20), operator(added, 20)))
        assert system.meta.method == "schur"
        assert system.meta.iterations > 1 and system.meta.residual_norm <= sla.DIRECT_TOL
        monkeypatch.setattr(sla, "GMRES_MAX_ITER", 1)
        monkeypatch.setattr(sla, "GMRES_RESTART", 1)
        with pytest.raises(NoConvergenceError, match="after 1 iterations"):
            sla.solve(system)

    def test_unknown_method_rejected(self):
        # one path solves every system, so factorize takes no method at all
        mat = periodic_minus_lap_plus_identity(8)
        with pytest.raises(TypeError, match="method"):
            sla.factorize(mat, planned(mat, one_slice(mat)), method="direct")


def random_block_tridiagonal(sizes, seed, density=0.3):
    """Random matrix in which each slice reads the next one only, as the
    fixed-point baseline's value block does, as a CSR matrix in slice-major
    order, its dense copy, and the slice index of each unknown.  Diagonal
    blocks are dense and diagonally heavy; the couplings keep each entry
    with probability ``density``.  No row reads the previous slice, so the
    one field is swept backward."""
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


def torus_slices(backward=True, nx=16, k=4):
    """k slices of a nx x nx torus Laplacian plus 0.1 I, each reading the
    next slice (swept backward) or the one before (forward) through -I, as a
    dense matrix and the slice of each unknown."""
    ring = 2.0 * np.eye(nx) - np.roll(np.eye(nx), 1, axis=1) - np.roll(np.eye(nx), -1, axis=1)
    n = nx * nx
    dense = np.kron(np.eye(k), np.kron(ring, np.eye(nx)) + np.kron(np.eye(nx), ring) + 0.1 * np.eye(n))
    dense -= np.kron(np.eye(k, k=1 if backward else -1), np.eye(n))
    return dense, np.repeat(np.arange(k), n)


class TestSliceLU:
    """One field whose slices each read the next one only: one backward sweep."""

    @pytest.mark.parametrize("sizes", [(5, 5, 5, 5), (1, 7, 3, 12, 2), (9,)])
    def test_matches_dense_solve(self, sizes):
        mat, dense, slices = random_block_tridiagonal(sizes, seed=len(sizes))
        b = np.random.default_rng(7).standard_normal(mat.shape[0])
        x, meta = sla.factorize(mat, planned(mat, slices))(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
        assert meta.method == "sweep" and meta.residual_norm <= sla.DIRECT_TOL

    def test_slice_ids_out_of_order_and_with_gaps(self):
        # ids 0, 2, 5, 6 with the empty slices 1, 3, 4 skipped: the slices
        # present are swept in turn; unknowns interleaved across slices are
        # no field in time order, which the plan rejects
        mat, dense, slices = random_block_tridiagonal((4, 6, 3, 5), seed=3)
        ids = np.array([0, 2, 5, 6])[slices]
        b = np.random.default_rng(5).standard_normal(mat.shape[0])
        x, _ = sla.factorize(mat, planned(mat, ids))(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
        perm = np.random.default_rng(4).permutation(mat.shape[0])
        with pytest.raises(ValueError, match="do not run in time order"):
            planned(permuted(mat, dense, perm)[0], ids[perm])

    def test_single_slice_is_band_lu(self):
        mat, dense, _ = random_block_tridiagonal((4, 4, 4), seed=6, density=1.0)
        b = np.arange(mat.shape[0], dtype=float)
        sweeps = sla._Sweeps(planned(mat, one_slice(mat)), mat.data)
        [(_, [(part, lu, layers)])] = sweeps.fields  # one field of one slice, reading none
        assert part == slice(0, 12) and isinstance(lu, sla._BandLU) and layers == []
        assert lu.lu.shape == (2 * lu.kl + lu.ku + 1, 12) and max(lu.kl, lu.ku) < 12
        x, _ = sla.factorize(mat, planned(mat, one_slice(mat)))(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10)

    def test_system_carries_its_slices(self):
        mat, _, slices = random_block_tridiagonal((3, 4, 5), seed=8)
        b = np.ones(mat.shape[0])
        x = sla.solve(sla.LinearSystem(mat, b, planned(mat, slices)))
        np.testing.assert_array_equal(x, sla.factorize(mat, planned(mat, slices))(b)[0])

    def test_coupling_two_slices_apart_rejected(self):
        # a sweep reads any slice it solved before, so a coupling past the
        # neighbour slice is solved, twice on one plan
        mat, dense, slices = random_block_tridiagonal((3, 3, 3), seed=9)
        dense[0, 7] = 1.0  # slice 0 row, slice 2 column
        i, j = np.nonzero(dense)
        mat = sla.SparseMatrix.from_triplets(9, 9, i, j, dense[i, j])
        b, plan = np.random.default_rng(9).standard_normal(9), planned(mat, slices)
        for _ in range(2):
            x, _ = sla.factorize(mat, plan)(b)
            np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)

    def test_slice_index_length_checked(self):
        mat, _, slices = random_block_tridiagonal((3, 3), seed=10)
        with pytest.raises(ValueError, match="slice index length"):
            planned(mat, slices[:-1])

    def test_matrix_off_its_plan_rejected(self):
        # a plan serves its pattern only: a matrix of another shape or count
        # of stored entries is rejected before anything is factored
        mat, _, slices = random_block_tridiagonal((3, 4, 3), seed=10)
        plan = planned(mat, slices)
        fewer = sp.csr_matrix(mat)
        fewer.data[0] = 0.0
        fewer.eliminate_zeros()
        for other in (fewer, mat[:7, :7]):
            with pytest.raises(ValueError, match="is not its plan's"):
                sla.factorize(other, plan)

    def test_exact_zero_pivot_is_singular(self, monkeypatch):
        # slice 1 reads slice 0, and its block [[1, 1], [1, 1]] is singular:
        # the second pivot of its LU is 1 - 1 = 0 exactly
        mat = sla.SparseMatrix.from_triplets(
            4, 4, [0, 1, 2, 2, 2, 3, 3], [0, 1, 0, 2, 3, 2, 3], np.ones(7))
        with pytest.raises(SingularMatrixError, match="^exact zero pivot in time slice 1$"):
            sla.factorize(mat, planned(mat, np.array([0, 0, 1, 1])))
        monkeypatch.setattr(sla, "BAND_MAX", SLICE_FACTORS["splu"])
        with pytest.raises(SingularMatrixError, match="^exactly singular block in time slice 1$"):
            sla.factorize(mat, planned(mat, np.array([0, 0, 1, 1])))

    def test_singular_band_block_names_its_slice(self, monkeypatch):
        # three periodic tridiagonal slice blocks of 16, each slice reading
        # the next; slice 2's block lacks column 5, so its band LU finds no
        # nonzero pivot in that column, whatever the ordering
        nx, i = 16, np.arange(16)
        dense = np.kron(np.eye(3, k=1), -np.eye(nx))
        for k in range(3):
            dense[k * nx + i, k * nx + i] = 4.0
            dense[k * nx + i, k * nx + (i + 1) % nx] = dense[k * nx + i, k * nx + (i - 1) % nx] = -1.0
        dense[2 * nx:, 2 * nx + 5] = 0.0
        r, c = np.nonzero(dense)
        mat = sla.SparseMatrix.from_triplets(3 * nx, 3 * nx, r, c, dense[r, c])
        slices = np.repeat(np.arange(3), nx)
        [(_, _, _, band, parts)] = planned(mat, slices).fields
        assert band is not None and [csc for _, _, csc, _ in parts] == [None] * 3  # band LUs
        with pytest.raises(SingularMatrixError, match="^exact zero pivot in time slice 2$"):
            sla.factorize(mat, planned(mat, slices))
        monkeypatch.setattr(sla, "BAND_MAX", SLICE_FACTORS["splu"])
        with pytest.raises(SingularMatrixError, match="^exactly singular block in time slice 2$"):
            sla.factorize(mat, planned(mat, slices))

    @pytest.mark.parametrize("backward", [True, False])
    def test_first_singular_slice_swept_is_named(self, monkeypatch, backward):
        # four slices of a 16 x 16 torus Laplacian (RCM half-bandwidth 31,
        # padded to LAPACK_NB in the field's one band storage), each reading
        # the next slice (swept backward) or the one before (forward); slices 1
        # and 2 lack column 5, and the error names the one swept first
        dense, slices = torus_slices(backward)
        n = dense.shape[0] // 4
        for s in (1, 2):
            dense[s * n:(s + 1) * n, s * n + 5] = 0.0
        r, c = np.nonzero(dense)
        mat = sla.SparseMatrix.from_triplets(*dense.shape, r, c, dense[r, c])
        [(_, _, _, band, parts)] = planned(mat, slices).fields
        assert band[0] == sla.LAPACK_NB and [part[0] for part in parts] == [3, 2, 1, 0][::1 if backward else -1]
        first = 2 if backward else 1
        with pytest.raises(SingularMatrixError, match=f"^exact zero pivot in time slice {first}$"):
            sla.factorize(mat, planned(mat, slices))
        monkeypatch.setattr(sla, "BAND_MAX", SLICE_FACTORS["splu"])
        with pytest.raises(SingularMatrixError, match=f"^exactly singular block in time slice {first}$"):
            sla.factorize(mat, planned(mat, slices))

    def test_band_and_superlu_slices_share_a_field(self, monkeypatch):
        # with BAND_MAX = 2, a field's slices of at most that half-bandwidth
        # take the band LU in the field's band storage and its wider ones
        # SuperLU, whose entries land unread in their own columns there
        monkeypatch.setattr(sla, "BAND_MAX", 2)
        mixed = 0
        for seed in range(40):
            mat, dense, slices, _, split = random_two_field(seed)
            fields = [f for f in (slice(0, split), slice(split, mat.shape[0])) if f.start < f.stop]
            sweeps = sla._Sweeps(planned(mat, slices, split), mat.data)
            for f, (part, (order, steps)) in enumerate(zip(fields, sweeps.fields)):
                block = dense[part, part][np.ix_(order, order)]
                for p, lu, _ in steps:  # the band LU exactly where the block's half-bandwidth is at most 2
                    i, j = np.nonzero(block[p, p])
                    assert isinstance(lu, sla._BandLU) == (np.abs(i - j).max() <= 2), seed
                mixed += {isinstance(lu, sla._BandLU) for _, lu, _ in steps} == {True, False}
                b = np.random.default_rng(seed).standard_normal(part.stop - part.start)
                np.testing.assert_allclose(sweeps.solve(f, b), np.linalg.solve(dense[part, part], b),
                                           rtol=1e-10, atol=1e-12, err_msg=f"seed {seed}")
        assert mixed > 0


class TestPlanCache:
    """A plan built once serves every factorization of its pattern."""

    def test_refactor_matches_fresh_plan_bitwise(self):
        mat, _, slices = random_block_tridiagonal((4, 6, 3, 5), seed=11)
        plan = planned(mat, slices)
        sla.factorize(mat, plan)
        values = np.random.default_rng(12).standard_normal(mat.nnz)
        a = sp.csr_matrix((mat.data + values, mat.indices, mat.indptr), shape=mat.shape)
        again = sla._Sweeps(plan, a.data)
        fresh = sla._Sweeps(planned(a, slices), a.data)
        assert all(same(x, y) for x, y in zip(stored(again), stored(fresh), strict=True))
        b = np.random.default_rng(13).standard_normal(mat.shape[0])
        assert again.solve(0, b).tobytes() == fresh.solve(0, b).tobytes()


def revalued(mat, seed):
    """mat's pattern with each stored value scaled by a random factor in [1, 1.5)."""
    scale = 1.0 + 0.5 * np.random.default_rng(seed).random(mat.nnz)
    return sp.csr_matrix((mat.data * scale, mat.indices, mat.indptr), shape=mat.shape)


def first_band_lu(sweeps):
    """The band LU array of the first band slice that sweeps factor."""
    return next(lu.lu for _, steps in sweeps.fields for _, lu, _ in steps if isinstance(lu, sla._BandLU))


class TestBandStorageReuse:
    """A plan's spare band storages: taken by the next factorization once no
    live one holds them, zeroed, and returned when its factor is collected."""

    @staticmethod
    def torus(backward=True):
        dense, slices = torus_slices(backward)
        r, c = np.nonzero(dense)
        return sla.SparseMatrix.from_triplets(*dense.shape, r, c, dense[r, c]), slices

    @staticmethod
    def solved(sweeps, n, seed):
        b = np.random.default_rng(seed).standard_normal(n)
        return sweeps.solve(0, b).tobytes()

    @pytest.mark.parametrize("backward", [True, False])
    def test_dropped_factor_storage_is_reused_and_zeroed(self, backward):
        # the band holds structural zeros that the first LU fills; left in
        # place, that fill would leak into the second factorization
        mat, slices = self.torus(backward)
        plan = planned(mat, slices)
        dropped = sla._Sweeps(plan, mat.data)
        old = first_band_lu(dropped)
        dropped = None
        a = revalued(mat, 1)
        again = sla._Sweeps(plan, a.data)
        assert plan.spare is None and np.shares_memory(first_band_lu(again), old)
        fresh = sla._Sweeps(planned(a, slices), a.data)
        assert all(same(x, y) for x, y in zip(stored(again), stored(fresh), strict=True))
        assert self.solved(again, mat.shape[0], 2) == self.solved(fresh, mat.shape[0], 2)

    def test_live_factor_is_never_written(self):
        mat, slices = self.torus()
        a, plan = revalued(mat, 3), planned(mat, slices)
        live = sla._Sweeps(plan, mat.data)
        before = self.solved(live, mat.shape[0], 4)
        second = sla._Sweeps(plan, a.data)
        assert not np.shares_memory(first_band_lu(live), first_band_lu(second))
        assert self.solved(live, mat.shape[0], 4) == before
        for sweeps, m in ((live, mat), (second, a)):
            fresh = sla._Sweeps(planned(m, slices), m.data)
            assert self.solved(sweeps, mat.shape[0], 4) == self.solved(fresh, mat.shape[0], 4)

    def test_two_fields_reuse_one_storage_each(self):
        mat, _, slices, _ = two_field([3, 4, 4, 2], [2, 4, 4, 3], seed=5, density=0.3)
        plan = planned(mat, slices, 13)
        dropped = sla._Sweeps(plan, mat.data)
        old = [steps[0][1].lu for _, steps in dropped.fields]
        dropped = None
        a = revalued(mat, 6)
        again = sla._Sweeps(plan, a.data)
        assert [np.shares_memory(steps[0][1].lu, lu) for (_, steps), lu in zip(again.fields, old)] == [True] * 2
        fresh = sla._Sweeps(planned(a, slices, 13), a.data)
        assert all(same(x, y) for x, y in zip(stored(again), stored(fresh), strict=True))

    def test_storage_of_an_aborted_factorization_is_reused(self):
        # the torus slices with slices 1 and 2's column 5 stored as exact
        # zeros: one pattern, first singular, then regular
        mat, slices = self.torus()
        n, plan = mat.shape[0] // 4, planned(mat, slices)
        row = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
        hole = (mat.indices % n == 5) & (mat.indices // n == row // n) & np.isin(row // n, (1, 2))
        singular = sp.csr_matrix((np.where(hole, 0.0, mat.data), mat.indices, mat.indptr), shape=mat.shape)
        with pytest.raises(SingularMatrixError, match="^exact zero pivot in time slice 2$"):
            sla.factorize(singular, plan)
        [spare] = plan.spare  # back once the aborted factorization is collected
        a = revalued(mat, 7)
        again = sla._Sweeps(plan, a.data)
        assert np.shares_memory(first_band_lu(again), spare)
        fresh = sla._Sweeps(planned(a, slices), a.data)
        assert all(same(x, y) for x, y in zip(stored(again), stored(fresh), strict=True))
        assert self.solved(again, mat.shape[0], 8) == self.solved(fresh, mat.shape[0], 8)

    def test_dropped_plan_frees_its_storages(self):
        # once its holder drops a plan and its factors are dropped, nothing
        # holds the plan or its spare storages
        mat, slices = self.torus()
        plan = planned(mat, slices)
        sla.factorize(mat, plan)
        spare = weakref.ref(plan.spare[0])
        live = sla.factorize(revalued(mat, 9), plan)  # holds the spare storage past the plan's drop
        plan = weakref.ref(plan)
        assert plan() is not None and spare() is not None
        live = None
        assert plan() is None and spare() is None


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
    the previous slice or is read by the next.  B, the (u, m) block, is a diagonal lacking each entry with
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


def operator(addends, split):
    """The dense blocks ``addends`` (row, column, block), all in A_um, as one
    operator from x's density part (its unknowns from ``split`` on) to its
    product on the value rows, as the kernel coupling's is; None without
    blocks."""
    if not addends:
        return None

    def um(xm):
        y = np.zeros(split)
        for r, c, block in addends:
            y[r:r + block.shape[0]] += block @ xm[c - split:c - split + block.shape[1]]
        return y

    return um


def stored(sweeps):
    """Every array and index that sweeps keep for their slices, in order."""
    def flat(x):
        if isinstance(x, sla._BandLU):
            return [x.lu, x.piv, x.kl, x.ku]
        return [y for part in x for y in flat(part)] if isinstance(x, (tuple, list)) else [x]
    return flat(sweeps.fields)


def same(a, b):
    return (a.dtype == b.dtype and a.tobytes() == b.tobytes()) if isinstance(a, np.ndarray) else a == b


class TestTwoLevel:
    """Two fields laid out as in the Newton matrix: the value field swept
    backward, the density field forward, and GMRES on the density Schur
    complement between them."""

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
        plan = planned(mat, slices, sum(n_u))
        assert [[part[0] for part in parts] for *_, parts in plan.fields] == \
            [[k for k in reversed(range(len(n_u))) if n_u[k]], [k for k in range(len(n_m)) if n_m[k]]]
        b = np.random.default_rng(1).standard_normal(mat.shape[0])
        x, meta = sla.factorize(mat, planned(mat, slices, sum(n_u)), operator(added, sum(n_u)))(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
        assert meta.method == "schur" and meta.residual_norm <= sla.DIRECT_TOL

    def test_each_field_slice_is_one_band_lu(self):
        # each field's slice block is one band LU of its n unknowns, in
        # LAPACK's band storage of 2 kl + ku + 1 rows
        mat, _, slices, _ = two_field((8, 8, 8), (0, 8, 8), seed=2)
        sweeps = sla._Sweeps(planned(mat, slices, 24), mat.data)
        lus = [lu for _, steps in sweeps.fields for _, lu, *_ in steps]
        assert len(lus) == 5 and all(isinstance(lu, sla._BandLU) for lu in lus)
        assert [lu.lu.shape for lu in lus] == [(2 * lu.kl + lu.ku + 1, 8) for lu in lus]

    def test_refactor_matches_fresh_plan_bitwise(self):
        mat, _, slices, added = two_field((6, 6, 6, 6), (0, 6, 6, 6), seed=3, holes=0.3, addends=True)
        plan = planned(mat, slices, 24)
        sla.factorize(mat, plan, operator(added, 24))
        values = np.random.default_rng(4).uniform(0.5, 1.0, mat.nnz)
        a = sp.csr_matrix((mat.data * values, mat.indices, mat.indptr), shape=mat.shape)
        again = sla._Sweeps(plan, a.data)
        fresh = sla._Sweeps(planned(a, slices, 24), a.data)
        assert all(same(x, y) for x, y in zip(stored(again), stored(fresh), strict=True))
        b = np.random.default_rng(5).standard_normal(mat.shape[0])
        x, _ = sla._schur(a, operator(added, 24), again, 24)(b)
        assert x.tobytes() == sla._schur(a, operator(added, 24), fresh, 24)(b)[0].tobytes()

    # two_field(n_u, (0, 5, 5, 5)) numbers u_0.. first, then m_1, m_2, m_3;
    # each added entry breaks a condition that a block LU in time would put
    # on slice k, and none that the sweeps need: each system is solved
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
    def test_patterns_beyond_a_block_lu_are_solved(self, n_u, entry, k):
        _, dense, slices, _ = two_field(n_u, (0, 5, 5, 5), seed=30)
        dense[entry] = 0.5
        i, j = np.nonzero(dense)
        mat = sla.SparseMatrix.from_triplets(*dense.shape, i, j, dense[i, j])
        b = np.random.default_rng(k).standard_normal(mat.shape[0])
        x, meta = sla.factorize(mat, planned(mat, slices, sum(n_u)))(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
        assert meta.method == "schur"


class TestDenseAddends:
    """Dense blocks added to a slice's B outside the CSR and applied as one
    operator on A_um, as the kernel coupling's are: the residual check and
    GMRES both see the whole operator, and no sweep factors it."""

    # two_field((5, 5, 5, 5), (0, 5, 5, 5)): u_k at 5k.., m_k at 15 + 5k..;
    # each addend is the whole B of slices 1, 2 and 3
    ADDENDS = [(5, 20, (5, 5)), (10, 25, (5, 5)), (15, 30, (5, 5))]

    @pytest.mark.parametrize("no_entries", [False, True])  # B's diagonal under the addends, or none
    def test_match_dense_solve(self, monkeypatch, no_entries):
        mat, dense, slices, _ = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=20, holes=float(no_entries))
        rng = np.random.default_rng(21)
        addends = [(r, c, rng.standard_normal(shape)) for r, c, shape in self.ADDENDS]
        for r, c, block in addends:
            dense[r:r + block.shape[0], c:c + block.shape[1]] += block
        b, um = rng.standard_normal(mat.shape[0]), operator(addends, 20)
        np.testing.assert_allclose(mat @ b + np.r_[um(b[20:]), np.zeros(15)], dense @ b, rtol=1e-12)
        x, meta = sla.factorize(mat, planned(mat, slices, 20), um)(b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
        assert meta.residual_norm <= sla.DIRECT_TOL
        monkeypatch.setattr(sla, "BAND_MAX", SLICE_FACTORS["splu"])
        xi = sla.solve(system := sla.LinearSystem(mat, b, planned(mat, slices, 20), um))
        assert slice_factors(system.plan) == {"splu"}
        np.testing.assert_allclose(xi, x, rtol=1e-9, atol=1e-11)

    def test_run_through_another_field_rejected(self):
        # unknowns reordered so that rows 0..4 are u_1, m_1, u_1, u_1, u_1: the
        # value field [0, 20) holds m_1 and so does not run in time order
        mat, dense, slices, _ = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=22)
        order = np.r_[5, 20, 6:10, 0:5, 10:20, 21:35]
        i, j = np.nonzero(dense[order][:, order])
        mat = sla.SparseMatrix.from_triplets(35, 35, i, j, dense[order][:, order][i, j])
        column = int(np.flatnonzero(order == 21)[0])  # in slice 1's m
        with pytest.raises(ValueError, match="do not run in time order"):
            sla.factorize(mat, planned(mat, slices[order], 20), operator([(0, column, np.ones((5, 5)))], 20))


def random_two_field(seed):
    """A random pattern in ``two_field``'s layout, field by field and each
    field in time order, as ``_eliminate`` lays the Newton matrix out: 2 to
    5 slices of 1 to 6 unknowns per field, u missing from about a third of
    the slices and m from those before a random one (not the last), -I/dt or
    random couplings, B with holes or without entries, dense addends for
    about half the seeds, and for about half the seeds slice ids that skip
    values.  Returns what ``two_field`` does and the split."""
    rng = np.random.default_rng([seed, 1])
    n = int(rng.integers(2, 6))
    n_u, n_m = rng.integers(1, 7, n), rng.integers(1, 7, n)
    n_u[rng.random(n) < 0.3] = 0
    first = int(rng.integers(n - 1))  # m on slices first..n-1
    n_m[:first], n_m[first] = 0, min(n_m[first], n_m[first + 1])
    mat, dense, slices, addends = two_field(tuple(n_u), tuple(n_m), seed, aligned=rng.random() < 0.5,
                                            holes=rng.choice([0.0, 0.5, 1.0]),
                                            addends=rng.random() < 0.5)
    if rng.random() < 0.5:
        slices = np.cumsum(rng.integers(1, 3, n))[slices]
    return mat, dense, slices, addends, int(n_u.sum())


class TestSweep:
    def test_random_patterns_match_dense_solve(self, monkeypatch):
        # each field of every pattern swept alone, by both slice factors,
        # against a dense solve of its block and against each other; the
        # sweeps must reach each feature of the patterns the solver builds,
        # and each field's order must keep every unknown in its slice
        seen = dict.fromkeys(["backward", "forward", "couplings", "band", "splu", "ids with gaps"], 0)
        for seed in range(200):
            mat, dense, slices, _, split = random_two_field(seed)
            fields = [f for f in (slice(0, split), slice(split, mat.shape[0])) if f.start < f.stop]
            for part, (order, _, coupled, _, parts) in zip(fields, planned(mat, slices, split).fields):
                assert np.array_equal(slices[part][order], slices[part]), seed
                seen["backward"] += parts[0][0] > parts[-1][0]
                seen["forward"] += parts[0][0] < parts[-1][0]
                seen["couplings"] += coupled.size > 0
            seen["ids with gaps"] += bool(np.diff(np.unique(slices)).max(initial=1) > 1)
            b = np.random.default_rng(seed).standard_normal(mat.shape[0])
            solved = []
            for name, band_max in SLICE_FACTORS.items():
                monkeypatch.setattr(sla, "BAND_MAX", band_max)  # the plan picks each slice's layout
                sweeps = sla._Sweeps(planned(mat, slices, split), mat.data)
                assert all(isinstance(step[1], sla._BandLU) == (name == "band")
                           for _, steps in sweeps.fields for step in steps), seed
                seen[name] += 1
                solved.append(np.concatenate([sweeps.solve(f, b[part]) for f, part in enumerate(fields)]))
                for part in fields:
                    np.testing.assert_allclose(solved[-1][part], np.linalg.solve(dense[part, part], b[part]),
                                               rtol=1e-10, atol=1e-12, err_msg=f"seed {seed}, {name}")
            np.testing.assert_allclose(*solved, rtol=1e-10, atol=1e-12, err_msg=f"seed {seed}")
        assert min(seen.values()) > 0, seen


def layered_field(sizes, modes, rng, backward):
    """One field's dense block in time order: slice k of ``sizes[k]``
    unknowns, a diagonally heavy random block, whose rows each read 0, 1 or
    3 random columns of the slices swept before it (the later ones when
    ``backward``): ``modes[k]`` rows of 0, 1 or 3 entries, or a mix of all
    three.  The first slice swept reads none."""
    off = np.r_[0, np.cumsum(sizes)]
    dense = np.zeros((off[-1], off[-1]))
    for k, size in enumerate(sizes):
        dense[off[k]:off[k + 1], off[k]:off[k + 1]] = rng.standard_normal((size, size)) + 4.0 * np.eye(size)
        before = np.arange(off[k + 1], off[-1]) if backward else np.arange(off[k])
        counts = rng.choice([0, 1, 3], size) if modes[k] == "mixed" else np.full(size, modes[k])
        for i, count in zip(range(off[k], off[k + 1]), counts * (before.size > 0)):
            dense[i, rng.choice(before, count, replace=False)] = rng.uniform(-1.0, 1.0, count)
    return dense


class TestLayers:
    """Slices whose rows carry 0, 1 or 3 coupling entries: the plan gives each
    slice as many layers as its fullest row has entries, padding the others,
    and the one sweep loop solves every pattern to round-off with either
    slice factor."""

    @pytest.mark.parametrize("name", SLICE_FACTORS)
    def test_random_rows_match_dense_solve(self, monkeypatch, name):
        monkeypatch.setattr(sla, "BAND_MAX", SLICE_FACTORS[name])
        seen = dict.fromkeys(["backward", "forward", "two fields", "0", "1", "3", "padded"], 0)
        for seed in range(40):
            rng = np.random.default_rng([seed, 3])
            k = int(rng.integers(2, 5))
            sizes = [rng.integers(3, 7, k) for _ in range(2)]
            modes = [[(0, 1, 3, "mixed")[i] for i in rng.integers(4, size=k)] for _ in range(2)]
            two = seed % 3 == 0  # the value field swept backward, the density forward
            backward = two or seed % 3 == 1
            u = layered_field(sizes[0], modes[0], rng, backward)
            if two:  # with B diagonal and C sparse in each slice, as the Newton matrix
                m = layered_field(sizes[1], modes[1], rng, False)
                dense, split, slices = sp.block_diag((u, m)).toarray(), u.shape[0], np.r_[
                    np.repeat(np.arange(k), sizes[0]), np.repeat(np.arange(k), sizes[1])]
                for s in range(k):
                    rows, cols = np.flatnonzero(slices[:split] == s), split + np.flatnonzero(slices[split:] == s)
                    i = np.arange(min(rows.size, cols.size))
                    dense[rows[i], cols[i]] = rng.uniform(0.5, 1.5, i.size)
                    dense[np.ix_(cols, rows)] = np.where(rng.random((cols.size, rows.size)) < 0.4,
                                                        rng.standard_normal((cols.size, rows.size)), 0.0)
            else:
                dense, split, slices = u, 0, np.repeat(np.arange(k), sizes[0])
            i, j = np.nonzero(dense)
            mat = sla.SparseMatrix.from_triplets(*dense.shape, i, j, dense[i, j])
            fields = [(0, split), (split, mat.shape[0])] if two else [(0, mat.shape[0])]
            plan = planned(mat, slices, split)
            for (lo, hi), (_, _, coupled, _, parts) in zip(fields, plan.fields):
                block, s = dense[lo:hi, lo:hi], slices[lo:hi]
                reads = np.count_nonzero(block * (s[:, None] != s[None, :]), axis=1)  # each row's entries
                for sid, _, _, layers in parts:
                    assert len(layers) == reads[s == sid].max(), seed
                    seen["padded"] += any(np.any(ents == coupled.size) for ents, _ in layers)
                    seen.update({str(w): seen[str(w)] + 1 for w in set(reads[s == sid]) if str(w) in seen})
            seen["two fields" if two else "backward" if backward else "forward"] += 1
            b = rng.standard_normal(mat.shape[0])
            assert slice_factors(plan) == {name}, seed
            x, meta = sla.factorize(mat, plan)(b)
            np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12,
                                       err_msg=f"seed {seed}")
            assert meta.residual_norm <= sla.DIRECT_TOL and meta.method == ("schur" if two else "sweep"), seed
        assert min(seen.values()) > 0, seen


class TestSchur:
    """The sweeps in time and GMRES on the density Schur complement, which
    every two-field solve takes, against a dense solve."""

    def test_random_patterns_match_dense_solve(self, monkeypatch):
        seen = dict.fromkeys(["two fields", "one field", "addends", "ids with gaps"], 0)
        for seed in range(200):
            mat, dense, slices, addends, split = random_two_field(seed)
            two = 0 < split < mat.shape[0]
            seen["two fields" if two else "one field"] += 1
            seen["addends"] += bool(addends)
            seen["ids with gaps"] += bool(np.diff(np.unique(slices)).max(initial=1) > 1)
            b = np.random.default_rng(seed).standard_normal(mat.shape[0])
            solved = []
            for name, band_max in SLICE_FACTORS.items():
                monkeypatch.setattr(sla, "BAND_MAX", band_max)
                plan = planned(mat, slices, split)
                assert slice_factors(plan) == {name}, seed
                x, meta = sla.factorize(mat, plan, operator(addends, split))(b)
                solved.append(x)
                np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-9, atol=1e-11,
                                           err_msg=f"seed {seed}, {name}")
                assert meta.residual_norm <= sla.DIRECT_TOL, seed
                assert meta.method == ("schur" if two else "sweep"), seed
                assert (meta.iterations > 0) == two, seed
                for field in (slice(0, split), slice(split, None)):  # each field alone: one sweep
                    block = mat[field][:, field]
                    if block.shape[0]:
                        y, meta = sla.factorize(block, planned(block, slices[field]))(b[field])
                        np.testing.assert_allclose(y, np.linalg.solve(dense[field, field], b[field]),
                                                   rtol=1e-10, atol=1e-12, err_msg=f"seed {seed}, {name}")
                        assert meta.method == "sweep" and meta.iterations == 0, seed
            np.testing.assert_allclose(*solved, rtol=1e-9, atol=1e-11, err_msg=f"seed {seed}")
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
            sla.factorize(mat, planned(mat, slices))

    @pytest.mark.parametrize("split", [0, 20])
    def test_operator_on_one_field_plan_rejected(self, split):
        # the value field alone, planned as one field whether split is 0 or
        # its size: it has no A_um, so an operator on it is rejected before
        # any slice is factored
        mat, _, slices, _ = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=25)
        block, plan = mat[:20][:, :20], planned(mat[:20][:, :20], slices[:20], split)
        with pytest.raises(ValueError, match="needs a two-field plan"):
            sla.factorize(block, plan, lambda xm: np.zeros(20))
        assert plan.spare is None  # no factorization ran
        x, meta = sla.factorize(block, plan)(np.ones(20))
        assert meta.method == "sweep" and meta.residual_norm <= sla.DIRECT_TOL

    @pytest.mark.parametrize("spoil_every", [False, True])
    def test_a_residual_above_the_bound_is_refined_once(self, monkeypatch, spoil_every):
        # GMRES's density update dm, shifted by 1e-6, misses the bound on the
        # whole system: one refinement step recovers it, unless it is shifted too
        mat, dense, slices, added = two_field((5, 5, 5, 5), (0, 5, 5, 5), seed=23, aligned=False,
                                              holes=0.3, addends=True)
        b = np.random.default_rng(27).standard_normal(mat.shape[0])
        calls, schur = [], sla._schur

        def spoiling(a, um, sweeps, split):
            solve = schur(a, um, sweeps, split)

            def spoiled(rhs):
                x, its = solve(rhs)
                calls.append(x.size - split)
                if spoil_every or len(calls) == 1:
                    x[split:] += 1e-6
                return x, its

            return spoiled

        monkeypatch.setattr(sla, "_schur", spoiling)
        solve = sla.factorize(mat, planned(mat, slices, 20), operator(added, 20))
        if spoil_every:
            with pytest.raises(NoConvergenceError, match=r"exceeds 1.0e-12 after \d+ iterations$"):
                solve(b)
        else:
            x, meta = solve(b)
            assert meta.residual_norm <= sla.DIRECT_TOL
            np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-9, atol=1e-11)
        assert calls == [15, 15]  # the solve and its refinement, each on S's 15 unknowns

    def test_random_patterns_match_dense_solve_with_restarts(self, monkeypatch):
        # a restart every 3 iterations: each cycle sweeps u from the m so far
        # and starts from the residual of the m rows.  Not 2: restarted
        # GMRES(2) stagnates on seeds 51 and 123 and crawls on 150, whose
        # preconditioned S has an indefinite symmetric part, in exact
        # arithmetic too
        monkeypatch.setattr(sla, "GMRES_RESTART", 3)
        restarted, solve = [], sla.factorize

        def recording(*args, **kwargs):
            inner = solve(*args, **kwargs)

            def recorded(b):
                x, meta = inner(b)
                restarted.append(meta.iterations > sla.GMRES_RESTART)
                return x, meta

            return recorded

        monkeypatch.setattr(sla, "factorize", recording)
        self.test_random_patterns_match_dense_solve(monkeypatch)
        assert any(restarted)

    def test_direct_sweeps_from_sweep_min_n(self, monkeypatch):
        # slice blocks up to BAND_MAX half-bandwidth are LAPACK's band LUs,
        # and SuperLU factors none; beyond it SuperLU factors them, here
        # every one, to the same solution
        mat, dense, slices, addends, split = random_two_field(3)
        b = np.random.default_rng(26).standard_normal(mat.shape[0])
        factored, splu = [], sla.spla.splu

        def counting(*args, **kwargs):
            factored.append(args[0].shape)
            return splu(*args, **kwargs)

        monkeypatch.setattr(sla.spla, "splu", counting)
        x, meta = sla.factorize(mat, planned(mat, slices, split), operator(addends, split))(b)
        assert meta.method == "schur" and factored == []
        monkeypatch.setattr(sla, "BAND_MAX", SLICE_FACTORS["splu"])
        y, meta = sla.factorize(mat, planned(mat, slices, split), operator(addends, split))(b)
        assert meta.method == "schur"
        assert len(factored) == np.unique(slices[:split]).size + np.unique(slices[split:]).size
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(y, x, rtol=1e-9, atol=1e-11)


@pytest.fixture
def sweep_calls(monkeypatch):
    """The field of every ``_Sweeps.solve`` call, in order."""
    calls, sweep = [], sla._Sweeps.solve

    def counting(self, f, b):
        calls.append(f)
        return sweep(self, f, b)

    monkeypatch.setattr(sla._Sweeps, "solve", counting)
    return calls


class TestGMRES:
    """GMRES on S right-preconditioned by the density sweep, each iteration
    keeping its density sweep z_j: one value sweep to start, then one density
    and one value sweep an iteration, and one value sweep that checks the
    residual and is the back-substitution."""

    def test_k_iterations_sweep_2k_plus_2_times(self, sweep_calls):
        two = 0
        for seed in range(200):
            mat, dense, slices, addends, split = random_two_field(seed)
            if not 0 < split < mat.shape[0]:
                continue
            b = np.random.default_rng(seed).standard_normal(mat.shape[0])
            solve = sla.factorize(mat, planned(mat, slices, split), operator(addends, split))
            sweep_calls.clear()
            x, meta = solve(b)
            assert sweep_calls == [0] + [1, 0] * meta.iterations + [0], seed
            two += 1
        assert two > 50

    @pytest.mark.parametrize("kernel", [False, True])
    def test_k_iterations_sweep_2k_plus_2_times_on_a_newton_system(self, sweep_calls, kernel):
        grid = mn.GridSpec(dim=1, nx=8, nt=8, horizon=1.0)
        if kernel:
            k = mn.gaussian_kernel_coupling(grid, 0.2)
            problem, exact = mn.make_manufactured_nonlocal(grid, mn.separable_quadratic(grid, 1.0),
                                                           mn.NonlocalCoupling(f=k, g=k))
        else:
            problem, exact = mn.make_manufactured(grid, mn.congestion(grid, 1.0, 1.0), mn.LocalCoupling("sigmoid"))
        system, _ = mn.newton_system(problem, mn.perturbed_state(exact, 1e-1))
        solve = sla.factorize(system.matrix, system.plan, system.um)
        sweep_calls.clear()
        x, meta = solve(system.rhs)
        assert meta.method == "schur" and meta.iterations > 1 and meta.residual_norm <= sla.DIRECT_TOL
        assert sweep_calls == [0] + [1, 0] * meta.iterations + [0]

    @pytest.mark.parametrize("n_m", [(0, 0, 0, 1), (0, 5, 5, 5)])
    def test_a_happy_breakdown_returns_the_exact_solution(self, sweep_calls, n_m):
        # one density unknown: S z_1 lies in the basis exactly; A_um = 0: the
        # preconditioned S is the identity.  Either way one iteration solves
        # the system, with no division by the breakdown's zero
        mat, dense, slices, _ = two_field((5, 5, 5, 5), n_m, seed=23, aligned=False, holes=0.3)
        split = 20
        if n_m[1]:
            dense[:split, split:] = 0.0
            i, j = np.nonzero(dense)
            mat = sla.SparseMatrix.from_triplets(*dense.shape, i, j, dense[i, j])
        b = np.random.default_rng(28).standard_normal(mat.shape[0])
        solve = sla.factorize(mat, planned(mat, slices, split))
        sweep_calls.clear()
        with np.errstate(all="raise"):
            x, meta = solve(b)
        assert meta.iterations == 1 and sweep_calls == [0, 1, 0, 0]
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-12, atol=1e-14)
