import inspect
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import mfg_newton as mn
from mfg_newton import coupling as cpl
from mfg_newton import diagnostics as diag
from mfg_newton import hamiltonian as ham
from mfg_newton import mfg_solver as solver
from mfg_newton import sparse_linalg as sla
from mfg_newton import torus_grid as tg
from mfg_newton.errors import (DomainError, MaxIterExceededError,
                               NoConvergenceError, SingularMatrixError)

@pytest.fixture
def factorizations(monkeypatch):
    """Record every call of ``sparse_linalg.factorize``, its arguments by name."""
    calls, factorize = [], sla.factorize

    def counting(*args, **kwargs):
        calls.append(inspect.signature(factorize).bind(*args, **kwargs).arguments)
        return factorize(*args, **kwargs)

    monkeypatch.setattr(sla, "factorize", counting)
    return calls


@pytest.fixture
def exhausted_gmres(monkeypatch):
    """A GMRES budget no Newton linear solve can meet, one iteration;
    returns a Newton config, whose two-field solves all run GMRES."""
    monkeypatch.setattr(sla, "GMRES_MAX_ITER", 1)
    monkeypatch.setattr(sla, "GMRES_RESTART", 1)
    return solver.NewtonConfig(residual_tol=1e-9)


def manufactured(nx=32, nt=16, alpha=1.0, coupling="sigmoid", dim=1):
    grid = tg.GridSpec(dim=dim, nx=nx, nt=nt, horizon=1.0)
    spec = ham.congestion(grid, 1.0, alpha=alpha)
    return diag.make_manufactured(grid, spec, cpl.LocalCoupling(coupling))


def manufactured_nonlocal(nx=32, nt=16, sigma=0.1, congestion=False, dim=1):
    grid = tg.GridSpec(dim=dim, nx=nx, nt=nt, horizon=1.0)
    spec = ham.congestion(grid, 1.0, alpha=1.0) if congestion else ham.separable_quadratic(grid, 1.0)
    nc = solver.NonlocalCoupling(
        f=cpl.gaussian_kernel_coupling(grid, sigma),
        g=cpl.gaussian_kernel_coupling(grid, sigma))
    return diag.make_manufactured_nonlocal(grid, spec, nc)


def whole(mat, um=None, split=0):
    """The CSR matrix ``mat`` plus the operator ``um`` (x's columns from
    ``split`` on to its rows before ``split``, or None), as a dense array."""
    out = mat.toarray()
    if um is not None:
        out[:split, split:] += np.column_stack([um(e) for e in np.eye(out.shape[1] - split)])
    return out


def kernel_blocks(p):
    """The kernel coupling's dense blocks of the full Jacobian, from its
    kernels' conv: -conv_f at u_k's rows and m_k's columns, -conv_g at
    u(T)'s; none for a local coupling."""
    grid, c = p.grid, p.coupling
    nt, n = grid.nt, grid.n_space
    if not c.derives_terminal:
        return []
    return [(k * n, (nt + 1 + k) * n, -(c.g if k == nt else c.f).conv) for k in range(nt + 1)]


def assert_csr_invariants(mat):
    """Strictly increasing columns in every row."""
    assert mat.indptr.shape == (mat.shape[0] + 1,)
    assert mat.has_canonical_format


def slices_of(plan):
    """Each unknown's time slice, read back from a sweep plan's slices."""
    slices, lo = np.empty(plan.shape[0], dtype=int), 0
    for order, *_, parts in plan.fields:
        for sid, part, *_ in parts:
            slices[lo + order[part]] = sid
        lo += order.size
    return slices


def slice_factors(plan):
    """The slice factors that ``plan`` picks: "band" for LAPACK's band LU,
    "splu" for SuperLU."""
    return {"splu" if csc else "band" for *_, parts in plan.fields for _, _, csc, _ in parts}


class OperatorAlgebra:
    """The Jacobian of one grid assembled block by block by scipy operator
    algebra (diagonal scalings and products of the stencils, ``sp.bmat``,
    CSR slicing): the reference that the solver's planned pattern and map
    must reproduce."""

    def __init__(self, grid):
        n, nt, eye1 = grid.n_space, grid.nt, sp.identity(grid.nx)
        shift = sp.eye(grid.nx, k=1) + sp.eye(grid.nx, k=1 - grid.nx)

        def on_axis(op, a):
            out = sp.identity(nt + 1)
            for b in range(grid.dim):
                out = sp.kron(out, op if b == a else eye1, format="csr")
            return out

        self.grid = grid
        self.diff = [on_axis((shift - shift.T) / (2.0 * grid.dx), a) for a in range(grid.dim)]
        lap = sum(on_axis((shift + shift.T - 2.0 * eye1) / grid.dx**2, a) for a in range(grid.dim))
        t = np.repeat(np.arange(nt + 1), n)
        self.last, self.first = t == nt, t == 0
        self.u_rows, self.m_rows = (t < nt).astype(float), (t > 0).astype(float)
        inv_dt, ones, eye = 1.0 / grid.dt, np.ones(nt), sp.identity(n, format="csr")
        back = sp.diags([np.append(inv_dt * ones, 1.0), -inv_dt * ones], [0, 1])
        fwd = sp.diags([np.append(1.0, inv_dt * ones), -inv_dt * ones], [0, -1])
        self.uu = sp.kron(back, eye, format="csr") - sp.diags(self.u_rows) @ lap
        self.mm = sp.kron(fwd, eye, format="csr") - sp.diags(self.m_rows) @ lap

    def value_block(self, b):
        hp = b.Hp.reshape(self.grid.dim, -1)
        return self.uu + sum(sp.diags(self.u_rows * hp[a]) @ d for a, d in enumerate(self.diff))

    def density_block(self, drift):
        return self.mm - sum(d @ sp.diags(self.m_rows * drift[a]) for a, d in enumerate(self.diff))

    def jacobian(self, p, state):
        grid, m_vals = self.grid, state.m.values
        b = solver._bundle(p, state.u.values, m_vals)
        m = m_vals.ravel()
        mm = self.density_block(b.Hp.reshape(grid.dim, -1) + m * b.Hpm.reshape(grid.dim, -1))
        flux = sp.diags(self.m_rows * m * b.Hpp.ravel())
        mu = -sum(d @ flux @ d for d in self.diff)
        diagonal, _ = p.coupling.blocks(m_vals)
        um = sp.diags(self.u_rows * (b.Hm.ravel() + diagonal))
        known = np.concatenate([self.last & (not p.coupling.derives_terminal), self.first])
        return sp.bmat([[self.value_block(b), um], [mu, mm]], format="csr"), kernel_blocks(p), known

    def eliminate(self, matrix, rhs, known, dense=()):
        """The masked system, the dense blocks' known columns times their
        values moved to the right-hand side and their free part in A_um
        applied as one dense product."""
        free = ~known
        reduced = matrix[free][:, free]
        reduced.eliminate_zeros()
        reduced.sort_indices()
        slices = (np.arange(known.size) // self.grid.n_space % (self.grid.nt + 1))[free]
        blocks = np.zeros(matrix.shape)
        for r, c, block in dense:
            blocks[r:r + block.shape[0], c:c + block.shape[1]] += block
        x = np.where(known, rhs, 0.0)
        rhs = rhs - matrix @ x - blocks @ x
        split = int(np.count_nonzero(free[:(self.grid.nt + 1) * self.grid.n_space]))
        blocks = blocks[free][:, free]
        assert not blocks[split:].any() and not blocks[:, :split].any()  # all in A_um
        um = (lambda xm: blocks[:split, split:] @ xm) if dense else None
        return sla.LinearSystem(reduced, rhs[free], sla.SweepPlan(reduced.indptr, reduced.indices, slices, split),
                                um)

    def newton_system(self, p, state):
        matrix, dense, known = self.jacobian(p, state)
        r_u, r_m = solver.residual(p, state)
        return self.eliminate(matrix, -np.concatenate([r_u.values.ravel(), r_m.values.ravel()]), known, dense)


def assert_same_system(system, ref):
    """The same CSR pattern once the system's exact zeros are dropped from a
    copy (the reference stores none), the same slices and split, and the same
    values, operator on A_um and right-hand side to 1e-14 relative."""
    mat = system.matrix.copy()
    mat.eliminate_zeros()
    assert np.array_equal(mat.indptr, ref.matrix.indptr)
    assert np.array_equal(mat.indices, ref.matrix.indices)
    np.testing.assert_allclose(mat.data, ref.matrix.data, rtol=1e-14, atol=0)
    assert np.linalg.norm(system.rhs - ref.rhs) <= 1e-14 * np.linalg.norm(ref.rhs)
    assert np.array_equal(slices_of(system.plan), slices_of(ref.plan)) and system.plan.split == ref.plan.split
    assert (system.um is None) == (ref.um is None)
    if ref.um is not None:
        split, empty = ref.plan.split, sp.csr_matrix(ref.matrix.shape)
        np.testing.assert_allclose(whole(empty, system.um, split), whole(empty, ref.um, split), rtol=1e-14, atol=0)


def uniform_problem(coupling, nx=16, nt=8, const_u=0.3):
    """u constant, m identically one; a stationary state when coupling is zero."""
    grid = tg.GridSpec(dim=1, nx=nx, nt=nt, horizon=1.0)
    spec = ham.congestion(grid, 1.0, alpha=1.0)
    p = solver.ProblemSpec(
        grid=grid, hamiltonian=spec, coupling=coupling,
        m0=np.ones(nx), uT=np.full(nx, const_u))
    state = solver.make_state(
        grid, np.full((nt + 1, nx), const_u), np.ones((nt + 1, nx)))
    return p, state


class TestProblemSpec:
    GRID = tg.GridSpec(dim=1, nx=16, nt=4, horizon=1.0)

    def test_density_must_be_positive(self):
        spec = ham.congestion(self.GRID, 1.0)
        m0 = np.ones(16)
        m0[3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            solver.ProblemSpec(self.GRID, spec, cpl.LocalCoupling("zero"),
                               m0=m0, uT=np.zeros(16))

    def test_density_mass_must_be_one(self):
        spec = ham.congestion(self.GRID, 1.0)
        with pytest.raises(ValueError, match="mass"):
            solver.ProblemSpec(self.GRID, spec, cpl.LocalCoupling("zero"),
                               m0=np.full(16, 2.0), uT=np.zeros(16))

    def test_local_requires_terminal_value(self):
        spec = ham.congestion(self.GRID, 1.0)
        with pytest.raises(ValueError, match="terminal"):
            solver.ProblemSpec(self.GRID, spec, cpl.LocalCoupling("zero"),
                               m0=np.ones(16))

    def test_nonlocal_rejects_terminal_value(self):
        spec = ham.separable_quadratic(self.GRID, 1.0)
        nc = solver.NonlocalCoupling(
            f=cpl.gaussian_kernel_coupling(self.GRID, 0.1),
            g=cpl.gaussian_kernel_coupling(self.GRID, 0.1))
        with pytest.raises(ValueError, match="derive"):
            solver.ProblemSpec(self.GRID, spec, nc, m0=np.ones(16), uT=np.zeros(16))

    @pytest.mark.parametrize("part", ["hamiltonian", "coupling", "s_u", "s_m"])
    def test_part_on_another_grid_rejected(self, part):
        other = tg.GridSpec(dim=1, nx=8, nt=4, horizon=1.0)
        kernel = cpl.gaussian_kernel_coupling(other, 0.1)
        parts = {"hamiltonian": ham.congestion(self.GRID, 1.0), "coupling": cpl.LocalCoupling("zero")}
        parts[part] = {"hamiltonian": ham.congestion(other, 1.0),
                       "coupling": cpl.NonlocalCoupling(f=kernel, g=kernel),
                       "s_u": tg.Field(other, np.zeros((5, 8))),
                       "s_m": tg.Field(other, np.zeros((5, 8)))}[part]
        with pytest.raises(ValueError, match=f"{part} grid does not match problem grid"):
            solver.ProblemSpec(self.GRID, m0=np.ones(16), uT=np.zeros(16), **parts)

    def test_state_fields_on_two_grids_rejected(self):
        other = tg.GridSpec(dim=1, nx=8, nt=4, horizon=1.0)
        with pytest.raises(ValueError, match="same grid"):
            solver.SolverState(tg.Field(self.GRID, np.ones((5, 16))), tg.Field(other, np.ones((5, 8))))

    @pytest.mark.parametrize("field, value, match", [
        ("residual_tol", 0.0, "residual_tol must be positive"),
        ("damping", 0.0, "damping must lie in"),
        ("damping", 1.5, "damping must lie in"),
        ("max_iter", 0, "max_iter must be >= 1"),
    ])
    def test_newton_config_bounds(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            solver.NewtonConfig(**{field: value})


class TestResidual:
    def test_uniform_state_zero_coupling_is_root(self):
        p, state = uniform_problem(cpl.LocalCoupling("zero"))
        r_u, r_m = solver.residual(p, state)
        assert tg.sup_norm(r_u.values) == 0.0
        assert tg.sup_norm(r_m.values) == 0.0

    def test_uniform_state_sigmoid_coupling_shifts_value_rows(self):
        p, state = uniform_problem(cpl.LocalCoupling("sigmoid"))
        r_u, r_m = solver.residual(p, state)
        expected = -1.0 / (1.0 + np.exp(-1.0))
        np.testing.assert_allclose(r_u.values[:-1], expected, rtol=1e-14)
        assert np.all(r_u.values[-1] == 0.0)  # terminal row
        assert tg.sup_norm(r_m.values) == 0.0

    def test_manufactured_residual_is_zero(self):
        p, exact = manufactured()
        r_u, r_m = solver.residual(p, exact)
        assert tg.sup_norm(r_u.values) <= 1e-13
        assert tg.sup_norm(r_m.values) <= 1e-13

    def test_domain_guard_propagates(self):
        p, state = uniform_problem(cpl.LocalCoupling("zero"))
        bad_m = state.m.values.copy()
        bad_m[2] = -0.75
        bad = solver.make_state(p.grid, state.u.values, bad_m)
        with pytest.raises(DomainError):
            solver.residual(p, bad)


class TestNewtonStep:
    def test_fixed_point_at_root(self):
        p, exact = manufactured()
        cfg = solver.NewtonConfig(residual_tol=1e-9)
        nxt, meta = solver.newton_step(p, exact, cfg)
        err_u, err_m = diag.error_norms(
            nxt.u.values, nxt.m.values, exact.u.values, exact.m.values, p.grid)
        assert err_u + err_m <= 1e-10
        assert meta.method == "schur"

    def test_one_step_quadratic_contraction(self):
        p, exact = manufactured(nx=64, nt=32)
        cfg = solver.NewtonConfig(residual_tol=1e-12)
        ks = []
        for eps in (1e-2, 1e-3):
            init = diag.perturbed_state(exact, eps)
            nxt, _ = solver.newton_step(p, init, cfg)
            err_u, err_m = diag.error_norms(
                nxt.u.values, nxt.m.values, exact.u.values, exact.m.values, p.grid)
            ks.append((err_u + err_m) / eps**2)
        assert max(ks) / min(ks) <= 3.0

    def test_mass_conserved_per_slice(self):
        p, exact = manufactured()
        init = diag.perturbed_state(exact, 5e-2)
        nxt, _ = solver.newton_step(p, init, solver.NewtonConfig(residual_tol=1e-9))
        masses = tg.slice_masses(nxt.m.values, p.grid)
        np.testing.assert_allclose(masses, 1.0, atol=1e-10)

    @staticmethod
    def _violating_step(make, amp):
        """One Newton step from the root shifted by ``amp`` in u (violating
        u(T) = uT in the local variant) and by 0.4 * amp in m(0)."""
        p, exact = make()
        grid = p.grid
        u0 = exact.u.values + amp
        m0 = exact.m.values.copy()
        m0[0] = m0[0] + 0.4 * amp * np.cos(2 * np.pi * grid.x_nodes()[0])
        start = solver.make_state(grid, u0, m0)
        nxt, _ = solver.newton_step(p, start, solver.NewtonConfig(residual_tol=1e-9))
        r_u, r_m = solver.residual(p, nxt)
        return p, nxt, max(tg.sup_norm(r_u.values), tg.sup_norm(r_m.values))

    @pytest.mark.parametrize("amp", [0.05, 0.005])
    @pytest.mark.parametrize("make", [manufactured, manufactured_nonlocal],
                             ids=["local", "kernel"])
    def test_boundary_rows_enforced_from_violating_start(self, make, amp):
        p, nxt, res = self._violating_step(make, amp)
        assert np.all(nxt.m.values[0] == p.m0)
        if p.coupling.derives_terminal:
            expected = p.coupling.g.values(nxt.m.values[-1])
            np.testing.assert_allclose(nxt.u.values[-1], expected, rtol=0, atol=1e-11)
            assert res <= 1e-10
        else:
            assert np.all(nxt.u.values[-1] == p.uT)
            assert res <= 0.1 * amp**2

    def test_boundary_correction_is_quadratic(self):
        # the known boundary update enters the right-hand side exactly, so a
        # step from a boundary-violating start still contracts quadratically
        res = [self._violating_step(manufactured, amp)[2] for amp in (0.05, 0.005)]
        assert 50 <= res[0] / res[1] <= 200

    def test_nonlocal_terminal_row_satisfied_exactly(self):
        p, exact = manufactured_nonlocal()
        init = diag.perturbed_state(exact, 1e-2)
        nxt, _ = solver.newton_step(p, init, solver.NewtonConfig(residual_tol=1e-9))
        # u^1(T) = g[m^0(T)] + (dg/dm)(m^1(T) - m^0(T)), with the linear kernel
        # coupling this is g evaluated on the new terminal density
        expected = p.coupling.g.values(nxt.m.values[-1])
        np.testing.assert_allclose(nxt.u.values[-1], expected, atol=1e-11)


class TestJacobianAgainstBruteForce:
    """Entrywise comparison of the assembled operator, its CSR plus its
    coupling's operator, with a finite-difference Jacobian of the residual
    map on tiny grids, over the full unknown layout with both boundary rows
    and columns."""

    def _check(self, p, state):
        from mfg_newton.mfg_solver import _jacobian

        grid = p.grid
        u, m = state.u.values, state.m.values
        jac, rows = _jacobian(p, state)
        um = None if rows is None else lambda dm: rows(dm.reshape(grid.nt + 1, -1)).ravel()
        dense = whole(jac, um, u.size)

        def residual_vec(x):
            du, dm = x.reshape((2, grid.nt + 1) + grid.spatial_shape)
            s = solver.make_state(grid, u + du, m + dm)
            r_u, r_m = solver.residual(p, s)
            return np.concatenate([r_u.values.ravel(), r_m.values.ravel()])

        n = 2 * u.size
        assert dense.shape == (n, n)
        h = 1e-7
        fd = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd[:, j] = (residual_vec(e) - residual_vec(-e)) / (2 * h)
        scale = np.abs(dense).max()
        assert np.abs(dense - fd).max() <= 1e-5 * scale
        # the masked matrix handed to the sparse solver keeps the CSR invariants
        assert_csr_invariants(solver.newton_system(p, state)[0].matrix)

    def test_local_1d(self):
        p, exact = manufactured(nx=8, nt=3)
        self._check(p, diag.perturbed_state(exact, 5e-2))

    def test_local_2d(self):
        grid = tg.GridSpec(dim=2, nx=4, nt=2, horizon=1.0)
        spec = ham.congestion(grid, 1.0, alpha=1.5)
        p, exact = diag.make_manufactured(grid, spec, cpl.LocalCoupling("sigmoid"))
        self._check(p, diag.perturbed_state(exact, 5e-2))

    def test_nonlocal_1d(self):
        p, exact = manufactured_nonlocal(nx=8, nt=3, sigma=0.15)
        self._check(p, diag.perturbed_state(exact, 5e-2))

    def test_congestion_with_kernel_coupling_1d(self):
        grid = tg.GridSpec(dim=1, nx=8, nt=3, horizon=1.0)
        nc = solver.NonlocalCoupling(
            f=cpl.gaussian_kernel_coupling(grid, 0.15),
            g=cpl.gaussian_kernel_coupling(grid, 0.15))
        p, exact = diag.make_manufactured_nonlocal(
            grid, ham.congestion(grid, 1.0, alpha=1.0), nc)
        self._check(p, diag.perturbed_state(exact, 5e-2))


class TestLinearizedConsistency:
    @pytest.mark.parametrize("make", [manufactured, manufactured_nonlocal])
    def test_directional_derivative_ratio(self, make):
        p, exact = make()
        grid = p.grid
        state = diag.perturbed_state(exact, 5e-2)
        rng = np.random.default_rng(17)
        r0_u, r0_m = solver.residual(p, state)
        for _ in range(3):
            du = rng.standard_normal(state.u.values.shape)
            dm = rng.standard_normal(state.m.values.shape)
            if not p.coupling.derives_terminal:
                du[-1] = 0.0
            dm[0] = 0.0
            du /= np.abs(du).max()
            dm /= np.abs(dm).max()
            ju, jm = solver.linearized_apply(p, state, du, dm)
            rems = []
            for h in (1e-3, 1e-4):
                s1 = solver.make_state(grid, state.u.values + h * du,
                                       state.m.values + h * dm)
                r1_u, r1_m = solver.residual(p, s1)
                rem_u = (r1_u.values - r0_u.values) - h * ju
                rem_m = (r1_m.values - r0_m.values)[1:] - h * jm[1:]
                if not p.coupling.derives_terminal:
                    rem_u = rem_u[:-1]
                rems.append(max(np.abs(rem_u).max(), np.abs(rem_m).max()))
            assert 50 <= rems[0] / rems[1] <= 200


class TestSolveNewton:
    def test_reference_start_converges_immediately(self):
        p, exact = manufactured()
        final, history = solver.solve_newton(
            p, exact, solver.NewtonConfig(residual_tol=1e-9), reference=exact)
        assert len(history) == 1
        assert history[0].err_sum <= 1e-13

    def test_perturbed_start_quadratic_decay(self):
        p, exact = manufactured(nx=64, nt=64)
        init = diag.perturbed_state(exact, 1e-2)
        final, history = solver.solve_newton(
            p, init, solver.NewtonConfig(residual_tol=1e-10, max_iter=20),
            reference=exact)
        errs = [r.err_sum for r in history]
        assert all(errs[i + 1] < 0.1 * errs[i] for i in range(len(errs) - 1))
        fit = diag.fit_rate(errs, floor=1e-10)
        assert fit.order >= 1.7
        assert fit.points_used >= 3
        r_u, r_m = solver.residual(p, final)
        assert max(tg.sup_norm(r_u.values), tg.sup_norm(r_m.values)) <= 1e-10

    def test_masses_stay_unit_along_iteration(self):
        p, exact = manufactured()
        init = diag.perturbed_state(exact, 1e-2)
        _, history = solver.solve_newton(
            p, init, solver.NewtonConfig(residual_tol=1e-10), reference=exact)
        for rec in history:
            assert 1 - 1e-9 <= rec.mass_min <= rec.mass_max <= 1 + 1e-9

    def test_budget_exhaustion_keeps_history(self):
        p, exact = manufactured()
        init = diag.perturbed_state(exact, 1e-2)
        with pytest.raises(MaxIterExceededError) as info:
            solver.solve_newton(p, init, solver.NewtonConfig(
                residual_tol=1e-13, max_iter=1))
        assert len(info.value.history) == 2
        assert info.value.final is not None

    def test_stagnation_stops_before_the_budget(self, factorizations):
        # round-off pins the residual above a tolerance of 5e-14
        p, exact = manufactured(nx=16, nt=8)
        cfg = solver.NewtonConfig(residual_tol=5e-14)
        with pytest.raises(MaxIterExceededError, match="no new best residual in the last 3") as info:
            solver.solve_newton(p, diag.perturbed_state(exact, 1e-2), cfg)
        res = [max(r.res_u_sup, r.res_m_sup) for r in info.value.history]
        assert len(factorizations) == info.value.iterate == len(res) - 1 < cfg.max_iter
        assert min(res[-solver.STALL_STEPS:]) >= min(res[:-solver.STALL_STEPS]) > cfg.residual_tol
        assert info.value.final is not None

    @pytest.mark.parametrize("solve", [solver.solve_newton, solver.solve_fixed_point])
    def test_budget_error_carries_the_budget_as_iterate(self, solve):
        p, exact = manufactured(nx=16, nt=8)
        init = diag.perturbed_state(exact, 1e-2)
        with pytest.raises(MaxIterExceededError, match="did not reach") as info:
            solve(p, init, solver.NewtonConfig(residual_tol=1e-13, max_iter=2))
        assert info.value.iterate == 2
        assert len(info.value.history) == 3

    @pytest.mark.parametrize("cls, base", [
        (DomainError, ValueError), (SingularMatrixError, RuntimeError),
        (NoConvergenceError, RuntimeError), (MaxIterExceededError, RuntimeError)])
    def test_every_solver_error_is_a_solver_error(self, cls, base):
        assert issubclass(cls, mn.SolverError) and issubclass(cls, base)
        exc = cls("failed")
        assert exc.iterate is None and exc.final is None and exc.history == []

    def test_domain_error_reports_iterate(self, monkeypatch):
        # raise the floor so the exact state is evaluable but the perturbed
        # start is not: failure must name the iterate, never pass silently
        monkeypatch.setattr(ham, "M_FLOOR", 0.65)
        grid = tg.GridSpec(dim=1, nx=16, nt=8, horizon=1.0)
        spec = ham.congestion(grid, 1.0, alpha=1.0)
        p, exact = diag.make_manufactured(grid, spec, cpl.LocalCoupling("sigmoid"))
        init = diag.perturbed_state(exact, 0.5)  # density dips to 0.5 at t = T
        with pytest.raises(DomainError, match=r"\(iterate 0, initial state\)$") as info:
            solver.solve_newton(p, init, solver.NewtonConfig(residual_tol=1e-9))
        assert info.value.iterate == 0

    def test_domain_error_names_the_iterate_that_left_the_domain(self, monkeypatch):
        # the first step from a steep start drops the density below the floor
        monkeypatch.setattr(ham, "M_FLOOR", 0.5)
        grid = tg.GridSpec(dim=1, nx=16, nt=8, horizon=1.0)
        spec = ham.congestion(grid, 1.0, alpha=1.0)
        p, exact = diag.make_manufactured(grid, spec, cpl.LocalCoupling("sigmoid"))
        u = exact.u.values + 10.0 * np.sin(2 * np.pi * grid.x_nodes()[0])
        start = solver.make_state(grid, u, np.ones_like(u))
        first, _ = solver.newton_step(p, start, solver.NewtonConfig())
        assert first.m.values.min() < 0.5
        with pytest.raises(DomainError, match=r"\(Newton iterate 1\)$") as info:
            solver.solve_newton(p, start, solver.NewtonConfig(residual_tol=1e-9))
        assert info.value.iterate == 1
        # it carries the run it stopped: the start, the last state recorded
        assert info.value.final is start
        assert [rec.iter for rec in info.value.history] == [0]

    def test_linear_solve_failure_reports_iterate(self, exhausted_gmres):
        p, exact = manufactured(nx=16, nt=8)
        init = diag.perturbed_state(exact, 1e-2)
        with pytest.raises(NoConvergenceError, match=r"\(Newton iterate 1\)$") as info:
            solver.solve_newton(p, init, exhausted_gmres)
        assert info.value.iterate == 1

    def test_far_start_never_diverges_silently(self):
        # cold start (zero value function, uniform density) on a strongly
        # congested problem: either converges or raises a reported error
        p, exact = manufactured(alpha=2.0)
        grid = p.grid
        cold = solver.make_state(
            grid, np.zeros((grid.nt + 1, grid.nx)), np.ones((grid.nt + 1, grid.nx)))
        cfg = solver.NewtonConfig(residual_tol=1e-9, max_iter=25)
        try:
            final, history = solver.solve_newton(p, cold, cfg)
        except (MaxIterExceededError, DomainError, SingularMatrixError) as exc:
            assert str(exc)  # failure is reported, not silent
        else:
            r_u, r_m = solver.residual(p, final)
            assert max(tg.sup_norm(r_u.values), tg.sup_norm(r_m.values)) <= 1e-9

    def test_nonlocal_solve(self):
        p, exact = manufactured_nonlocal()
        init = diag.perturbed_state(exact, 1e-2)
        final, history = solver.solve_newton(
            p, init, solver.NewtonConfig(residual_tol=1e-10), reference=exact)
        errs = [r.err_sum for r in history]
        assert errs[-1] <= 1e-10
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))

    def test_2d_solve(self):
        p, exact = manufactured(nx=8, nt=6, dim=2)
        init = diag.perturbed_state(exact, 1e-2)
        final, history = solver.solve_newton(
            p, init, solver.NewtonConfig(residual_tol=1e-10), reference=exact)
        assert history[-1].err_sum <= 1e-10

    def test_2d_nonlocal_solve(self):
        grid = tg.GridSpec(dim=2, nx=8, nt=4, horizon=1.0)
        spec = ham.separable_quadratic(grid, 1.0)
        nc = solver.NonlocalCoupling(
            f=cpl.gaussian_kernel_coupling(grid, 0.15),
            g=cpl.gaussian_kernel_coupling(grid, 0.15))
        p, exact = diag.make_manufactured_nonlocal(grid, spec, nc)
        init = diag.perturbed_state(exact, 1e-2)
        final, history = solver.solve_newton(
            p, init, solver.NewtonConfig(residual_tol=1e-9), reference=exact)
        assert history[-1].err_sum <= 1e-9

    def test_kernel_start_near_the_residual_contract_converges(self):
        # A start from Fourier modes k = 1..3 whose second Newton solve first
        # lands at a relative residual of ~1.1e-12, just above DIRECT_TOL;
        # one refinement step brings it back under.
        p, exact = manufactured_nonlocal(nx=64, nt=64)
        grid = p.grid
        x = grid.x_nodes()[0]
        s = (grid.t_nodes() / grid.horizon)[:, None]
        rng = np.random.default_rng(10)
        eps = rng.uniform(5e-3, 2e-2)

        def direction():
            out = sum(rng.standard_normal() * np.cos(2 * np.pi * k * x)
                      + rng.standard_normal() * np.sin(2 * np.pi * k * x)
                      for k in (1, 2, 3))
            return out / np.abs(out).max()

        u = exact.u.values + eps * (1.0 - s) * direction()
        m = exact.m.values + eps * s * direction()
        final, history = solver.solve_newton(
            p, solver.make_state(grid, u, m),
            solver.NewtonConfig(residual_tol=1e-10))
        assert len(history) - 1 == 3
        r_u, r_m = solver.residual(p, final)
        assert max(tg.sup_norm(r_u.values), tg.sup_norm(r_m.values)) <= 1e-10

    def test_unknown_linear_method_rejected(self):
        # one path solves every system: the config selects no linear method
        with pytest.raises(TypeError, match="linear_method"):
            solver.NewtonConfig(linear_method="direct")

    @staticmethod
    def solve_iterative(p, exact):
        """Newton, GMRES in every step, from ``exact`` perturbed by 1e-2: the
        history, and the linear-solve metadata of the same steps taken by
        :func:`solver.newton_step`."""
        start = diag.perturbed_state(exact, 1e-2)
        cfg = solver.NewtonConfig(residual_tol=1e-9)
        _, history = solver.solve_newton(p, start, cfg, reference=exact)
        metas = []
        for _ in history[1:]:
            start, meta = solver.newton_step(p, start, cfg)
            metas.append(meta)
        return history, metas

    def test_iterative_linear_method(self):
        # every GMRES step meets the direct path's bound with the default budget
        history, metas = self.solve_iterative(*manufactured(nx=16, nt=8))
        assert len(history) - 1 == 3
        assert history[-1].err_sum <= 1e-8
        assert all(m.method == "schur" and m.residual_norm <= sla.DIRECT_TOL for m in metas)

    def test_iterative_linear_method_kernel(self):
        # GMRES must see the kernel coupling's dense blocks: without them it
        # stalls at residual 1e-1 and the budget runs out
        history, metas = self.solve_iterative(*manufactured_nonlocal(nx=16, nt=8))
        assert len(history) - 1 == 3
        assert history[-1].err_sum <= 1e-8
        assert all(m.method == "schur" and m.residual_norm <= sla.DIRECT_TOL for m in metas)


class TestNewtonSystem:
    def test_rhs_vanishes_at_root(self):
        p, exact = manufactured(nx=16, nt=8)
        system, known = solver.newton_system(p, exact)
        assert np.abs(system.rhs).max() <= 1e-13
        assert system.matrix.shape[0] == np.count_nonzero(~known)

    def test_assembled_matrix_satisfies_csr_invariants(self):
        p, exact = manufactured(nx=16, nt=8)
        system, _ = solver.newton_system(p, diag.perturbed_state(exact, 1e-2))
        assert_csr_invariants(system.matrix)


def zero_um_state(p, state, k, i):
    """``state`` with u(k, i + 1) = u(k, i - 1): Du = 0 at node i of slice
    k, where a congestion Hamiltonian's H_m, and with a kernel coupling that
    node's um entry, comes out exactly 0."""
    u = state.u.values.copy()
    u[k, i + 1] = u[k, i - 1]
    return solver.make_state(p.grid, u, state.m.values)


def assembly_case(case):
    """A problem and a perturbed state: 1D or 2D, local sigmoid coupling or
    a Gaussian kernel (with the separable Hamiltonian, or congestion)."""
    dim, kind = case.split("-", 1)
    grid = tg.GridSpec(dim=int(dim[0]), nx=16 if dim == "1d" else 6, nt=8 if dim == "1d" else 4, horizon=1.0)
    if kind == "local":
        p, exact = diag.make_manufactured(grid, ham.congestion(grid, 1.0, alpha=1.0), cpl.LocalCoupling("sigmoid"))
    else:
        kernel = cpl.gaussian_kernel_coupling(grid, 0.15)
        spec = ham.congestion(grid, 1.0, alpha=1.0) if kind == "kernel-congestion" else ham.separable_quadratic(grid, 1.0)
        p, exact = diag.make_manufactured_nonlocal(grid, spec, cpl.NonlocalCoupling(f=kernel, g=kernel))
    return p, diag.perturbed_state(exact, 1e-2)


class TestAssemblyMap:
    """Every Jacobian is assembled into the pattern its grid plans once:
    one map per grid and one index per mask of known unknowns, the same
    systems as the operator algebra assembles."""

    CASES = ["1d-local", "1d-kernel", "1d-kernel-congestion", "2d-local", "2d-kernel"]

    @pytest.fixture
    def solved(self, monkeypatch):
        """Every system handed to ``sparse_linalg.solve``."""
        systems, real = [], sla.solve

        def record(system):
            systems.append(system)
            return real(system)

        monkeypatch.setattr(sla, "solve", record)
        return systems

    def test_newton_builds_one_map_and_one_mask(self, map_builds):
        p, exact = manufactured(nx=16, nt=16)
        _, history = solver.solve_newton(p, diag.perturbed_state(exact, 1e-2),
                                         solver.NewtonConfig(residual_tol=1e-10))
        assert len(history) - 1 >= 3
        assert [st.grid for st in map_builds["maps"]] == [p.grid]
        assert len(map_builds["masks"]) == 1

    def test_fixed_point_builds_one_map_and_two_masks(self, map_builds):
        p, exact = manufactured(nx=16, nt=16)
        _, history = solver.solve_fixed_point(
            p, diag.perturbed_state(exact, 1e-2),
            solver.NewtonConfig(residual_tol=1e-9, max_iter=200, damping=0.5))
        assert len(history) - 1 > 2
        assert [st.grid for st in map_builds["maps"]] == [p.grid]
        value, density = (mask.plan for mask in map_builds["masks"])
        assert value.split == value.shape[0] and set(slices_of(value)) == set(range(p.grid.nt))
        assert density.split == density.shape[0] and set(slices_of(density)) == set(range(1, p.grid.nt + 1))

    @pytest.mark.parametrize("case", CASES)
    def test_newton_matches_operator_algebra(self, case):
        p, state = assembly_case(case)
        system, _ = solver.newton_system(p, state)
        assert_same_system(system, OperatorAlgebra(p.grid).newton_system(p, state))
        assert_csr_invariants(system.matrix)

    @pytest.mark.parametrize("case", CASES)
    def test_probe_matches_operator_algebra(self, case, factorizations):
        p, state = assembly_case(case)
        solver.linearized_solver(p, state)
        ref = OperatorAlgebra(p.grid)
        matrix, dense, known = ref.jacobian(p, state)
        expected = ref.eliminate(matrix, np.zeros(known.size), known, dense)
        (call,) = factorizations
        assert_same_system(sla.LinearSystem(call["a"], np.zeros(call["a"].shape[0]), call["plan"],
                                            call["um"]), expected)

    @pytest.mark.parametrize("case", CASES)
    def test_picard_blocks_match_operator_algebra(self, case, solved):
        # the first inner value-function system, at u_init with u(T) set,
        # and the forward system with a frozen drift
        p, state = assembly_case(case)
        grid, ref = p.grid, OperatorAlgebra(p.grid)
        m, cfg = state.m.values, solver.NewtonConfig(residual_tol=1e-9)
        fvals, u_T = solver._coupling_values(p, m)
        solver._solve_hjb_frozen_density(p, m, state.u.values, cfg)
        u = state.u.values.copy()
        u[-1] = u_T
        b = solver._bundle(p, u, m)
        r_u = solver._value_residual(p, u, b, fvals, u_T)
        assert_same_system(solved[0], ref.eliminate(ref.value_block(b), -r_u.ravel(), ref.last))
        hp = solver._bundle(p, state.u.values, m).Hp
        solved.clear()
        solver._solve_fp_frozen_drift(p, hp)
        rhs = np.array(solver._source(p.s_m, m.shape))
        rhs[0] = p.m0
        (system,) = solved
        assert_same_system(system, ref.eliminate(ref.density_block(hp.reshape(grid.dim, -1)), rhs.ravel(), ref.first))

    def test_zero_um_entry_is_stored_as_zero(self):
        # congestion with a kernel: H_m = 0 where Du = 0, so that node's um
        # entry comes out exactly 0 and is stored as 0 in its mask's pattern,
        # the rest of the row as the reference has it
        p, state = assembly_case("1d-kernel-congestion")
        grid, (k, i) = p.grid, (3, 5)
        before, _ = solver.newton_system(p, state)
        state = zero_um_state(p, state, k, i)
        system, known = solver.newton_system(p, state)
        assert_csr_invariants(system.matrix)
        assert_same_system(system, OperatorAlgebra(grid).newton_system(p, state))
        index = np.cumsum(~known) - 1
        row, col = index[k * grid.nx + i], index[(grid.nt + 1 + k) * grid.nx + i]
        a = system.matrix
        assert np.array_equal(a.indptr, before.matrix.indptr) and np.array_equal(a.indices, before.matrix.indices)
        cols, vals = a.indices[a.indptr[row]:a.indptr[row + 1]], a.data[a.indptr[row]:a.indptr[row + 1]]
        assert vals[cols == col].tolist() == [0.0] and np.count_nonzero(vals) == vals.size - 1
        assert col + 1 in a.indices[a.indptr[row + 1]:a.indptr[row + 2]]  # the next node's
        x = sla.solve(system)
        assert np.all(np.isfinite(x)) and system.meta.residual_norm <= sla.DIRECT_TOL

    def test_separable_kernel_stores_no_um_diagonal(self, map_builds):
        # H_m = 0 and no -f'(m): the um field is 0 everywhere, so the mask's
        # index takes none of its entries
        p, state = assembly_case("1d-kernel")
        system, _ = solver.newton_system(p, state)
        (mask,) = map_builds["masks"]
        assert system.matrix[:system.plan.split, system.plan.split:].nnz == 0
        assert mask.take[0].size == system.matrix.nnz
        assert_csr_invariants(system.matrix)


class TestDirectVsIterativeOnNewtonSystem:
    def test_agreement(self, set_band_max):
        # the slice blocks as LAPACK's band LUs, then with the half-bandwidth
        # constant at -1 as SuperLU's, on a plan built after that
        p, exact = manufactured(nx=32, nt=32)
        init = diag.perturbed_state(exact, 1e-2)
        system, _ = solver.newton_system(p, init)
        xd = sla.solve(system)
        set_band_max(-1)
        forced, _ = solver.newton_system(p, init)
        xi = sla.solve(forced)
        assert slice_factors(system.plan) == {"band"} and slice_factors(forced.plan) == {"splu"}
        assert np.linalg.norm(xd - xi) / np.linalg.norm(xd) <= 1e-8


class TestBlockLUAgainstSuperLU:
    """Every system the solver hands to the sweeps in time, solved again by
    one SuperLU factor of the whole matrix, which serves here as an oracle
    only."""

    @pytest.fixture
    def handed(self, monkeypatch):
        solved = []
        real = sla.solve

        def record(system):
            x = real(system)
            solved.append((system, x))
            return x

        monkeypatch.setattr(sla, "solve", record)
        return solved

    @staticmethod
    def assert_matches_splu(solved):
        assert solved
        for system, x in solved:
            assert system.plan is not None
            expected = spla.splu(sp.csc_matrix(whole(system.matrix, system.um, system.plan.split))).solve(system.rhs)
            assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("make", [
        manufactured, manufactured_nonlocal, lambda: manufactured(nx=8, nt=6, dim=2),
        pytest.param(lambda: manufactured_nonlocal(congestion=True), id="kernel-congestion")])
    def test_newton_matrix(self, make, handed):
        p, exact = make()
        solver.newton_step(p, diag.perturbed_state(exact, 1e-2), solver.NewtonConfig())
        self.assert_matches_splu(handed)

    def test_picard_value_and_density_blocks(self, handed):
        p, exact = manufactured()
        with pytest.raises(MaxIterExceededError):
            solver.solve_fixed_point(p, diag.perturbed_state(exact, 1e-2),
                                     solver.NewtonConfig(max_iter=1))
        # the value block lives on slices 0..nt-1, the density block on 1..nt
        assert {slices_of(system.plan).min() for system, _ in handed} == {0, 1}
        self.assert_matches_splu(handed)


class TestPlanReuse:
    """The sweeps are planned once per mask of known unknowns, with its
    index: every Newton step and the linearized probe on a grid reuse one
    plan, Picard needs one for its value block and one for its density
    block, and the plans last as long as their grid's stencils."""

    def test_newton_builds_one_plan(self, plan_builds):
        p, exact = manufactured(nx=16, nt=16)
        start, cfg = diag.perturbed_state(exact, 1e-2), solver.NewtonConfig(residual_tol=1e-10)
        _, history = solver.solve_newton(p, start, cfg)
        assert len(history) - 1 >= 3
        solver.linearized_solver(p, start)
        assert len(plan_builds) == 1

    def test_second_newton_solve_builds_none(self, plan_builds):
        p, exact = manufactured(nx=16, nt=16)
        cfg = solver.NewtonConfig(residual_tol=1e-10)
        solver.solve_newton(p, diag.perturbed_state(exact, 1e-2), cfg)
        _, history = solver.solve_newton(p, diag.perturbed_state(exact, 2e-2), cfg)
        assert len(history) - 1 >= 3 and len(plan_builds) == 1

    def test_plan_lives_with_its_grid(self):
        # the mask keeps its plan past every system, until the grid's
        # stencils leave the cache
        solver._stencils.cache_clear()
        p, exact = manufactured(nx=16, nt=8)
        system, _ = solver.newton_system(p, diag.perturbed_state(exact, 1e-2))
        sla.solve(system)
        plan, system = weakref.ref(system.plan), None
        assert plan() is solver.newton_system(p, exact)[0].plan
        solver._stencils.cache_clear()
        assert plan() is None

    def test_fixed_point_builds_at_most_two(self, plan_builds):
        p, exact = manufactured(nx=16, nt=16)
        for _ in range(2):
            _, history = solver.solve_fixed_point(
                p, diag.perturbed_state(exact, 1e-2),
                solver.NewtonConfig(residual_tol=1e-9, max_iter=200, damping=0.5))
            assert len(history) - 1 > 2  # each iteration solves both blocks
            assert len(plan_builds) == 2  # the value block's and the density block's, both passes

    def test_exact_zero_um_entry_keeps_the_newton_plan(self, plan_builds):
        # a stored 0 is still an entry of the pattern: the state whose um
        # entry comes out exactly 0 has the Newton system's pattern and plan
        p, state = assembly_case("1d-kernel-congestion")
        system, _ = solver.newton_system(p, state)
        zero, _ = solver.newton_system(p, zero_um_state(p, state, 3, 5))
        assert np.count_nonzero(zero.matrix.data == 0.0) == np.count_nonzero(system.matrix.data == 0.0) + 1
        assert zero.plan is system.plan and len(plan_builds) == 1
        assert zero.matrix.nnz == system.matrix.nnz
        sla.solve(zero)
        assert zero.meta.residual_norm <= sla.DIRECT_TOL


class TestNewtonSlices:
    """Every matrix the solver factors has the layout the sweeps plan: the
    value field first, swept backward from its last slice, then the density
    field from ``split`` on, swept forward from slice 1, each field in time
    order and each slice reading only the slice swept just before it (the
    plan rejects a field out of time order or read both ways)."""

    @pytest.mark.parametrize("case", ["1d-local", "1d-kernel", "2d-local", "kernel-congestion",
                                      "picard", "probe"])
    def test_every_schur_update_is_gathered(self, case, factorizations):
        if case in ("1d-kernel", "kernel-congestion"):
            p, exact = manufactured_nonlocal(nx=16, nt=8, congestion=case == "kernel-congestion")
        elif case == "2d-local":
            p, exact = manufactured(nx=6, nt=8, dim=2)
        else:
            p, exact = manufactured(nx=16, nt=8)
        start = diag.perturbed_state(exact, 1e-2)
        if case == "picard":
            with pytest.raises(MaxIterExceededError):
                solver.solve_fixed_point(p, start, solver.NewtonConfig(max_iter=1))
        elif case == "probe":
            solver.linearized_solver(p, start)
        else:
            solver.newton_step(p, start, solver.NewtonConfig())
        assert factorizations
        nt, last = p.grid.nt, p.grid.nt if p.coupling.derives_terminal else p.grid.nt - 1
        value, density = list(range(last, -1, -1)), list(range(1, nt + 1))
        for call in factorizations:
            a, plan = call["a"], call["plan"]
            slices, split = slices_of(plan), plan.split
            ids = [[part[0] for part in parts] for *_, parts in plan.fields]
            if case == "picard":  # the value block, or the density block: one field
                assert split in (0, a.shape[0]) and ids in ([value], [density])
            else:
                assert ids == [value, density] and np.all(slices[split:] > 0)
            for lo, (_, _, coupled, _, parts) in zip((0, split) if len(ids) == 2 else (0,), plan.fields):
                for before, (*_, layers) in zip(parts, parts[1:]):
                    for ents, cols in layers:
                        assert np.all(slices[lo + cols[ents < coupled.size]] == before[0])
                # the first slice swept reads none, and every other one layer
                assert [len(part[-1]) for part in parts] == [0] + [1] * (len(parts) - 1)

    @pytest.mark.parametrize("case", ["1d-64-local", "1d-64-kernel", "2d-16-local"])
    def test_one_layer_on_every_coupled_slice(self, case):
        # the benchmark's Newton systems: every row of a slice reads the one
        # unknown it follows in time, so each field's first slice swept
        # gathers no layer and every later one exactly one, with no padding
        if case == "1d-64-kernel":
            p, exact = manufactured_nonlocal(nx=64, nt=64)
        else:
            p, exact = manufactured(nx=int(case[3:5]), nt=int(case[3:5]), dim=int(case[0]))
        system, _ = solver.newton_system(p, diag.perturbed_state(exact, 1e-2))
        for _, _, coupled, _, parts in system.plan.fields:
            assert [len(layers) for *_, layers in parts] == [0] + [1] * (len(parts) - 1)
            assert all(np.all(ents < coupled.size) for *_, layers in parts for ents, _ in layers)

    def test_order_keeps_slices_and_narrows_the_1d_band(self):
        # each field's order permutes unknowns within their slices only, and
        # every 1D 64 slice block (periodic tridiagonal) has half-bandwidth 2
        p, exact = manufactured(nx=64, nt=8)
        system, _ = solver.newton_system(p, diag.perturbed_state(exact, 1e-2))
        plan, split = system.plan, system.plan.split
        for part, (order, _, _, band, parts) in zip((slice(0, split), slice(split, None)), plan.fields):
            s = slices_of(plan)[part]
            assert np.array_equal(s[order], s)
            block = sp.coo_matrix(system.matrix[part][:, part][order][:, order])
            inside = s[block.row] == s[block.col]
            d, k = (block.row - block.col)[inside], s[block.row[inside]]
            assert {(d[k == j].max(), -d[k == j].min()) for j in np.unique(s)} == {(2, 2)}
            assert band[:2] == (2, 2) and all(csc is None for _, _, csc, _ in parts)  # the field's band

    @pytest.mark.parametrize("case, kl", [("2d-16-local", 32), ("2d-16-kernel", 32), ("1d-64-local", 2),
                                          ("2d-12-local", 23)])
    def test_band_padded_to_the_lapack_block_size(self, set_band_max, case, kl):
        # a 2D 16 slice block's RCM half-bandwidth is 31 (32 on one kernel
        # value slice): one more sub-diagonal adds 2 of 94 rows, so every band
        # slice is factored at kl = LAPACK_NB; 1D's 2 and 2D 12's 23 would
        # need many more rows and stay; the solve matches SuperLU's
        dim, nx = int(case[0]), int(case[3:5])
        if case.endswith("kernel"):
            p, exact = manufactured_nonlocal(nx=nx, nt=nx, dim=dim)
        else:
            p, exact = manufactured(nx=nx, nt=nx, dim=dim)
        start = diag.perturbed_state(exact, 1e-2)
        system, _ = solver.newton_system(p, start)
        sweeps = sla._Sweeps(system.plan, system.matrix.data)
        lus = [lu for _, steps in sweeps.fields for _, lu, _ in steps]
        assert all(isinstance(lu, sla._BandLU) and lu.kl == kl and lu.lu.shape[0] == 2 * kl + lu.ku + 1
                   for lu in lus)
        x, meta = sla.factorize(system.matrix, system.plan, system.um)(system.rhs)
        set_band_max(-1)  # every slice factored by SuperLU
        forced, _ = solver.newton_system(p, start)
        assert slice_factors(forced.plan) == {"splu"}
        y, ref = sla.factorize(forced.matrix, forced.plan, forced.um)(forced.rhs)
        assert np.linalg.norm(x - y, np.inf) <= 1e-10 * np.linalg.norm(y, np.inf)
        assert meta.iterations == ref.iterations

    def test_kernel_blocks_stay_out_of_the_csr(self):
        # the CSR keeps the stencils only (7 entries in a row here, 20 when
        # it held conv_f and conv_g); the system's operator on A_um gives
        # every two-field slice k = 1..nt its block, at u_k's rows and m_k's
        # columns, where the CSR holds no entry (H_m = 0), and u_0's rows none
        p, exact = manufactured_nonlocal(nx=16, nt=8)
        n, nt = p.grid.n_space, p.grid.nt
        system, _ = solver.newton_system(p, diag.perturbed_state(exact, 1e-2))
        split = system.plan.split
        assert np.diff(system.matrix.indptr).max() < n and split == (nt + 1) * n
        assert system.matrix[:split, split:].nnz == 0
        blocks = whole(sp.csr_matrix(system.matrix.shape), system.um, split)[:split, split:]
        assert not blocks[:n].any()
        for k in range(1, nt + 1):
            rows, cols = slice(k * n, (k + 1) * n), slice((k - 1) * n, k * n)
            assert set(slices_of(system.plan)[rows]) == set(slices_of(system.plan)[split:][cols]) == {k}
            expected = -(p.coupling.g if k == nt else p.coupling.f).conv
            np.testing.assert_array_equal(blocks[rows, cols], expected)
            blocks[rows, cols] = 0.0
        assert not blocks.any()

    def test_operator_and_moved_product_match_the_dense_blocks(self):
        # a start whose m(0) is off m0, so that u_0's product with the known
        # m_0 moves a nonzero term to the right-hand side: the system's
        # operator and right-hand side match the dense blocks' reference,
        # with g a second kernel
        grid = tg.GridSpec(dim=1, nx=16, nt=8, horizon=1.0)
        coupling = cpl.NonlocalCoupling(f=cpl.gaussian_kernel_coupling(grid, 0.1),
                                        g=cpl.gaussian_kernel_coupling(grid, 0.2))
        p, exact = diag.make_manufactured(grid, ham.separable_quadratic(grid, 1.0), coupling)
        state = diag.perturbed_state(exact, 1e-2)
        m = state.m.values.copy()
        m[0] *= 1.0 + 0.1 * np.sin(2 * np.pi * np.arange(grid.nx) / grid.nx)
        state = solver.make_state(grid, state.u.values, m)
        system, _ = solver.newton_system(p, state)
        ref = OperatorAlgebra(grid).newton_system(p, state)
        assert_same_system(system, ref)
        n, split = grid.n_space, system.plan.split
        shift = -(coupling.f.conv @ (p.m0 - m[0]))  # u_0's rows: -f[dm_0], dm_0 = m0 - m(0)
        residual = -solver.residual(p, state)[0].values[0]
        assert np.abs(shift).max() > 1e-3
        np.testing.assert_allclose(system.rhs[:n], residual - shift, rtol=1e-12, atol=1e-12)
        x = sla.solve(system)
        np.testing.assert_allclose(whole(system.matrix, system.um, split) @ x, system.rhs, rtol=0, atol=1e-10)

    def test_one_kernel_gives_one_block(self):
        # with g = f, the terminal slice's block is the running slices' one:
        # the operator takes one product for every slice, bitwise the same
        # with the last slice read as m(T) or not
        grid = tg.GridSpec(dim=1, nx=16, nt=8, horizon=1.0)
        kernel = cpl.gaussian_kernel_coupling(grid, 0.1)
        p, exact = diag.make_manufactured(grid, ham.separable_quadratic(grid, 1.0),
                                          cpl.NonlocalCoupling(f=kernel, g=kernel))
        system, _ = solver.newton_system(p, diag.perturbed_state(exact, 1e-2))
        dm = np.random.default_rng(6).standard_normal((grid.nt, grid.n_space))
        assert np.array_equal(p.coupling.rows(dm), p.coupling.rows(dm, terminal=False))
        assert np.array_equal(system.um(dm.ravel())[grid.n_space:], p.coupling.rows(dm).ravel())


class TestSweepPath:
    """Up to ``BAND_MAX`` half-bandwidth in the plan's order (2 in 1D, at any
    n) LAPACK's band LU factors the slice blocks, beyond it SuperLU, to the
    same solutions: Newton's two-field systems by GMRES on the density Schur
    complement, Picard's one-field blocks by one sweep."""

    @pytest.fixture
    def metas(self, monkeypatch):
        """The metadata of every solve through ``sparse_linalg.solve``."""
        recorded, real = [], sla.solve

        def record(system):
            x = real(system)
            recorded.append(system.meta)
            return x

        monkeypatch.setattr(sla, "solve", record)
        return recorded

    def test_newton_takes_the_schur_path_in_the_block_lus_steps(self, metas, set_band_max):
        # the same steps, and the same solution, with every slice factored by SuperLU
        p, exact = manufactured(nx=128, nt=8)
        start, cfg = diag.perturbed_state(exact, 1e-2), solver.NewtonConfig(residual_tol=1e-10)
        final, history = solver.solve_newton(p, start, cfg)
        assert len(metas) == len(history) - 1 >= 3
        assert all(m.method == "schur" and m.iterations > 0 and m.residual_norm <= sla.DIRECT_TOL
                   for m in metas)
        set_band_max(-1)
        forced, forced_history = solver.solve_newton(p, start, cfg)
        assert slice_factors(solver.newton_system(p, start)[0].plan) == {"splu"}  # the forced steps' mask
        assert metas[-1].method == "schur"
        assert len(forced_history) == len(history)
        for ours, theirs in ((final.u, forced.u), (final.m, forced.m)):
            assert np.abs(ours.values - theirs.values).max() <= 1e-10

    def test_picard_inner_solves_are_single_sweeps(self, metas):
        p, exact = manufactured(nx=128, nt=4)
        with pytest.raises(MaxIterExceededError):
            solver.solve_fixed_point(p, diag.perturbed_state(exact, 1e-2),
                                     solver.NewtonConfig(max_iter=1))
        assert len(metas) >= 2  # at least one value solve and the density solve
        assert all(m.method == "sweep" and m.iterations == 0 and m.residual_norm <= sla.DIRECT_TOL
                   for m in metas)

    def test_linearized_solver_factors_its_sweeps_once(self, monkeypatch, set_band_max):
        p, exact = manufactured(nx=128, nt=8)
        factored, dgbtrf = [], sla.lapack.dgbtrf

        def counting(ab, kl, ku, **kwargs):
            factored.append((ab.shape[1], kl, ku))
            return dgbtrf(ab, kl, ku, **kwargs)

        monkeypatch.setattr(sla.lapack, "dgbtrf", counting)
        solve = solver.linearized_solver(p, exact)
        # u on slices 0..nt-1 and m on 1..nt, one band factor of 128
        # unknowns each, of half-bandwidth 2
        assert factored == [(128, 2, 2)] * 2 * p.grid.nt
        draws = [diag.random_smooth_data(p.grid, seed=seed) for seed in range(3)]
        solved = [solve(a, b) for a, b in draws]
        assert len(factored) == 2 * p.grid.nt
        set_band_max(-1)  # every slice factored by SuperLU
        splu = solver.linearized_solver(p, exact)
        assert len(factored) == 2 * p.grid.nt  # no band LU
        for (a, b), (v, rho) in zip(draws, solved):
            v_lu, rho_lu = splu(a, b)
            assert np.abs(v.values - v_lu.values).max() <= 1e-10
            assert np.abs(rho.values - rho_lu.values).max() <= 1e-10


class TestSolveFixedPoint:
    def test_reference_start_single_record(self):
        p, exact = manufactured()
        final, history = solver.solve_fixed_point(
            p, exact, solver.NewtonConfig(residual_tol=1e-9))
        assert len(history) == 1

    def test_converges_and_slower_than_newton(self):
        p, exact = manufactured()
        init = diag.perturbed_state(exact, 1e-2)
        cfg = solver.NewtonConfig(residual_tol=1e-9, max_iter=200, damping=0.5)
        _, hist_newton = solver.solve_newton(p, init, cfg, reference=exact)
        final, hist_fp = solver.solve_fixed_point(p, init, cfg, reference=exact)
        assert len(hist_fp) - 1 > len(hist_newton) - 1
        r_u, r_m = solver.residual(p, final)
        assert max(tg.sup_norm(r_u.values), tg.sup_norm(r_m.values)) <= 1e-9
        errs = [r.err_sum for r in hist_fp]
        assert errs[-1] < errs[0]

    def test_undamped_on_weak_coupling(self):
        p, exact = manufactured(alpha=0.25)
        init = diag.perturbed_state(exact, 1e-2)
        cfg = solver.NewtonConfig(residual_tol=1e-9, max_iter=200, damping=1.0)
        final, history = solver.solve_fixed_point(p, init, cfg)
        r_u, r_m = solver.residual(p, final)
        assert max(tg.sup_norm(r_u.values), tg.sup_norm(r_m.values)) <= 1e-9

    def test_mass_conserved(self):
        p, exact = manufactured()
        init = diag.perturbed_state(exact, 1e-2)
        cfg = solver.NewtonConfig(residual_tol=1e-8, max_iter=200)
        _, history = solver.solve_fixed_point(p, init, cfg)
        for rec in history:
            assert 1 - 1e-9 <= rec.mass_min <= rec.mass_max <= 1 + 1e-9

    def test_linear_solve_failure_reports_iterate(self, monkeypatch):
        # Picard's inner solves are one-field sweeps, with no GMRES to run
        # out: a slice block whose band LU meets an exact zero pivot (its
        # entries all zeroed here) fails the first step
        dgbtrf = sla.lapack.dgbtrf
        monkeypatch.setattr(sla.lapack, "dgbtrf",
                            lambda ab, kl, ku, **kwargs: dgbtrf(np.zeros_like(ab), kl, ku, **kwargs))
        p, exact = manufactured(nx=16, nt=8)
        init = diag.perturbed_state(exact, 1e-2)
        cfg = solver.NewtonConfig(residual_tol=1e-9)
        with pytest.raises(SingularMatrixError,
                           match=r"^exact zero pivot in time slice \d+ \(fixed-point iterate 1\)$") as info:
            solver.solve_fixed_point(p, init, cfg)
        assert info.value.iterate == 1
        assert "Newton" not in str(info.value)

    def test_inner_stagnation_stops_before_the_inner_budget(self, factorizations):
        p, exact = manufactured(nx=32, nt=16)
        with pytest.raises(MaxIterExceededError, match="inner value-function Newton stalled"):
            solver.solve_fixed_point(p, diag.perturbed_state(exact, 1e-2),
                                     solver.NewtonConfig(residual_tol=1e-17))
        assert solver.STALL_STEPS < len(factorizations) < solver.MAX_INNER

    def test_inner_stall_reports_iterate_and_keeps_history(self):
        # no inner value-function solve reaches a tolerance below round-off
        p, exact = manufactured(nx=16, nt=8)
        init = diag.perturbed_state(exact, 1e-2)
        with pytest.raises(MaxIterExceededError, match=r"\(fixed-point iterate 1\)$") as info:
            solver.solve_fixed_point(p, init, solver.NewtonConfig(residual_tol=1e-17))
        assert len(info.value.history) == 1
        assert info.value.final is init
        assert info.value.iterate == 1

    def test_nonlocal_variant(self):
        p, exact = manufactured_nonlocal(nx=16, nt=8)
        init = diag.perturbed_state(exact, 1e-2)
        cfg = solver.NewtonConfig(residual_tol=1e-8, max_iter=200, damping=0.8)
        final, history = solver.solve_fixed_point(p, init, cfg)
        r_u, r_m = solver.residual(p, final)
        assert max(tg.sup_norm(r_u.values), tg.sup_norm(r_m.values)) <= 1e-8


class TestSolveLinearized:
    def _setup(self, nx=32, nt=16):
        p, exact = manufactured(nx=nx, nt=nt)
        return p, exact

    def test_data_on_another_grid_rejected(self):
        p, exact = self._setup(nx=16, nt=8)
        other = tg.GridSpec(dim=1, nx=8, nt=8, horizon=1.0)
        solve = solver.linearized_solver(p, exact)
        b = tg.VectorField(p.grid, np.zeros((1, 9, 16)))
        with pytest.raises(ValueError, match="data fields must live on the problem grid"):
            solve(tg.Field(other, np.zeros((9, 8))), b)

    def test_zero_data_gives_trivial_solution(self):
        p, exact = self._setup()
        grid = p.grid
        a = tg.Field(grid, np.zeros((grid.nt + 1,) + grid.spatial_shape))
        b = tg.VectorField(grid, np.zeros((1, grid.nt + 1) + grid.spatial_shape))
        v, rho = solver.solve_linearized(p, exact, a, b)
        total = (tg.sup_norm(v.values) + tg.grad_sup_norm(v.values, grid)
                 + tg.sup_norm(rho.values))
        assert total <= 1e-9

    def test_linearity_scaling(self):
        p, exact = self._setup()
        a, b = diag.random_smooth_data(p.grid, seed=3)
        v1, r1 = solver.solve_linearized(p, exact, a, b)
        a2 = tg.Field(p.grid, 2.0 * a.values)
        b2 = tg.VectorField(p.grid, 2.0 * b.components)
        v2, r2 = solver.solve_linearized(p, exact, a2, b2)
        np.testing.assert_allclose(v2.values, 2.0 * v1.values, atol=1e-11)
        np.testing.assert_allclose(r2.values, 2.0 * r1.values, atol=1e-11)

    def test_boundary_rows_homogeneous(self):
        p, exact = self._setup()
        a, b = diag.random_smooth_data(p.grid, seed=8)
        v, rho = solver.solve_linearized(p, exact, a, b)
        assert np.all(v.values[-1] == 0.0)
        assert np.all(rho.values[0] == 0.0)

    def test_empirical_stability_constant_bounded(self):
        p, exact = self._setup()
        ratios = []
        for seed in range(20):
            a, b = diag.random_smooth_data(p.grid, seed=seed)
            v, rho = solver.solve_linearized(p, exact, a, b)
            ratios.append(tg.sup_norm(v.values)
                          + tg.grad_sup_norm(v.values, p.grid)
                          + tg.sup_norm(rho.values))
        assert max(ratios) <= 10.0  # loose a-priori bound; exact value probed in acceptance

    def test_nonlocal_terminal_data(self):
        p, exact = manufactured_nonlocal(nx=16, nt=8)
        grid = p.grid
        zero_a = tg.Field(grid, np.zeros((grid.nt + 1,) + grid.spatial_shape))
        zero_b = tg.VectorField(grid, np.zeros((1, grid.nt + 1) + grid.spatial_shape))
        c = 0.1 * np.cos(2 * np.pi * grid.x_nodes()[0])
        v, rho = solver.solve_linearized(p, exact, zero_a, zero_b, c=c)
        # the terminal row reads v(T) - (dg/dm) rho(T) = c
        coupling_term = p.coupling.g.conv @ rho.values[-1]
        np.testing.assert_allclose(v.values[-1] - coupling_term, c, atol=1e-11)
        assert tg.sup_norm(v.values) > 0.0

    @pytest.mark.parametrize("nonlocal_", [False, True])
    def test_factored_solver_matches_solve_linearized_bitwise(self, nonlocal_):
        p, exact = manufactured_nonlocal(nx=16, nt=8) if nonlocal_ else self._setup(nx=16, nt=8)
        c = 0.1 * np.cos(2 * np.pi * p.grid.x_nodes()[0]) if nonlocal_ else None
        solve = solver.linearized_solver(p, exact)
        for seed in range(4):
            a, b = diag.random_smooth_data(p.grid, seed=seed)
            v, rho = solve(a, b, c)
            v_ref, rho_ref = solver.solve_linearized(p, exact, a, b, c)
            assert v.values.tobytes() == v_ref.values.tobytes()
            assert rho.values.tobytes() == rho_ref.values.tobytes()

    @pytest.mark.parametrize("nonlocal_", [False, True])
    def test_jacobian_of_the_solution_reproduces_the_data(self, nonlocal_):
        # the probe solves the full Jacobian's system: its solution, mapped
        # back through every row (boundary rows included), gives the data
        p, exact = manufactured_nonlocal(nx=16, nt=8) if nonlocal_ else self._setup(nx=16, nt=8)
        grid = p.grid
        c = 0.1 * np.cos(2 * np.pi * grid.x_nodes()[0]) if nonlocal_ else None
        solve = solver.linearized_solver(p, exact)
        for seed in range(3):
            a, b = diag.random_smooth_data(grid, seed=seed)
            v, rho = solve(a, b, c)
            ju, jm = solver.linearized_apply(p, exact, v.values, rho.values)
            want_u = np.array(a.values)
            # the terminal row: v(T) = 0, or v(T) - (dg/dm) rho(T) = c
            want_u[-1] = 0.0 if c is None else c
            want_m = tg.div_array(b.components, grid)
            want_m[0] = 0.0  # the initial row: rho(0) = 0
            scale = max(np.abs(want_u).max(), np.abs(want_m).max())
            assert np.abs(ju - want_u).max() <= 1e-12 * scale
            assert np.abs(jm - want_m).max() <= 1e-12 * scale

    def test_local_rejects_terminal_data(self):
        p, exact = self._setup(nx=16, nt=8)
        grid = p.grid
        a = tg.Field(grid, np.zeros((grid.nt + 1,) + grid.spatial_shape))
        b = tg.VectorField(grid, np.zeros((1, grid.nt + 1) + grid.spatial_shape))
        with pytest.raises(ValueError):
            solver.solve_linearized(p, exact, a, b, c=np.ones(grid.nx))


class TestLocalNonlocalParity:
    def test_delta_kernel_limit(self):
        grid = tg.GridSpec(dim=1, nx=32, nt=16, horizon=1.0)
        hs = ham.separable_quadratic(grid, 1.0)
        cfg = solver.NewtonConfig(residual_tol=1e-12, max_iter=1)
        diffs = []
        for frac in (0.5, 0.125):
            sigma = frac * grid.dx
            nc = solver.NonlocalCoupling(
                f=cpl.gaussian_kernel_coupling(grid, sigma),
                g=cpl.gaussian_kernel_coupling(grid, sigma))
            pn, exact_n = diag.make_manufactured_nonlocal(grid, hs, nc)
            init = diag.perturbed_state(exact_n, 1e-2)
            next_n, _ = solver.newton_step(pn, init, cfg)
            # matched local problem: linear coupling, terminal pinned to the
            # nonlocal step's own terminal slice
            pl = solver.ProblemSpec(
                grid=grid, hamiltonian=hs, coupling=cpl.LocalCoupling("linear"),
                m0=pn.m0, uT=next_n.u.values[grid.nt].copy(),
                s_u=pn.s_u, s_m=pn.s_m)
            next_l, _ = solver.newton_step(pl, init, cfg)
            diffs.append(tg.sup_norm(next_n.u.values - next_l.u.values)
                         + tg.sup_norm(next_n.m.values - next_l.m.values))
        assert diffs[1] < diffs[0]
        assert diffs[1] <= 1e-10
