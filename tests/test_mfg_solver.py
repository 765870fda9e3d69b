import inspect

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
    """A GMRES budget no Newton or Picard linear solve can meet, one
    iteration; returns the config that selects GMRES."""
    monkeypatch.setattr(sla, "GMRES_MAX_ITER", 1)
    monkeypatch.setattr(sla, "GMRES_RESTART", 1)
    return solver.NewtonConfig(residual_tol=1e-9, linear_method="iterative")


def manufactured(nx=32, nt=16, alpha=1.0, coupling="sigmoid", dim=1):
    grid = tg.GridSpec(dim=dim, nx=nx, nt=nt, horizon=1.0)
    spec = ham.congestion(grid, 1.0, alpha=alpha)
    return diag.make_manufactured(grid, spec, cpl.LocalCoupling(coupling))


def manufactured_nonlocal(nx=32, nt=16, sigma=0.1, congestion=False):
    grid = tg.GridSpec(dim=1, nx=nx, nt=nt, horizon=1.0)
    spec = ham.congestion(grid, 1.0, alpha=1.0) if congestion else ham.separable_quadratic(grid, 1.0)
    nc = solver.NonlocalCoupling(
        f=cpl.gaussian_kernel_coupling(grid, sigma),
        g=cpl.gaussian_kernel_coupling(grid, sigma))
    return diag.make_manufactured_nonlocal(grid, spec, nc)


def whole(mat, dense):
    """The CSR matrix ``mat`` plus its dense addends, as a dense array."""
    out = mat.toarray()
    for r, c, block in dense:
        out[r:r + block.shape[0], c:c + block.shape[1]] += block
    return out


def assert_csr_invariants(mat):
    """Strictly increasing columns in every row, and no stored zero."""
    assert mat.indptr.shape == (mat.shape[0] + 1,)
    assert mat.has_canonical_format
    assert np.all(mat.data != 0.0)


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
        assert meta.method == "direct"

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
    """Entrywise comparison of the assembled operator, its CSR plus its dense
    blocks, with a finite-difference Jacobian of the residual map on tiny
    grids, over the full unknown layout with both boundary rows and columns."""

    def _check(self, p, state):
        from mfg_newton.mfg_solver import _jacobian

        grid = p.grid
        u, m = state.u.values, state.m.values
        dense = whole(*_jacobian(p, state)[:2])

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
        assert cls("failed").iterate is None

    def test_domain_error_reports_iterate(self):
        # raise the floor so the exact state is evaluable but the perturbed
        # start is not: failure must name the iterate, never pass silently
        grid = tg.GridSpec(dim=1, nx=16, nt=8, horizon=1.0)
        spec = ham.congestion(grid, 1.0, alpha=1.0, m_floor=0.65)
        p, exact = diag.make_manufactured(grid, spec, cpl.LocalCoupling("sigmoid"))
        init = diag.perturbed_state(exact, 0.5)  # density dips to 0.5 at t = T
        with pytest.raises(DomainError, match=r"\(iterate 0, initial state\)$") as info:
            solver.solve_newton(p, init, solver.NewtonConfig(residual_tol=1e-9))
        assert info.value.iterate == 0

    def test_domain_error_names_the_iterate_that_left_the_domain(self):
        # the first step from a steep start drops the density below the floor
        grid = tg.GridSpec(dim=1, nx=16, nt=8, horizon=1.0)
        spec = ham.congestion(grid, 1.0, alpha=1.0, m_floor=0.5)
        p, exact = diag.make_manufactured(grid, spec, cpl.LocalCoupling("sigmoid"))
        u = exact.u.values + 10.0 * np.sin(2 * np.pi * grid.x_nodes()[0])
        start = solver.make_state(grid, u, np.ones_like(u))
        first, _ = solver.newton_step(p, start, solver.NewtonConfig())
        assert first.m.values.min() < 0.5
        with pytest.raises(DomainError, match=r"\(Newton iterate 1\)$") as info:
            solver.solve_newton(p, start, solver.NewtonConfig(residual_tol=1e-9))
        assert info.value.iterate == 1

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
        with pytest.raises(ValueError, match="linear_method must be one of"):
            solver.NewtonConfig(linear_method="gmres")

    @staticmethod
    def solve_iterative(p, exact):
        """Newton with GMRES from ``exact`` perturbed by 1e-2: the history,
        and the linear-solve metadata of the same steps taken by
        :func:`solver.newton_step`."""
        start = diag.perturbed_state(exact, 1e-2)
        cfg = solver.NewtonConfig(residual_tol=1e-9, linear_method="iterative")
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
        assert all(m.method == "iterative" and m.residual_norm <= sla.DIRECT_TOL for m in metas)

    def test_iterative_linear_method_kernel(self):
        # GMRES must see the kernel coupling's dense blocks: without them it
        # stalls at residual 1e-1 and the budget runs out
        history, metas = self.solve_iterative(*manufactured_nonlocal(nx=16, nt=8))
        assert len(history) - 1 == 3
        assert history[-1].err_sum <= 1e-8
        assert all(m.method == "iterative" and m.residual_norm <= sla.DIRECT_TOL for m in metas)


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


class TestDirectVsIterativeOnNewtonSystem:
    def test_agreement(self):
        p, exact = manufactured(nx=32, nt=32)
        init = diag.perturbed_state(exact, 1e-2)
        system, _ = solver.newton_system(p, init)
        xd = sla.solve(system)
        xi = sla.solve(system, "iterative")
        assert np.linalg.norm(xd - xi) / np.linalg.norm(xd) <= 1e-8


class TestBlockLUAgainstSuperLU:
    """Every system the solver hands to the block LU in time, solved again by
    SuperLU, which serves here as an oracle only."""

    @pytest.fixture
    def handed(self, monkeypatch):
        solved = []
        real = sla.solve

        def record(system, method="direct"):
            x = real(system, method)
            solved.append((system, x))
            return x

        monkeypatch.setattr(sla, "solve", record)
        return solved

    @staticmethod
    def assert_matches_splu(solved):
        assert solved
        for system, x in solved:
            assert system.slices is not None
            expected = spla.splu(sp.csc_matrix(whole(system.matrix, system.dense))).solve(system.rhs)
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
        assert {int(system.slices.min()) for system, _ in handed} == {0, 1}
        self.assert_matches_splu(handed)


class TestPlanReuse:
    """The block LU's pattern is planned once per sparsity pattern: every
    Newton step reuses the first step's plan, and Picard needs one plan for
    its value block and one for its density block."""

    def test_newton_builds_one_plan(self, plan_builds):
        p, exact = manufactured(nx=16, nt=16)
        _, history = solver.solve_newton(p, diag.perturbed_state(exact, 1e-2),
                                         solver.NewtonConfig(residual_tol=1e-10))
        assert len(history) - 1 >= 3
        assert len(plan_builds) == 1

    def test_fixed_point_builds_at_most_two(self, plan_builds):
        p, exact = manufactured(nx=16, nt=16)
        _, history = solver.solve_fixed_point(
            p, diag.perturbed_state(exact, 1e-2),
            solver.NewtonConfig(residual_tol=1e-9, max_iter=200, damping=0.5))
        assert len(history) - 1 > 2  # each iteration solves both blocks
        assert len(plan_builds) <= 2


class TestNewtonSlices:
    """Every matrix the solver factors has the pattern the block LU in time
    plans: every slice that holds both fields splits, its value unknowns
    as u and its density unknowns as m, and every Schur update is a column
    gather (the plan rejects any other)."""

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
        for call in factorizations:
            slices = call["slices"]
            plan, _ = sla._plan(call["a"], slices, call.get("dense", ()))
            # the unknowns are slice-stacked, value before density: the slice
            # ids drop where the density unknowns start
            density = np.r_[0, np.cumsum(np.diff(slices) < 0)][plan.order]
            n_u = [np.count_nonzero(density[part] == 0) for part in plan.parts]
            assert [s[0] for s in plan.split] == [nu if 0 < nu < size else 0
                                                  for nu, size in zip(n_u, plan.sizes)]
            assert all(np.all(np.diff(density[part]) >= 0) for part in plan.parts)
            # a split slice passes an update to a split successor, and only there
            assert [u is not None for u in plan.schur[1:]] == \
                [s[0] > 0 and t[0] > 0 for s, t in zip(plan.split, plan.split[1:])]

    def test_kernel_blocks_stay_out_of_the_csr(self):
        # the CSR keeps the stencils only (7 entries in a row here, 20 when
        # it held conv_f and conv_g), and every two-field slice, 1..nt,
        # splits with a dense block of addends in B and no entry there (H_m = 0)
        p, exact = manufactured_nonlocal(nx=16, nt=8)
        n = p.grid.n_space
        system, _ = solver.newton_system(p, diag.perturbed_state(exact, 1e-2))
        assert np.diff(system.matrix.indptr).max() < n
        assert len(system.dense) == p.grid.nt
        factor = sla._SliceLU(*sla._plan(system.matrix, system.slices, system.dense),
                              system.matrix.data)
        assert [s[0] for s in factor.plan.split] == [0] + [n] * p.grid.nt
        for k in range(1, p.grid.nt + 1):
            _, _, entries, addends = factor.lu[k][3]
            assert entries.size == 0 and addends.shape == (n, n)
        assert np.array_equal(factor.lu[-1][3][3], -p.coupling.g.conv)


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

    def test_linear_solve_failure_reports_iterate(self, exhausted_gmres):
        p, exact = manufactured(nx=16, nt=8)
        init = diag.perturbed_state(exact, 1e-2)
        with pytest.raises(NoConvergenceError, match=r"\(fixed-point iterate 1\)$") as info:
            solver.solve_fixed_point(p, init, exhausted_gmres)
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
