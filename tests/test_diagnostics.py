import math

import numpy as np
import pytest

from mfg_newton import coupling as cpl
from mfg_newton import diagnostics as diag
from mfg_newton import hamiltonian as ham
from mfg_newton import mfg_solver as solver
from mfg_newton import torus_grid as tg
from mfg_newton.errors import InsufficientDataError


class TestFitRate:
    def test_exact_quadratic_sequence(self):
        e = [0.5 ** (2**n) for n in range(5)]
        fit = diag.fit_rate(e, floor=0.0)
        assert fit.order == pytest.approx(2.0, abs=1e-12)
        assert fit.constant == pytest.approx(1.0, abs=1e-12)
        assert fit.floor_index is None

    def test_exact_geometric_sequence(self):
        e = [0.5**n for n in range(1, 7)]
        fit = diag.fit_rate(e, floor=0.0)
        assert fit.order == pytest.approx(1.0, abs=1e-12)
        assert fit.constant == pytest.approx(0.5, abs=1e-12)

    def test_floored_sequence_against_hand_least_squares(self):
        e = [1e-2, 3e-5, 2.5e-10, 8e-12]
        fit = diag.fit_rate(e, floor=1e-11)
        # two usable pairs -> the least-squares line interpolates them
        x1, x2 = math.log(1e-2), math.log(3e-5)
        y1, y2 = math.log(3e-5), math.log(2.5e-10)
        q_hand = (y2 - y1) / (x2 - x1)
        c_hand = math.exp(y1 - q_hand * x1)
        assert fit.order == pytest.approx(q_hand, rel=1e-12)
        assert fit.constant == pytest.approx(c_hand, rel=1e-10)
        assert fit.points_used == 3
        assert fit.floor_index == 3
        assert fit.residual == pytest.approx(0.0, abs=1e-20)

    def test_scale_invariance_for_exact_power_law(self):
        e = np.array([0.5 ** (2**n) for n in range(5)])
        q0 = diag.fit_rate(e, floor=0.0).order
        q1 = diag.fit_rate(7.3 * e, floor=0.0).order
        assert abs(q0 - q1) <= 1e-12

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            diag.fit_rate([1e-2, 1e-4], floor=0.0)
        with pytest.raises(InsufficientDataError):
            diag.fit_rate([1e-2, 1e-4, 1e-8], floor=1e-6)

    def test_trailing_exact_zero_lies_at_the_floor(self):
        # a step that lands on the root: its 0.0 ends the usable pairs
        fit = diag.fit_rate([1e-1, 1e-2, 1e-4, 0.0], floor=0.0)
        assert fit.order == pytest.approx(2.0, abs=1e-12)
        assert fit.points_used == 3 and fit.floor_index == 3
        with pytest.raises(ValueError):
            diag.fit_rate([1e-1, 1e-2, -1e-4], floor=0.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            diag.fit_rate([1e-2, 0.0, 1e-4], floor=0.0)


class TestManufactured:
    GRID = tg.GridSpec(dim=1, nx=64, nt=8, horizon=1.0)

    def _make(self):
        spec = ham.congestion(self.GRID, 1.0, alpha=1.0)
        return diag.make_manufactured(self.GRID, spec, cpl.LocalCoupling("sigmoid"))

    def test_sampled_fields_are_exact_root(self):
        problem, exact = self._make()
        r_u, r_m = solver.residual(problem, exact)
        assert tg.sup_norm(r_u.values) <= 1e-13
        assert tg.sup_norm(r_m.values) <= 1e-13

    def test_density_slices_have_unit_mass(self):
        _, exact = self._make()
        masses = tg.slice_masses(exact.m.values, self.GRID)
        np.testing.assert_allclose(masses, 1.0, atol=1e-13)

    def test_density_minimum_location_and_value(self):
        _, exact = self._make()
        k, i = np.unravel_index(np.argmin(exact.m.values), exact.m.values.shape)
        assert k == 0            # at t = 0
        assert i == 48           # node nearest x = 3/4 (exact at nx = 64)
        assert exact.m.values[k, i] == pytest.approx(0.7, abs=1e-14)

    def test_deterministic_sources(self):
        p1, _ = self._make()
        p2, _ = self._make()
        assert p1.s_u.values.tobytes() == p2.s_u.values.tobytes()
        assert p1.s_m.values.tobytes() == p2.s_m.values.tobytes()

    def test_2d_variant(self):
        grid = tg.GridSpec(dim=2, nx=8, nt=4, horizon=1.0)
        spec = ham.congestion(grid, 1.0, alpha=1.0)
        problem, exact = diag.make_manufactured(grid, spec, cpl.LocalCoupling("linear"))
        r_u, r_m = solver.residual(problem, exact)
        assert tg.sup_norm(r_u.values) <= 1e-13
        assert tg.sup_norm(r_m.values) <= 1e-13
        np.testing.assert_allclose(tg.slice_masses(exact.m.values, grid), 1.0, atol=1e-13)

    def test_nonlocal_variant_terminal_exact(self):
        grid = tg.GridSpec(dim=1, nx=32, nt=8, horizon=1.0)
        spec = ham.separable_quadratic(grid, 1.0)
        nc = solver.NonlocalCoupling(
            f=cpl.gaussian_kernel_coupling(grid, 0.1),
            g=cpl.gaussian_kernel_coupling(grid, 0.1))
        problem, exact = diag.make_manufactured_nonlocal(grid, spec, nc)
        r_u, r_m = solver.residual(problem, exact)
        assert tg.sup_norm(r_u.values) <= 1e-12
        assert tg.sup_norm(r_m.values) <= 1e-12

    def test_one_builder_serves_the_kernel_coupling(self):
        grid = tg.GridSpec(dim=1, nx=32, nt=8, horizon=1.0)
        spec = ham.separable_quadratic(grid, 1.0)
        nc = solver.NonlocalCoupling(
            f=cpl.gaussian_kernel_coupling(grid, 0.1),
            g=cpl.gaussian_kernel_coupling(grid, 0.1))
        problem, exact = diag.make_manufactured(grid, spec, nc)
        assert problem.uT is None
        r_u, r_m = solver.residual(problem, exact)
        assert max(tg.sup_norm(r_u.values), tg.sup_norm(r_m.values)) <= 1e-12
        named, _ = diag.make_manufactured_nonlocal(grid, spec, nc)
        assert problem.s_u.values.tobytes() == named.s_u.values.tobytes()
        assert problem.s_m.values.tobytes() == named.s_m.values.tobytes()


class TestPerturbation:
    GRID = tg.GridSpec(dim=1, nx=32, nt=8, horizon=1.0)

    def test_respects_boundary_rows_and_mass(self):
        du, dm = diag.basin_perturbation(self.GRID, 1e-2)
        assert np.all(du[-1] == 0.0)   # vanishes at t = T
        assert np.all(dm[0] == 0.0)    # vanishes at t = 0
        np.testing.assert_allclose(dm.sum(axis=1), 0.0, atol=1e-14)

    def test_scales_linearly(self):
        du1, dm1 = diag.basin_perturbation(self.GRID, 1e-2)
        du2, dm2 = diag.basin_perturbation(self.GRID, 2e-2)
        np.testing.assert_allclose(du2, 2 * du1)
        np.testing.assert_allclose(dm2, 2 * dm1)


class TestRandomSmoothData:
    def test_unit_combined_norm(self):
        grid = tg.GridSpec(dim=1, nx=32, nt=8, horizon=1.0)
        a, b = diag.random_smooth_data(grid, seed=4)
        total = tg.sup_norm(a.values) + float(
            np.sqrt((b.components**2).sum(axis=0)).max())
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_same_seed_same_function_across_grids(self):
        # same seed samples the same continuum function; only the unit-norm
        # scaling differs (the sup is taken over each grid's own nodes)
        coarse = tg.GridSpec(dim=1, nx=16, nt=4, horizon=1.0)
        fine = tg.GridSpec(dim=1, nx=32, nt=8, horizon=1.0)
        a_c, _ = diag.random_smooth_data(coarse, seed=10)
        a_f, _ = diag.random_smooth_data(fine, seed=10)
        u = a_c.values[0] / np.abs(a_c.values[0]).max()
        w = a_f.values[0][::2] / np.abs(a_f.values[0][::2]).max()
        np.testing.assert_allclose(u, w, atol=1e-12)


class TestHistoryCsv:
    def test_write_with_fit_comment(self, tmp_path):
        rec = diag.IterationRecord(
            iter=0, res_u_sup=1.0, res_m_sup=0.5, err_c10_u=None, err_c0_m=None,
            err_sum=None, mass_min=1.0, mass_max=1.0, wall_ms=0.0)
        fit = diag.RateFit(order=2.0, log_constant=0.0, points_used=3,
                           residual=0.0, floor_index=None)
        path = tmp_path / "history.csv"
        diag.write_history_csv([rec], path, fit=fit)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("iter,res_u_sup,res_m_sup")
        assert lines[1] == "0,1,0.5,,,,1,1,0"
        assert lines[2].startswith("# fit: q=2 c=1 n=3")
