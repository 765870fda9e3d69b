import numpy as np
import pytest

from mfg_newton import torus_grid as tg


def field_1d(nx, fn, nt=2, horizon=1.0):
    grid = tg.GridSpec(dim=1, nx=nx, nt=nt, horizon=horizon)
    x = grid.x_nodes()[0]
    vals = np.tile(fn(x), (nt + 1, 1))
    return grid, tg.Field(grid, vals)


class TestGridSpec:
    def test_derived_quantities(self):
        grid = tg.GridSpec(dim=2, nx=8, nt=4, horizon=2.0)
        assert grid.dx == 0.125
        assert grid.dt == 0.5
        assert grid.n_space == 64
        assert grid.spatial_shape == (8, 8)
        assert grid.cell_volume == 0.125**2

    @pytest.mark.parametrize("kwargs", [
        dict(dim=3, nx=8, nt=4, horizon=1.0),
        dict(dim=1, nx=2, nt=4, horizon=1.0),
        dict(dim=1, nx=8, nt=1, horizon=1.0),
        dict(dim=1, nx=8, nt=4, horizon=0.0),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            tg.GridSpec(**kwargs)


class TestField:
    def test_shape_checked(self):
        grid = tg.GridSpec(dim=1, nx=8, nt=2, horizon=1.0)
        with pytest.raises(ValueError):
            tg.Field(grid, np.zeros((2, 8)))

    def test_nonfinite_rejected(self):
        grid = tg.GridSpec(dim=1, nx=8, nt=2, horizon=1.0)
        vals = np.zeros((3, 8))
        vals[1, 3] = np.nan
        with pytest.raises(ValueError):
            tg.Field(grid, vals)

    def test_values_frozen_and_copied(self):
        grid = tg.GridSpec(dim=1, nx=8, nt=2, horizon=1.0)
        src = np.ones((3, 8))
        f = tg.Field(grid, src)
        src[0, 0] = 5.0
        assert f.values[0, 0] == 1.0
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0

    def test_vector_field_component_count(self):
        grid = tg.GridSpec(dim=2, nx=8, nt=2, horizon=1.0)
        with pytest.raises(ValueError):
            tg.VectorField(grid, np.zeros((1, 3, 8, 8)))
        tg.VectorField(grid, np.zeros((2, 3, 8, 8)))


class TestGradient:
    def test_constant_is_zero(self):
        grid, f = field_1d(16, lambda x: np.full_like(x, 3.7))
        assert np.all(tg.gradient(f, 0) == 0.0)

    def test_sin_refinement_sweep(self):
        # centered-difference truncation constant for sin(2 pi x): |f'''|/6
        c_bound = (2 * np.pi) ** 3 / 6 * 1.01
        errs = []
        for nx in (16, 32, 64):
            grid, f = field_1d(nx, lambda x: np.sin(2 * np.pi * x))
            x = grid.x_nodes()[0]
            err = np.abs(tg.gradient(f, 0)[0] - 2 * np.pi * np.cos(2 * np.pi * x)).max()
            assert err <= c_bound * grid.dx**2
            errs.append(err)
        assert errs[0] / errs[1] >= 3.8
        assert errs[1] / errs[2] >= 3.8

    def test_cos4pi_nx8_hand_table(self):
        # hand evaluation of the 3-point stencil: with dx = 1/8 the stencil
        # returns -sin(4 pi x_i) * sin(4 pi dx)/dx = -8 sin(pi i / 2)
        grid, f = field_1d(8, lambda x: np.cos(4 * np.pi * x))
        expected = np.array([0.0, -8.0, 0.0, 8.0, 0.0, -8.0, 0.0, 8.0])
        np.testing.assert_allclose(tg.gradient(f, 0)[0], expected, atol=1e-12)

    def test_2d_components(self):
        grid = tg.GridSpec(dim=2, nx=32, nt=2, horizon=1.0)
        x = grid.x_nodes()
        vals = np.tile(np.sin(2 * np.pi * x[0]) * np.cos(2 * np.pi * x[1]), (3, 1, 1))
        f = tg.Field(grid, vals)
        g = tg.gradient(f, 1)
        assert g.shape == (2, 32, 32)
        np.testing.assert_allclose(
            g[0], 2 * np.pi * np.cos(2 * np.pi * x[0]) * np.cos(2 * np.pi * x[1]),
            atol=0.05)
        np.testing.assert_allclose(
            g[1], -2 * np.pi * np.sin(2 * np.pi * x[0]) * np.sin(2 * np.pi * x[1]),
            atol=0.05)


class TestDivergence:
    def test_constant_is_zero(self):
        grid = tg.GridSpec(dim=1, nx=16, nt=2, horizon=1.0)
        F = tg.VectorField(grid, np.full((1, 3, 16), 2.5))
        assert np.all(tg.divergence(F, 0) == 0.0)

    @pytest.mark.parametrize("dim,nx", [(1, 16), (2, 8)])
    def test_exact_adjointness(self, dim, nx):
        grid = tg.GridSpec(dim=dim, nx=nx, nt=2, horizon=1.0)
        rng = np.random.default_rng(42)
        shape = (3,) + grid.spatial_shape
        f = tg.Field(grid, rng.standard_normal(shape))
        F = tg.VectorField(grid, rng.standard_normal((dim,) + shape))
        lhs = float(np.sum(tg.divergence(F, 1) * f.values[1]))
        rhs = float(np.sum(F.components[:, 1] * tg.gradient(f, 1)))
        assert abs(lhs + rhs) <= 1e-13 * max(abs(lhs), 1.0)

    def test_sin_second_order(self):
        errs = []
        for nx in (16, 32, 64):
            grid = tg.GridSpec(dim=1, nx=nx, nt=2, horizon=1.0)
            x = grid.x_nodes()[0]
            F = tg.VectorField(grid, np.tile(np.sin(2 * np.pi * x), (1, 3, 1)))
            err = np.abs(tg.divergence(F, 0) - 2 * np.pi * np.cos(2 * np.pi * x)).max()
            errs.append(err)
        assert errs[0] / errs[1] >= 3.8 and errs[1] / errs[2] >= 3.8

    def test_divergence_has_zero_mass(self):
        grid = tg.GridSpec(dim=2, nx=8, nt=2, horizon=1.0)
        rng = np.random.default_rng(3)
        F = tg.VectorField(grid, rng.standard_normal((2, 3, 8, 8)))
        for k in range(3):
            assert abs(tg.divergence(F, k).sum()) <= 1e-13


class TestLaplacian:
    def test_constant_is_zero(self):
        grid, f = field_1d(16, lambda x: np.full_like(x, -1.25))
        assert np.all(tg.laplacian(f, 0) == 0.0)

    def test_sin_second_order(self):
        c_bound = (2 * np.pi) ** 4 / 12 * 1.01
        errs = []
        for nx in (16, 32, 64):
            grid, f = field_1d(nx, lambda x: np.sin(2 * np.pi * x))
            x = grid.x_nodes()[0]
            err = np.abs(tg.laplacian(f, 0) + 4 * np.pi**2 * np.sin(2 * np.pi * x)).max()
            assert err <= c_bound * grid.dx**2
            errs.append(err)
        assert errs[0] / errs[1] >= 3.8 and errs[1] / errs[2] >= 3.8

    def test_compact_vs_wide_stencil_discrepancy(self):
        # the compact stencil is used; the wide one (div of gradient) differs
        # on sin(2 pi x) by the hand-computed factor below at nx=16
        nx = 16
        grid, f = field_1d(nx, lambda x: np.sin(2 * np.pi * x))
        x = grid.x_nodes()[0]
        dx = grid.dx
        compact = tg.laplacian(f, 0)
        wide = tg.div_array(tg.gradient(f, 0), grid)
        factor_compact = (2 * np.cos(2 * np.pi * dx) - 2) / dx**2
        factor_wide = (2 * np.cos(4 * np.pi * dx) - 2) / (4 * dx**2)
        np.testing.assert_allclose(compact, factor_compact * np.sin(2 * np.pi * x), atol=1e-11)
        np.testing.assert_allclose(wide, factor_wide * np.sin(2 * np.pi * x), atol=1e-11)
        gap = np.abs(compact - wide).max()
        expected_gap = abs(factor_compact - factor_wide)  # ~1.48 at nx=16
        assert gap == pytest.approx(expected_gap, rel=1e-10)
        assert expected_gap > 1.0


class TestNorms:
    def test_unit_field(self):
        grid, f = field_1d(16, lambda x: np.ones_like(x))
        assert tg.sup_norm(f.values) == 1.0
        assert tg.sup_norm(f.values) + tg.grad_sup_norm(f.values, grid) == 1.0
        np.testing.assert_allclose(tg.slice_masses(f.values, grid), 1.0, atol=1e-14)

    def test_sine_mass_cancels(self):
        grid, f = field_1d(32, lambda x: np.sin(2 * np.pi * x))
        assert tg.sup_norm(f.values) == pytest.approx(1.0, abs=1e-12)  # node at x = 1/4
        assert np.abs(tg.slice_masses(f.values, grid)).max() <= 1e-13

    def test_cosine_c10_direct_stencil(self):
        nx = 32
        grid, f = field_1d(nx, lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x))
        x = grid.x_nodes()[0]
        dx = grid.dx
        # direct evaluation of the centered stencil on 0.5 cos(2 pi x)
        stencil = 0.5 * (np.cos(2 * np.pi * (x + dx)) - np.cos(2 * np.pi * (x - dx))) / (2 * dx)
        expected_c10 = 1.5 + np.abs(stencil).max()
        c0 = tg.sup_norm(f.values)
        assert c0 == pytest.approx(1.5, abs=1e-14)
        assert c0 + tg.grad_sup_norm(f.values, grid) == pytest.approx(expected_c10, rel=1e-13)

    def test_pair_norm_uses_v_for_gradient(self):
        # the (density, value) error pair: sup of rho plus C^1 norm of v
        grid, rho = field_1d(16, lambda x: np.sin(2 * np.pi * x))
        _, v = field_1d(16, lambda x: np.full_like(x, 2.0))
        assert tg.sup_norm(rho.values) == pytest.approx(1.0, abs=1e-12)
        assert tg.grad_sup_norm(v.values, grid) == 0.0  # constant v has zero gradient
        assert tg.sup_norm(v.values) + tg.grad_sup_norm(v.values, grid) == pytest.approx(2.0)


class TestFieldCsv:
    def test_1d_format(self, tmp_path):
        grid = tg.GridSpec(dim=1, nx=4, nt=2, horizon=1.0)
        f = tg.Field(grid, np.arange(12, dtype=float).reshape(3, 4))
        path = tmp_path / "f.csv"
        tg.write_field_csv(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,t,i,value"
        assert len(lines) == 1 + 12
        assert lines[1] == "0,0,0,0"
        assert lines[-1] == "2,1,3,11"

    def test_2d_has_j_column(self, tmp_path):
        grid = tg.GridSpec(dim=2, nx=4, nt=2, horizon=0.5)
        f = tg.Field(grid, np.zeros((3, 4, 4)))
        path = tmp_path / "f.csv"
        tg.write_field_csv(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,t,i,j,value"
        assert len(lines) == 1 + 3 * 16

    def test_values_round_trip_at_full_precision(self, tmp_path):
        grid = tg.GridSpec(dim=1, nx=8, nt=2, horizon=1.0)
        rng = np.random.default_rng(6)
        vals = rng.standard_normal((3, 8))
        f = tg.Field(grid, vals)
        path = tmp_path / "f.csv"
        tg.write_field_csv(f, path)
        parsed = [float(line.rsplit(",", 1)[1])
                  for line in path.read_text().splitlines()[1:]]
        np.testing.assert_array_equal(np.array(parsed).reshape(3, 8), vals)
