import numpy as np
import pytest

from mfg_newton import coupling as cpl
from mfg_newton import torus_grid as tg
from mfg_newton.errors import DomainError

GRID = tg.GridSpec(dim=1, nx=32, nt=2, horizon=1.0)


class TestLocalEval:
    def test_sigmoid_at_zero(self):
        f, f1 = cpl.local_eval(cpl.LocalCoupling("sigmoid"), 0.0)
        assert f == pytest.approx(0.5)
        assert f1 == pytest.approx(0.25)

    def test_linear(self):
        f, f1 = cpl.local_eval(cpl.LocalCoupling("linear"), 2.5)
        assert (f, f1) == (2.5, 1.0)

    def test_power_hand_values(self):
        f, f1 = cpl.local_eval(cpl.LocalCoupling("power", alpha=2.0), 1.5)
        assert f == pytest.approx(2.25)
        assert f1 == pytest.approx(3.0)

    def test_zero(self):
        f, f1 = cpl.local_eval(cpl.LocalCoupling("zero"), 7.0)
        assert (f, f1) == (0.0, 0.0)

    def test_power_rejects_negative_density(self):
        with pytest.raises(DomainError):
            cpl.local_eval(cpl.LocalCoupling("power", alpha=2.0), -0.1)

    def test_power_requires_alpha_geq_2(self):
        with pytest.raises(ValueError):
            cpl.LocalCoupling("power", alpha=1.5)

    @pytest.mark.parametrize("variant,alpha", [
        ("sigmoid", 2.0), ("linear", 2.0), ("power", 2.5),
    ])
    def test_derivative_consistency(self, variant, alpha):
        c = cpl.LocalCoupling(variant, alpha=alpha)
        h = 1e-5
        for m in np.linspace(0.1, 3.0, 25):
            f1 = cpl.local_eval(c, m).f1
            fp = cpl.local_eval(c, m + h).f
            fm = cpl.local_eval(c, m - h).f
            assert (fp - fm) / (2 * h) == pytest.approx(f1, rel=1e-6, abs=1e-9)

    def test_sigmoid_monotone(self):
        c = cpl.LocalCoupling("sigmoid")
        m = np.linspace(-20, 20, 401)
        assert np.all(np.asarray(cpl.local_eval(c, m).f1) >= 0.0)


class TestKernel:
    def test_even_bitwise(self):
        k = cpl.periodized_gaussian(GRID, sigma=0.1)
        for i in range(1, GRID.nx):
            assert k[i] == k[GRID.nx - i]

    def test_unit_discrete_mass(self):
        k = cpl.periodized_gaussian(GRID, sigma=0.15)
        assert GRID.dx * k.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("sigma", [0.03, 0.1, 0.3])
    def test_fourier_coefficients_nonnegative(self, sigma):
        k = cpl.periodized_gaussian(GRID, sigma)
        coeffs = np.fft.rfft(k)
        assert np.abs(coeffs.imag).max() <= 1e-10 * np.abs(coeffs.real).max()
        assert coeffs.real.min() >= -1e-12

    def test_2d_kernel_is_product(self):
        grid2 = tg.GridSpec(dim=2, nx=8, nt=2, horizon=1.0)
        k2 = cpl.periodized_gaussian(grid2, sigma=0.2)
        k1 = cpl.periodized_gaussian(tg.GridSpec(dim=1, nx=8, nt=2, horizon=1.0), 0.2)
        np.testing.assert_allclose(k2, np.multiply.outer(k1, k1))

    def test_2d_convolution_against_direct_summation(self):
        grid2 = tg.GridSpec(dim=2, nx=6, nt=2, horizon=1.0)
        k = cpl.gaussian_kernel_coupling(grid2, 0.15)
        rng = np.random.default_rng(21)
        m = rng.uniform(0.1, 2.0, grid2.spatial_shape)
        values = k.values(m)
        n = grid2.nx
        expected = np.zeros_like(m)
        for i1 in range(n):
            for j1 in range(n):
                acc = 0.0
                for i2 in range(n):
                    for j2 in range(n):
                        acc += k.kernel[(i1 - i2) % n, (j1 - j2) % n] * m[i2, j2]
                expected[i1, j1] = acc * grid2.cell_volume
        np.testing.assert_allclose(values, expected, rtol=1e-12)


class TestNonlocalEval:
    def test_uniform_density_gives_kernel_mean(self):
        k = cpl.gaussian_kernel_coupling(GRID, 0.1)
        values = k.values(np.ones(GRID.nx))
        mean = GRID.dx * k.kernel.sum()
        np.testing.assert_allclose(values, mean, atol=1e-13)

    def test_unit_mass_spike_reproduces_kernel(self):
        k = cpl.gaussian_kernel_coupling(GRID, 0.08)
        j = 5
        m = np.zeros(GRID.nx)
        m[j] = 1.0 / GRID.dx  # discrete unit mass at node j
        values = k.values(m)
        # direct-summation oracle over the nx terms
        expected = np.empty(GRID.nx)
        for i in range(GRID.nx):
            acc = 0.0
            for y in range(GRID.nx):
                acc += GRID.dx * k.kernel[(i - y) % GRID.nx] * m[y]
            expected[i] = acc
        np.testing.assert_allclose(values, expected, rtol=1e-13)
        np.testing.assert_allclose(values, k.kernel[(np.arange(GRID.nx) - j) % GRID.nx],
                                   rtol=1e-12)

    def test_monotonicity_on_random_equal_mass_pairs(self):
        k = cpl.gaussian_kernel_coupling(GRID, 0.1)
        rng = np.random.default_rng(5)
        for _ in range(50):
            m1 = rng.uniform(0.2, 2.0, GRID.nx)
            m2 = rng.uniform(0.2, 2.0, GRID.nx)
            m1 /= GRID.dx * m1.sum()
            m2 /= GRID.dx * m2.sum()
            diff = m1 - m2
            pairing = GRID.dx * float((k.values(m1) - k.values(m2)).ravel() @ diff)
            assert pairing >= -1e-12

    def test_linear_in_density(self):
        k = cpl.gaussian_kernel_coupling(GRID, 0.1)
        rng = np.random.default_rng(9)
        m1 = rng.uniform(0.1, 1.0, GRID.nx)
        m2 = rng.uniform(0.1, 1.0, GRID.nx)
        lhs = k.values(0.3 * m1 + 1.7 * m2)
        rhs = 0.3 * k.values(m1) + 1.7 * k.values(m2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


class TestKernelCsv:
    def test_export(self, tmp_path):
        k = cpl.gaussian_kernel_coupling(GRID, 0.1)
        path = tmp_path / "kernel.csv"
        cpl.write_kernel_csv(k, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "node,value"
        assert len(lines) == 1 + GRID.nx
