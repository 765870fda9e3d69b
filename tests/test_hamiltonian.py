import numpy as np
import pytest

from mfg_newton import hamiltonian as ham
from mfg_newton import torus_grid as tg
from mfg_newton.errors import DomainError

GRID_1D = tg.GridSpec(dim=1, nx=8, nt=2, horizon=1.0)
GRID_2D = tg.GridSpec(dim=2, nx=8, nt=2, horizon=1.0)


class TestEvalBundle:
    def test_hand_evaluated_congestion_point(self):
        # h=1, alpha=1, m=1, p=2: every entry from the closed forms
        spec = ham.congestion(GRID_1D, 1.0, alpha=1.0)
        b = ham.eval_bundle_arrays(spec, 1.0, 1.0, [2.0])
        assert b.H == pytest.approx(2.0)
        np.testing.assert_allclose(b.Hp, [2.0])
        assert b.Hm == pytest.approx(-1.0)
        np.testing.assert_allclose(b.Hpp, [[1.0]])
        np.testing.assert_allclose(b.Hpm, [-1.0])

    def test_zero_momentum_annihilates_m_derivatives(self):
        spec = ham.congestion(GRID_1D, 2.0, alpha=1.5)
        b = ham.eval_bundle_arrays(spec, 2.0, 0.8, [0.0])
        assert b.H == 0.0 and b.Hm == 0.0
        assert np.all(b.Hp == 0.0) and np.all(b.Hpm == 0.0)
        np.testing.assert_allclose(b.Hpp, [[2 * 2.0 / 1.8**1.5]])

    def test_separable_quadratic(self):
        spec = ham.separable_quadratic(GRID_1D, 0.5)
        b = ham.eval_bundle_arrays(spec, 0.5, 123.0, [3.0])
        assert b.H == pytest.approx(4.5)
        np.testing.assert_allclose(b.Hp, [3.0])
        assert b.Hm == 0.0
        assert np.all(b.Hpm == 0.0)

    def test_below_floor_raises(self):
        spec = ham.congestion(GRID_1D, 1.0, alpha=1.0)
        with pytest.raises(DomainError):
            ham.eval_bundle_arrays(spec, 1.0, -0.5, [1.0])
        with pytest.raises(DomainError):
            ham.eval_bundle_arrays(spec, 1.0, -0.75, [1.0])

    def test_hpp_symmetric_2d(self):
        # H_pp = Hpp I, symmetric by construction: Hpp is one scalar per point
        spec = ham.congestion(GRID_2D, 1.3, alpha=2.0)
        b = ham.eval_bundle_arrays(spec, 1.3, np.array([0.7, 0.2]),
                                   np.array([[1.0, 0.5], [-2.0, 0.0]]))
        assert b.Hpp.shape == (2,)
        np.testing.assert_allclose(b.Hpp, 2 * 1.3 / np.array([1.7, 1.2]) ** 2)

    def test_spatial_coefficient_lookup(self):
        # hessian_condition reads h at its node: node 4 is x = 1/2, h = 0.5
        x = GRID_1D.x_nodes()[0]
        spec = ham.congestion(GRID_1D, 1.0 + 0.5 * np.cos(2 * np.pi * x), alpha=1.0)
        half = ham.congestion(GRID_1D, 0.5, alpha=1.0)
        assert ham.hessian_condition(spec, 4, 1.0, [1.0]) == \
            pytest.approx(ham.hessian_condition(half, 0, 1.0, [1.0]))

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            ham.congestion(GRID_1D, 0.0, alpha=1.0)

    @pytest.mark.parametrize("variant, alpha, match", [
        ("quartic", 1.0, "unknown Hamiltonian variant 'quartic'"),
        (ham.CONGESTION, 0.0, "alpha must be positive, got 0.0"),
    ])
    def test_invalid_spec_rejected(self, variant, alpha, match):
        with pytest.raises(ValueError, match=match):
            ham.HamiltonianSpec(variant, GRID_1D, 1.0, alpha)


class TestDerivativeConsistency:
    # Chain of central-difference checks: H -> (Hp, Hm) -> (Hpp, Hpm).
    # Second differences of H itself cannot reach 1e-6 relative accuracy in
    # double precision, so the second layer differences the exact first
    # derivatives instead.
    STEP = 1e-5

    @pytest.mark.parametrize("dim,grid", [(1, GRID_1D), (2, GRID_2D)])
    def test_bundle_matches_finite_differences(self, dim, grid):
        spec = ham.congestion(grid, 1.2, alpha=1.7)
        rng = np.random.default_rng(11)
        h = self.STEP
        for _ in range(100):
            m = rng.uniform(0.1, 3.0)
            direction = rng.standard_normal(dim)
            p = rng.uniform(0.0, 3.0) * direction / np.linalg.norm(direction)
            b = ham.eval_bundle_arrays(spec, 1.2, m, p)

            def bundle(mm, pp):
                return ham.eval_bundle_arrays(spec, 1.2, mm, pp)

            hm_fd = (bundle(m + h, p).H - bundle(m - h, p).H) / (2 * h)
            assert hm_fd == pytest.approx(b.Hm, rel=1e-6, abs=1e-9)
            for a in range(dim):
                e = np.zeros(dim)
                e[a] = h
                hp_fd = (bundle(m, p + e).H - bundle(m, p - e).H) / (2 * h)
                assert hp_fd == pytest.approx(b.Hp[a], rel=1e-6, abs=1e-9)
                hpm_fd = (bundle(m + h, p).Hp[a] - bundle(m - h, p).Hp[a]) / (2 * h)
                assert hpm_fd == pytest.approx(b.Hpm[a], rel=1e-6, abs=1e-9)
                # cross check the same entry as a p-derivative of Hm
                hmp_fd = (bundle(m, p + e).Hm - bundle(m, p - e).Hm) / (2 * h)
                assert hmp_fd == pytest.approx(b.Hpm[a], rel=1e-6, abs=1e-9)
                for c in range(dim):
                    ec = np.zeros(dim)
                    ec[c] = h
                    hpp_fd = (bundle(m, p + ec).Hp[a] - bundle(m, p - ec).Hp[a]) / (2 * h)
                    assert hpp_fd == pytest.approx(b.Hpp * (a == c), rel=1e-6, abs=1e-9)


class TestHessianCondition:
    def test_hand_evaluated_2x2(self):
        # h=1, alpha=2, m=1, p=1: matrix [[0.25, -0.25], [-0.25, 0.5]]
        spec = ham.congestion(GRID_1D, 1.0, alpha=2.0)
        rep = ham.hessian_condition(spec, 0, 1.0, [1.0])
        expected_min = (0.75 - np.sqrt(0.0625 * 4 + 0.0625)) / 2
        assert rep.min_eigenvalue == pytest.approx(expected_min, rel=1e-12)
        assert rep.satisfied and not rep.degenerate

    def test_alpha3_m3_not_positive(self):
        # determinant sign follows 2(1+m) - alpha m = 8 - 9 < 0
        spec = ham.congestion(GRID_1D, 1.0, alpha=3.0)
        rep = ham.hessian_condition(spec, 0, 3.0, [1.0])
        assert rep.min_eigenvalue < 0 and not rep.satisfied

    def test_zero_momentum_degenerate(self):
        spec = ham.congestion(GRID_1D, 1.0, alpha=1.0)
        rep = ham.hessian_condition(spec, 0, 1.0, [0.0])
        assert rep.min_eigenvalue == 0.0
        assert not rep.satisfied and rep.degenerate

    def test_requires_positive_density(self):
        spec = ham.congestion(GRID_1D, 1.0, alpha=1.0)
        with pytest.raises(DomainError):
            ham.hessian_condition(spec, 0, 0.0, [1.0])

    def test_momentum_of_the_wrong_length_rejected(self):
        spec = ham.congestion(GRID_1D, 1.0, alpha=1.0)
        with pytest.raises(ValueError, match="p must have 1 components"):
            ham.hessian_condition(spec, 0, 1.0, [1.0, 2.0])

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("m", [0.1, 1.0, 10.0, 100.0])
    def test_sign_pattern_1d(self, alpha, m):
        spec = ham.congestion(GRID_1D, 1.0, alpha=alpha)
        for p in (0.5, 1.0, 2.0):
            rep = ham.hessian_condition(spec, 0, m, [p])
            assert rep.satisfied == (2 * (1 + m) - alpha * m > 0)

    def test_sign_pattern_matches_in_2d(self):
        # the Schur complement reduces to the same scalar condition
        for alpha, m in [(1.0, 5.0), (2.5, 10.0), (3.0, 1.0), (3.0, 3.0)]:
            spec = ham.congestion(GRID_2D, 1.0, alpha=alpha)
            rep = ham.hessian_condition(spec, (0, 0), m, [1.0, 0.5])
            assert rep.satisfied == (2 * (1 + m) - alpha * m > 0)


class TestSweepCsv:
    def test_rows_written(self, tmp_path):
        rows = [(2.0, 1.0, 1.0, 0.095, True), (3.0, 3.0, 1.0, -0.01, False)]
        path = tmp_path / "sweep.csv"
        ham.write_hessian_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,m,p,min_eig,satisfied"
        assert lines[1].endswith("true")
        assert lines[2].endswith("false")
