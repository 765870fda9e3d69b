"""Why acceptance criteria 1 and 3 fit q above the window [1.7, 2.3].

At the criteria's own setup (1D 64x64, ``perturbed_state(exact, 1e-2)``,
error ``err_c10_u + err_c0_m``) one Newton step from ``exact + a d/|d|``
leaves an error ``K(d) a^2``: the order along every fixed direction d is
exactly 2, but the constant ``K(d)`` depends on the direction.  Iterate k
lies in direction ``d_k`` at amplitude ``e_k``, so ``e_{k+1} = K(d_k) e_k^2``.
The constant drops between the start's direction d0 and d1, and for the
criteria's two-pair fit ``q - 2 = log(K(d1)/K(d0)) / log(e1/e0)`` holds
identically: the drop is the whole excess of q over 2.
"""

import numpy as np
import pytest

from mfg_newton import coupling as cpl
from mfg_newton import diagnostics as diag
from mfg_newton import hamiltonian as ham
from mfg_newton import mfg_solver as solver
from mfg_newton import torus_grid as tg

AMPLITUDES = (1e-2, 1e-3, 1e-4)
STEP = solver.NewtonConfig()


def size(grid, du, dm):
    """The criteria's error norm of the direction (du, dm)."""
    return sum(diag.error_norms(du, dm, 0.0, 0.0, grid))


def constant(problem, exact, direction, amplitude):
    """K(d): the error after one Newton step from exact + amplitude d/|d|,
    divided by amplitude^2."""
    grid = problem.grid
    du, dm = direction
    scale = amplitude / size(grid, du, dm)
    start = solver.make_state(grid, exact.u.values + scale * du,
                              exact.m.values + scale * dm)
    nxt, _ = solver.newton_step(problem, start, STEP)
    return size(grid, nxt.u.values - exact.u.values,
                nxt.m.values - exact.m.values) / amplitude**2


@pytest.fixture(scope="module", params=["local", "kernel"])
def newton_run(request):
    """The criterion's problem, and the error direction d_k and error e_k of
    its Newton iterates k = 0..2."""
    grid = tg.GridSpec(dim=1, nx=64, nt=64, horizon=1.0)
    if request.param == "local":
        problem, exact = diag.make_manufactured(
            grid, ham.congestion(grid, 1.0, alpha=1.0), cpl.LocalCoupling("sigmoid"))
    else:
        kernel = cpl.gaussian_kernel_coupling(grid, 0.1)
        problem, exact = diag.make_manufactured_nonlocal(
            grid, ham.separable_quadratic(grid, 1.0), cpl.NonlocalCoupling(f=kernel, g=kernel))
    state = diag.perturbed_state(exact, 1e-2)
    directions, errors = [], []
    for _ in range(3):
        d = (state.u.values - exact.u.values, state.m.values - exact.m.values)
        directions.append(d)
        errors.append(size(grid, *d))
        state, _ = solver.newton_step(problem, state, STEP)
    return problem, exact, directions, errors


def test_fixed_direction_is_exactly_quadratic(newton_run):
    problem, exact, directions, _ = newton_run
    ks = [constant(problem, exact, directions[0], a) for a in AMPLITUDES]
    assert max(ks) / min(ks) - 1.0 <= 1e-3, ks


@pytest.mark.parametrize("k", [0, 1])
def test_step_constant_is_its_direction_constant(newton_run, k):
    problem, exact, directions, errors = newton_run
    observed = errors[k + 1] / errors[k] ** 2
    # observed is K(d_k) at amplitude e_k; the kernel's e0 = 8.3e-2 puts it
    # 9.9e-4 from K(d0) at 1e-4, the widest gap here
    for a in AMPLITUDES:
        assert constant(problem, exact, directions[k], a) == pytest.approx(observed, rel=1e-3)


def test_direction_constants_give_the_fitted_order(newton_run):
    problem, exact, directions, errors = newton_run
    k0, k1 = (constant(problem, exact, d, 1e-3) for d in directions[:2])
    q = diag.fit_rate(errors, floor=1e-10).order
    assert q == pytest.approx(2.0 + np.log(k1 / k0) / np.log(errors[1] / errors[0]), abs=1e-3)
