"""Manufactured problems, error norms against references, and rate fitting.

The manufactured construction picks smooth closed-form fields, samples them,
and defines the problem's source terms as the discrete residual of those
samples, so the sampled fields are an exact root of the discrete system and
error norms measure distance to a known solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import InsufficientDataError
from .torus_grid import Field, GridSpec, VectorField, grad_sup_norm, sup_norm

MANUFACTURED_U_AMPLITUDE = 0.3
MANUFACTURED_M_AMPLITUDE = 0.3
KMAX = 3  # highest spatial mode of random_smooth_data


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration snapshot of a Newton or fixed-point solve.

    Error norms are present only when the solve was given a reference state;
    ``err_c10_u`` is the C^{1,0} norm of u - u_ref and ``err_c0_m`` the sup
    norm of m - m_ref.
    """

    iter: int
    res_u_sup: float
    res_m_sup: float
    err_c10_u: float | None
    err_c0_m: float | None
    err_sum: float | None
    mass_min: float
    mass_max: float
    wall_ms: float


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log e_{n+1} = q log e_n + log c."""

    order: float
    log_constant: float
    points_used: int
    residual: float
    floor_index: int | None

    @property
    def constant(self) -> float:
        return math.exp(self.log_constant)


def fit_rate(errors, floor: float = 0.0) -> RateFit:
    """Fit the convergence order of a non-negative error sequence.

    Only consecutive pairs with both entries strictly above ``floor`` and 0
    enter the fit; entries at the numerical floor would bias the order downward.
    """
    e = np.asarray(list(errors), dtype=float)
    if np.any(e < 0):
        raise ValueError("error sequence must be non-negative")
    above = e > max(floor, 0.0)  # an exact 0.0 (a start on the root) lies at any floor
    pair_ok = above[:-1] & above[1:]
    n_pairs = int(pair_ok.sum())
    if n_pairs < 2:
        raise InsufficientDataError(
            f"need >= 3 usable entries above floor {floor:.3e}, "
            f"got {n_pairs + 1 if n_pairs else int(above.sum())}"
        )
    x = np.log(e[:-1][pair_ok])
    y = np.log(e[1:][pair_ok])
    q, logc = np.polyfit(x, y, 1)
    resid = float(np.sum((y - (q * x + logc)) ** 2))
    used = int(np.union1d(np.flatnonzero(pair_ok), np.flatnonzero(pair_ok) + 1).size)
    below = np.flatnonzero(~above)
    floor_index = int(below[0]) if below.size else None
    return RateFit(float(q), float(logc), used, resid, floor_index)


def error_norms(u_vals: np.ndarray, m_vals: np.ndarray, ref_u: np.ndarray,
                ref_m: np.ndarray, grid: GridSpec) -> tuple[float, float]:
    """(C^{1,0} error of u, C^0 error of m) against a reference."""
    dv = u_vals - ref_u
    err_u = sup_norm(dv) + grad_sup_norm(dv, grid)
    err_m = sup_norm(m_vals - ref_m)
    return err_u, err_m


def _axis_profiles(grid: GridSpec, trig) -> np.ndarray:
    """Product of trig(2 pi x_a) over the spatial axes, shape spatial_shape."""
    x = grid.x_nodes()
    out = trig(2.0 * np.pi * x[0])
    for a in range(1, grid.dim):
        out = out * trig(2.0 * np.pi * x[a])
    return out


def manufactured_fields(grid: GridSpec, u_offset: float = 0.0):
    """Closed-form (u*, m*) samples used by the manufactured problems.

    u* = A cos-profile * (T-t)/T + u_offset,  m* = 1 + B sin-profile * (1-t/T).
    The sin profile sums to zero on the uniform grid, so every slice of m*
    has unit mass, and min m* = 1 - B > 0.
    """
    T = grid.horizon
    t = grid.t_nodes().reshape((-1,) + (1,) * grid.dim)
    cosx = _axis_profiles(grid, np.cos)
    sinx = _axis_profiles(grid, np.sin)
    u_vals = MANUFACTURED_U_AMPLITUDE * cosx * (T - t) / T + u_offset
    m_vals = 1.0 + MANUFACTURED_M_AMPLITUDE * sinx * (1.0 - t / T)
    return u_vals, m_vals


def make_manufactured(grid: GridSpec, h_spec, coupling):
    """Manufactured problem and its exact discrete root.

    Returns (ProblemSpec, exact SolverState); the problem's sources are the
    discrete residual of the sampled fields, so residual(problem, exact) is
    identically zero.  A coupling that derives u(T) = g[m(T)] takes no uT:
    m*(T) is uniform and the kernels have unit discrete mass, so shifting u*
    by the constant 1 makes that terminal condition hold exactly.
    """
    from . import mfg_solver

    derived = coupling.derives_terminal
    u_vals, m_vals = manufactured_fields(grid, u_offset=1.0 if derived else 0.0)
    problem = partial(mfg_solver.ProblemSpec, grid=grid, hamiltonian=h_spec,
                      coupling=coupling, m0=m_vals[0], uT=None if derived else u_vals[-1])
    exact = mfg_solver.SolverState(u=Field(grid, u_vals), m=Field(grid, m_vals))
    r_u, r_m = mfg_solver.residual(problem(), exact)
    if sup_norm(r_u.values[-1]) > 1e-12:
        raise AssertionError("manufactured terminal condition not exact")
    return problem(s_u=Field(grid, r_u.values), s_m=Field(grid, r_m.values)), exact


make_manufactured_nonlocal = make_manufactured  # kept for callers of the kernel-specific name


def basin_perturbation(grid: GridSpec, eps: float):
    """Smooth mass-neutral perturbation (du, dm) for basin experiments.

    du = eps cos-profile (T - t) vanishes at t = T, dm = eps sin-profile t/T
    vanishes at t = 0; both respect the boundary rows and dm has zero slice
    mass, so perturbed states remain admissible initial guesses.
    """
    T = grid.horizon
    t = grid.t_nodes().reshape((-1,) + (1,) * grid.dim)
    cosx = _axis_profiles(grid, np.cos)
    sinx = _axis_profiles(grid, np.sin)
    du = eps * cosx * (T - t)
    dm = eps * sinx * (t / T)
    return du, dm


def perturbed_state(exact, eps: float):
    """Exact state plus the standard basin perturbation of amplitude eps."""
    from . import mfg_solver

    grid = exact.u.grid
    du, dm = basin_perturbation(grid, eps)
    return mfg_solver.SolverState(
        u=Field(grid, exact.u.values + du),
        m=Field(grid, exact.m.values + dm),
    )


def random_smooth_data(grid: GridSpec, seed: int):
    """Seeded random smooth (a, b) pair with ||a||_C0 + ||b||_C0 = 1.

    Coefficients of modes 1..KMAX of a trigonometric polynomial (with an affine
    time profile) are drawn once from the seed, independent of the resolution,
    so the same seed denotes the same continuum functions on every grid.
    """
    rng = np.random.default_rng(seed)
    n_coeff = 2 * KMAX * 2  # (cos,sin) x mode x time profile
    coeffs_a = rng.standard_normal(n_coeff)
    coeffs_b = rng.standard_normal((grid.dim, n_coeff))

    T = grid.horizon
    t = grid.t_nodes().reshape((-1,) + (1,) * grid.dim)
    x1 = grid.x_nodes()[0]
    profiles = []
    for k in range(1, KMAX + 1):
        for trig in (np.cos, np.sin):
            base = trig(2.0 * np.pi * k * x1)
            profiles.append(base * np.ones_like(t))
            profiles.append(base * (t / T))
    stack = np.stack(profiles)  # (n_coeff, nt+1, *spatial)

    a_vals = np.tensordot(coeffs_a, stack, axes=(0, 0))
    b_vals = np.tensordot(coeffs_b, stack, axes=(1, 0))
    scale = sup_norm(a_vals) + float(np.sqrt((b_vals * b_vals).sum(axis=0)).max())
    a_vals /= scale
    b_vals /= scale
    return Field(grid, a_vals), VectorField(grid, b_vals)


def write_history_csv(history, path, fit: RateFit | None = None) -> None:
    """Iteration records as CSV, one column per ``IterationRecord`` field,
    optionally with a trailing fit comment."""
    names = [f.name for f in fields(IterationRecord)]

    def _fmt(v):
        return "" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)

    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for r in history:
            fh.write(",".join(_fmt(getattr(r, name)) for name in names) + "\n")
        if fit is not None:
            fh.write(f"# fit: q={fit.order:.17g} c={fit.constant:.17g} n={fit.points_used}\n")
