"""Coupled value/density solver: residual, Newton steps, baselines, probes.

The system couples a backward Hamilton-Jacobi-Bellman equation for the value
function u with a forward Fokker-Planck equation for the density m on the
periodic space-time grid:

    -du/dt - lap u + H(x, m, Du) = f(m) + s_u        (rows k = 0..nt-1)
     dm/dt - lap m - div(m H_p(x, m, Du)) = s_m      (rows k = 1..nt)
     m(0) = m0,  u(T) = uT   (local coupling)
     m(0) = m0,  u(T) = g[m(T)]   (kernel coupling)

The discretization is fully implicit with every coefficient evaluated at the
same time node as the unknown it multiplies, so the assembled Jacobian of the
discrete residual is exactly the discrete linearized system; one solve of it
per iteration, by the block LU in time of ``sparse_linalg``, is a Newton step.

The Jacobian is assembled once per state on the full unknown vector
[u_0..u_nt, m_0..m_nt], both boundary rows included, each block family for
all time slices at once.  The local and kernel variants differ only in the
coupling's values and blocks, which ``coupling.py`` supplies through one
interface: a diagonal -f'(m), kept in the CSR, or dense blocks -conv_f and
-conv_g, kept out of it as addends to the slices' value-density blocks.
Before a solve, one boolean mask marks the known boundary slices, m(0)
always and u(T) unless the coupling derives it: their rows are identity rows,
so their values are known, and their columns times those values move to the
right-hand side.  Newton, the two inner solves of the fixed-point baseline
and the linearized stability probe all solve masked blocks of this matrix,
and ``_eliminate`` is their one way into the block LU: it drops the masked
rows and columns and tags each free unknown with its time slice.  The
probe's boundary data are zero, so its draws reuse one factor as they are.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import diagnostics as diag
from . import hamiltonian as ham
from . import sparse_linalg as sla
from . import torus_grid as tg
from .coupling import LocalCoupling, NonlocalCoupling
from .errors import DomainError, MaxIterExceededError, SolverError

MASS_TOL = 1e-8
MAX_INNER = 50  # Newton steps of the fixed-point baseline's inner value-function solve
STALL_STEPS = 3  # steps without a new best residual after which an iteration gives up


@dataclass(frozen=True)
class ProblemSpec:
    grid: tg.GridSpec
    hamiltonian: ham.HamiltonianSpec
    coupling: LocalCoupling | NonlocalCoupling
    m0: np.ndarray
    uT: np.ndarray | None = None
    s_u: tg.Field | None = None
    s_m: tg.Field | None = None

    def __post_init__(self):
        grid = self.grid
        if self.hamiltonian.grid != grid:
            raise ValueError("hamiltonian grid does not match problem grid")
        m0 = np.array(self.m0, dtype=float).reshape(grid.spatial_shape)
        if not np.all(m0 > 0):
            raise ValueError("m0 must be strictly positive on all nodes")
        mass = grid.cell_volume * m0.sum()
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"m0 mass {mass:.12g} != 1")
        m0.setflags(write=False)
        object.__setattr__(self, "m0", m0)
        if any(g != grid for g in self.coupling.grids):
            raise ValueError("coupling grid does not match problem grid")
        if self.coupling.derives_terminal:
            if self.uT is not None:
                raise ValueError("kernel-coupled problems derive u(T) from g[m(T)]")
        elif self.uT is None:
            raise ValueError("local problems need a terminal value uT")
        else:
            uT = np.array(self.uT, dtype=float).reshape(grid.spatial_shape)
            uT.setflags(write=False)
            object.__setattr__(self, "uT", uT)
        for name in ("s_u", "s_m"):
            f = getattr(self, name)
            if f is not None and f.grid != grid:
                raise ValueError(f"{name} grid does not match problem grid")


@dataclass(frozen=True)
class SolverState:
    u: tg.Field
    m: tg.Field

    def __post_init__(self):
        if self.u.grid != self.m.grid:
            raise ValueError("u and m must live on the same grid")

    @property
    def grid(self) -> tg.GridSpec:
        return self.u.grid


def make_state(grid: tg.GridSpec, u_vals, m_vals) -> SolverState:
    return SolverState(u=tg.Field(grid, u_vals), m=tg.Field(grid, m_vals))


@dataclass(frozen=True)
class NewtonConfig:
    max_iter: int = 30
    residual_tol: float = 1e-9
    error_floor: float = 1e-10
    linear_method: str = "direct"  # or "iterative": GMRES, to the same bound
    damping: float = 0.5  # fixed-point iteration only

    def __post_init__(self):
        if self.linear_method not in sla.METHODS:
            raise ValueError(f"linear_method must be one of {list(sla.METHODS)}")
        if not self.residual_tol > 0:
            raise ValueError("residual_tol must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


# -- residual -----------------------------------------------------------------

def _coupling_values(p: ProblemSpec, m_vals: np.ndarray):
    """The running cost on every time slice, and the terminal value u(T):
    the given uT, or the one the coupling derives from m(T)."""
    c = p.coupling
    return c.values(m_vals), c.terminal(m_vals[-1]) if c.derives_terminal else p.uT


def _source(f: tg.Field | None, shape) -> np.ndarray:
    return np.zeros(shape) if f is None else f.values


def _bundle(p: ProblemSpec, u_vals: np.ndarray, m_vals: np.ndarray):
    """Hamiltonian bundle on every node of the space-time grid."""
    du = tg.grad_array(u_vals, p.grid)
    return ham.eval_bundle_arrays(p.hamiltonian, p.hamiltonian.h, m_vals, du)


def _value_residual(p: ProblemSpec, u: np.ndarray, b: ham.HamiltonianBundle,
                    fvals: np.ndarray, u_T: np.ndarray) -> np.ndarray:
    """r_u: the backward equation on slices 0..nt-1, the terminal condition
    on slice nt, given the bundle ``b`` and the coupling values."""
    grid = p.grid
    nt = grid.nt
    r_u = np.empty_like(u)
    r_u[:nt] = (
        -(u[1:] - u[:-1]) / grid.dt
        - tg.lap_array(u, grid)[:nt]
        + b.H[:nt]
        - fvals[:nt]
        - _source(p.s_u, u.shape)[:nt]
    )
    r_u[nt] = u[nt] - u_T
    return r_u


def residual(p: ProblemSpec, s: SolverState) -> tuple[tg.Field, tg.Field]:
    """Discrete residual fields (r_u, r_m), boundary rows included.

    r_u carries the backward equation on slices 0..nt-1 and the terminal
    condition on slice nt; r_m carries the initial condition on slice 0 and
    the forward equation on slices 1..nt.  Raises DomainError naming a field
    that is not finite.
    """
    grid = p.grid
    u, m = s.u.values, s.m.values
    b = _bundle(p, u, m)
    r_u = _value_residual(p, u, b, *_coupling_values(p, m))

    r_m = np.empty_like(m)
    r_m[1:] = (
        (m[1:] - m[:-1]) / grid.dt
        - tg.lap_array(m, grid)[1:]
        - tg.div_array(m * b.Hp, grid)[1:]
        - _source(p.s_m, m.shape)[1:]
    )
    r_m[0] = m[0] - p.m0
    for name, r in (("r_u", r_u), ("r_m", r_m)):
        if not np.all(np.isfinite(r)):
            raise DomainError(f"residual {name} is not finite")
    return tg.Field(grid, r_u), tg.Field(grid, r_m)


# -- space-time Jacobian ---------------------------------------------------------

class _Stencils:
    """Stencils of one grid acting on all nt+1 stacked slices of a field."""

    def __init__(self, grid: tg.GridSpec):
        n, nt = grid.n_space, grid.nt
        idx = np.arange(n).reshape(grid.spatial_shape)
        node = np.arange(n)
        slices = sp.identity(nt + 1, format="csr")
        inv2dx = 1.0 / (2.0 * grid.dx)
        self.diff = []  # kron(I_{nt+1}, D_a)
        lap = sp.csr_matrix((n, n))
        for a in range(grid.dim):
            ip = np.roll(idx, -1, axis=a).ravel()
            im = np.roll(idx, 1, axis=a).ravel()
            d = sp.csr_matrix(
                (np.concatenate([np.full(n, inv2dx), np.full(n, -inv2dx)]),
                 (np.concatenate([node, node]), np.concatenate([ip, im]))),
                shape=(n, n))
            self.diff.append(sp.kron(slices, d, format="csr"))
            lap = lap + sp.csr_matrix(
                (np.concatenate([np.full(n, 1.0), np.full(n, 1.0), np.full(n, -2.0)])
                 / grid.dx**2,
                 (np.concatenate([node, node, node]), np.concatenate([ip, im, node]))),
                shape=(n, n))
        lap = sp.kron(slices, lap, format="csr")
        t = np.repeat(np.arange(nt + 1), n)
        self.last = t == nt    # the u(T) slice
        self.first = t == 0    # the m(0) slice
        self.u_rows = (t < nt).astype(float)  # backward-equation rows
        self.m_rows = (t > 0).astype(float)   # forward-equation rows
        inv_dt = 1.0 / grid.dt
        ones = np.ones(nt)
        # (u_k - u_{k+1})/dt on rows k < nt, and the terminal row u_nt
        back = sp.diags([np.append(inv_dt * ones, 1.0), -inv_dt * ones], [0, 1])
        # the initial row m_0, and (m_k - m_{k-1})/dt on rows k >= 1
        fwd = sp.diags([np.append(1.0, inv_dt * ones), -inv_dt * ones], [0, -1])
        eye = sp.identity(n, format="csr")
        self.uu = sp.kron(back, eye, format="csr") - sp.diags(self.u_rows) @ lap
        self.mm = sp.kron(fwd, eye, format="csr") - sp.diags(self.m_rows) @ lap
        self.zero = sp.csr_matrix(self.uu.shape)


@lru_cache(maxsize=16)
def _stencils(grid: tg.GridSpec) -> _Stencils:
    return _Stencils(grid)


def _value_block(p: ProblemSpec, b: ham.HamiltonianBundle):
    """The uu block: r_u differentiated in u, terminal row included."""
    st = _stencils(p.grid)
    hp = b.Hp.reshape(p.grid.dim, -1)
    return st.uu + sum(sp.diags(st.u_rows * hp[a]) @ st.diff[a]
                       for a in range(p.grid.dim))


def _density_block(p: ProblemSpec, drift: np.ndarray):
    """The mm block of a forward equation with linearized drift ``drift``
    (one row per direction), initial row included.  With drift H_p + m H_pm
    it is r_m differentiated in m."""
    st = _stencils(p.grid)
    return st.mm - sum(st.diff[a] @ sp.diags(st.m_rows * drift[a])
                       for a in range(p.grid.dim))


def _jacobian(p: ProblemSpec, state: SolverState):
    """Jacobian of the full residual (r_u, r_m) with respect to (u, m) at
    ``state``, both boundary rows included.

    Returns the CSR matrix of its sparse part, the coupling's dense blocks
    as (row, column, block) addends, and the mask of the known boundary
    slices: m(0), and u(T) unless the coupling derives it.
    """
    grid = p.grid
    dim = grid.dim
    st = _stencils(grid)
    m_vals = state.m.values
    b = _bundle(p, state.u.values, m_vals)
    m = m_vals.ravel()
    mm = _density_block(p, b.Hp.reshape(dim, -1) + m * b.Hpm.reshape(dim, -1))
    flux = st.m_rows * m * b.Hpp.reshape(dim, dim, -1)
    mu = -sum((st.diff[a] @ sp.diags(flux[a, c]) @ st.diff[c]
               for a in range(dim) for c in range(dim) if np.any(flux[a, c])),
              st.zero)
    # -f'(m) enters the backward rows k < nt, a dense block also the terminal row
    diagonal, dense = p.coupling.blocks(m_vals)
    um = sp.diags(st.u_rows * (b.Hm.ravel() + diagonal))
    dense = [(k * grid.n_space, (grid.nt + 1 + k) * grid.n_space, block) for k, block in enumerate(dense)]
    known = np.concatenate([st.last & (not p.coupling.derives_terminal), st.first])
    return sp.bmat([[_value_block(p, b), um], [mu, mm]], format="csr"), dense, known


def _eliminate(grid: tg.GridSpec, matrix, rhs: np.ndarray,
               known: np.ndarray, dense=()) -> sla.LinearSystem:
    """The system ``(matrix + dense) @ x = rhs`` without the ``known``
    unknowns: their rows are identity rows, so x = rhs there, and their
    columns (dense blocks on them too) times those values move to the
    right-hand side.  The matrix is in the canonical form ``sparse_linalg``
    factors, each free unknown tagged with its time slice (unknowns and dense
    blocks are slice-stacked), and the free dense blocks are its addends."""
    free = ~known
    reduced = matrix[free][:, free]
    reduced.eliminate_zeros()
    reduced.sort_indices()
    slices = (np.arange(known.size) // grid.n_space % (grid.nt + 1))[free]
    index = np.cumsum(free) - 1  # each free unknown's index in the system
    addends = [(index[r], index[c], block) for r, c, block in dense if free[r] and free[c]]
    rhs = rhs - sla.apply(matrix, [d for d in dense if known[d[1]]], np.where(known, rhs, 0.0))
    return sla.LinearSystem(reduced, rhs[free], slices, addends)


def _solve_eliminated(grid, matrix, rhs, known, method) -> np.ndarray:
    """Solve the system of :func:`_eliminate`; returns every unknown."""
    x = np.where(known, rhs, 0.0)
    x[~known] = sla.solve(_eliminate(grid, matrix, rhs, known), method)
    return x


def _stack(u_vals: np.ndarray, m_vals: np.ndarray) -> np.ndarray:
    return np.concatenate([u_vals.ravel(), m_vals.ravel()])


def _unstack(grid: tg.GridSpec, x: np.ndarray):
    u_vals, m_vals = x.reshape((2, grid.nt + 1) + grid.spatial_shape)
    return u_vals, m_vals


def newton_system(p: ProblemSpec, prev: SolverState):
    """Assembled Newton linear system at ``prev`` and the known-slice mask.

    The solution vector is the update (u^n - u^{n-1}, m^n - m^{n-1}) on the
    unknowns the mask leaves free.
    """
    matrix, dense, known = _jacobian(p, prev)
    r_u, r_m = residual(p, prev)
    return _eliminate(p.grid, matrix, -_stack(r_u.values, r_m.values), known, dense), known


def newton_step(p: ProblemSpec, prev: SolverState, cfg: NewtonConfig):
    """One Newton iteration; returns (next state, linear-solve metadata)."""
    system, known = newton_system(p, prev)
    x = _stack(prev.u.values, prev.m.values)
    x[~known] += sla.solve(system, cfg.linear_method)
    u_next, m_next = _unstack(p.grid, x)
    # given boundary values are pinned bitwise, not reached by the update
    if p.uT is not None:
        u_next[-1] = p.uT
    m_next[0] = p.m0
    return make_state(p.grid, u_next, m_next), system.meta


def linearized_apply(p: ProblemSpec, state: SolverState,
                     du_vals: np.ndarray, dm_vals: np.ndarray):
    """Full Jacobian of the residual map at ``state``, boundary rows
    included, applied to the direction (du, dm).

    Returns the row images (ju, jm) laid out like the residual fields: ju
    holds the backward-equation rows on slices 0..nt-1 and the terminal row
    on slice nt, jm the initial row on slice 0 and the forward-equation rows
    on slices 1..nt.  No slice is masked here; for a direction that vanishes
    on the known boundary slices (du(T) in the local variant, dm(0) always)
    the other rows are those of the masked system a Newton step solves.
    """
    matrix, dense, _ = _jacobian(p, state)
    return _unstack(p.grid, sla.apply(matrix, dense, _stack(du_vals, dm_vals)))


def _record(it, p, state, reference, wall_ms) -> diag.IterationRecord:
    r_u, r_m = residual(p, state)
    masses = tg.slice_masses(state.m.values, p.grid)
    err_u = err_m = err_sum = None
    if reference is not None:
        err_u, err_m = diag.error_norms(
            state.u.values, state.m.values,
            reference.u.values, reference.m.values, p.grid)
        err_sum = err_u + err_m
    return diag.IterationRecord(
        iter=it,
        res_u_sup=tg.sup_norm(r_u.values),
        res_m_sup=tg.sup_norm(r_m.values),
        err_c10_u=err_u, err_c0_m=err_m, err_sum=err_sum,
        mass_min=float(masses.min()), mass_max=float(masses.max()),
        wall_ms=wall_ms,
    )


def _res_sup(rec: diag.IterationRecord) -> float:
    return max(rec.res_u_sup, rec.res_m_sup)


def _stalled(res: list) -> bool:
    """Whether the last STALL_STEPS residuals in ``res`` set no new best."""
    return len(res) > STALL_STEPS and min(res[-STALL_STEPS:]) >= min(res[:-STALL_STEPS])


def _at_iterate(exc: SolverError, where: str, iterate: int, state=None, history=None):
    """The same error as ``exc``, its message naming ``where`` it failed and
    its ``.iterate`` the outer iterate; a budget error also carries the outer
    ``state`` and ``history``."""
    outer = {"final": state, "history": history} if isinstance(exc, MaxIterExceededError) else {}
    return type(exc)(f"{exc} ({where})", iterate=iterate, **outer)


def _iterate(p, initial, cfg, reference, step, solver: str, unit: str):
    """The outer iteration of :func:`solve_newton` and
    :func:`solve_fixed_point`: ``state = step(state)`` until the sup-norm
    residual is <= cfg.residual_tol (in cfg.max_iter steps, each STALL_STEPS
    setting a new best), one history record per state.

    ``solver`` names the iterate in failure messages ("Newton iterate 2");
    the budget message reads it with spaces ("fixed point did not reach").
    """
    try:
        history = [_record(0, p, initial, reference, 0.0)]
    except SolverError as exc:
        raise _at_iterate(exc, "iterate 0, initial state", 0) from exc
    state = initial
    steps = 0
    while not _res_sup(history[-1]) <= cfg.residual_tol:  # a NaN never converges
        stalled = _stalled([_res_sup(rec) for rec in history])
        if steps >= cfg.max_iter or stalled:
            why = f", no new best residual in the last {STALL_STEPS}" if stalled else ""
            raise MaxIterExceededError(
                f"{solver.replace('-', ' ')} did not reach tol {cfg.residual_tol:.1e} "
                f"in {steps} {unit}{why} (residual {_res_sup(history[-1]):.3e})",
                final=state, history=history, iterate=steps)
        t0 = time.perf_counter()
        steps += 1
        try:
            state = step(state)
            history.append(_record(
                steps, p, state, reference, (time.perf_counter() - t0) * 1e3))
        except SolverError as exc:
            raise _at_iterate(exc, f"{solver} iterate {steps}", steps, state, history) from exc
    return state, history


def solve_newton(p: ProblemSpec, initial: SolverState, cfg: NewtonConfig,
                 reference: SolverState | None = None):
    """Newton iteration to sup-norm residual <= cfg.residual_tol.

    history[0] records the initial state; one record follows per step.
    Raises MaxIterExceededError (carrying the history) when the budget is
    exhausted.  Every failure is a SolverError naming the iterate it failed
    in, in its message and as ``.iterate``, so divergence is never silent.
    """
    return _iterate(p, initial, cfg, reference,
                    lambda state: newton_step(p, state, cfg)[0], "Newton", "steps")


# -- damped fixed-point (Picard) baseline --------------------------------------

def _solve_hjb_frozen_density(p: ProblemSpec, m_vals: np.ndarray,
                              u_init: np.ndarray, cfg: NewtonConfig) -> np.ndarray:
    """Inner Newton solve of the backward equation with the density frozen.

    Its matrix is the uu block of the Jacobian; the terminal slice is pinned.
    """
    grid = p.grid
    fvals, u_T = _coupling_values(p, m_vals)
    u = u_init.copy()
    u[-1] = u_T
    pinned, res = _stencils(grid).last, []
    for inner in range(MAX_INNER + 1):
        b = _bundle(p, u, m_vals)
        r_u = _value_residual(p, u, b, fvals, u_T)
        res.append(tg.sup_norm(r_u))
        if res[-1] <= cfg.residual_tol:
            return u
        if inner == MAX_INNER or _stalled(res):
            break
        u += _solve_eliminated(grid, _value_block(p, b), -r_u.ravel(), pinned,
                               cfg.linear_method).reshape(u.shape)
    raise MaxIterExceededError(
        f"inner value-function Newton stalled above tol {cfg.residual_tol:.1e}")


def _solve_fp_frozen_drift(p: ProblemSpec, hp: np.ndarray,
                           cfg: NewtonConfig) -> np.ndarray:
    """Linear forward solve with the drift ``hp`` = H_p frozen.

    Its matrix is the mm block with drift H_p; the initial slice is pinned
    to m0.
    """
    grid = p.grid
    rhs = np.array(_source(p.s_m, hp.shape[1:]))
    rhs[0] = p.m0
    m = _solve_eliminated(grid, _density_block(p, hp.reshape(grid.dim, -1)),
                          rhs.ravel(), _stencils(grid).first, cfg.linear_method)
    return m.reshape(rhs.shape)


def solve_fixed_point(p: ProblemSpec, initial: SolverState, cfg: NewtonConfig,
                      reference: SolverState | None = None):
    """Damped Picard iteration: freeze the density, solve the backward
    equation, solve the forward equation with the resulting drift, and relax
    the density with factor cfg.damping.  Stops on the coupled residual;
    failures inside a step name it as :func:`solve_newton`'s do."""

    def step(state):
        m_prev = state.m.values
        u_new = _solve_hjb_frozen_density(p, m_prev, state.u.values, cfg)
        m_new = _solve_fp_frozen_drift(p, _bundle(p, u_new, m_prev).Hp, cfg)
        return make_state(p.grid, u_new, (1.0 - cfg.damping) * m_prev + cfg.damping * m_new)

    return _iterate(p, initial, cfg, reference, step, "fixed-point", "iterations")


# -- perturbed linearized system (stability probe) ------------------------------

def linearized_solver(p: ProblemSpec, base: SolverState):
    """Factor the linearized system around ``base`` once, directly.

    Returns ``solve(a, b, c=None) -> (v, rho)``, which solves it for data
    (a, div b) and terminal data c as :func:`solve_linearized` does, reusing
    the factors for every call.
    """
    grid = p.grid
    matrix, dense, known = _jacobian(p, base)
    system = _eliminate(grid, matrix, np.zeros(known.size), known, dense)
    factored = sla.factorize(system.matrix, system.slices, system.dense)

    def solve(a: tg.Field, b: tg.VectorField, c: np.ndarray | None = None):
        if a.grid != grid or b.grid != grid:
            raise ValueError("data fields must live on the problem grid")
        rhs_u = np.array(a.values)
        rhs_u[-1] = 0.0 if c is None else np.asarray(c, dtype=float).reshape(grid.spatial_shape)
        if not p.coupling.derives_terminal and np.any(rhs_u[-1]):  # v(T) = 0
            raise ValueError("terminal data c only applies to kernel-coupled problems")
        rhs_m = tg.div_array(b.components, grid)
        rhs_m[0] = 0.0
        x = _stack(rhs_u, rhs_m)  # zero on the known slices, so none moves to the rhs
        x[~known] = factored(x[~known])[0]
        v_vals, rho_vals = _unstack(grid, x)
        return tg.Field(grid, v_vals), tg.Field(grid, rho_vals)

    return solve


def solve_linearized(p: ProblemSpec, base: SolverState, a: tg.Field,
                     b: tg.VectorField, c: np.ndarray | None = None):
    """Solve the linearized system around ``base`` with data (a, div b).

    The operator is the same Jacobian a Newton step solves, with coefficients
    frozen at ``base``; the right-hand side carries a on the backward rows and
    div b on the forward rows, with homogeneous boundary rows (v(T) = 0 for
    the local variant, rho(0) = 0).  In the kernel-coupled variant the
    terminal row reads v(T) = (dg/dm) rho(T) + c.  To solve for many data
    around one base state, factor once with :func:`linearized_solver`.
    """
    return linearized_solver(p, base)(a, b, c)
