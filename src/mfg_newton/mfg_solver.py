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
per iteration by ``sparse_linalg``, exact to round-off, is a Newton step.

The Jacobian lives on the full unknown vector [u_0..u_nt, m_0..m_nt], both
boundary rows included, and its sparsity pattern depends on the grid only.
The first time a grid is assembled, ``_stencils`` plans that pattern once,
with one sparse map from a state's coefficient fields (H_p per axis,
H_m - f'(m), m H_pp and the drift per axis, on every node) to the stored
values; a state's Jacobian is then one sparse product, as PETSc reuses a
fixed nonzero structure (``SAME_NONZERO_PATTERN``, Balay et al., PETSc Users
Manual).  The local and kernel variants differ only in the coupling's
values and blocks, which ``coupling.py`` supplies through one interface: a
diagonal -f'(m), kept in the CSR, or the kernel's operator -f[dm] (-g[dm]
on m(T)), kept out of it and handed to the solve as A_um's product.
Before a solve, one boolean mask marks the known unknowns: m(0) always and
u(T) unless the coupling derives it, and for the fixed-point baseline's two
inner solves the frozen field too.  Their rows are identity rows, so their
values are known, and their columns times those values move to the
right-hand side.  Newton, those inner solves and the linearized stability
probe all go through ``_eliminate`` into ``sparse_linalg``: per mask it
indexes once which stored entries the system keeps, in its own numbering,
and which move to the right-hand side.  A mask's plan is built once with
its index, from each free unknown's time slice and where the density field
starts, so every system of a mask has one pattern and one plan; the um
diagonal is not stored when its field is 0 everywhere.  The probe's
boundary data are zero, so its draws reuse one set of sweep factors as
they are.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, reduce

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


def make_state(grid: tg.GridSpec, u_vals, m_vals) -> SolverState:
    return SolverState(u=tg.Field(grid, u_vals), m=tg.Field(grid, m_vals))


@dataclass(frozen=True)
class NewtonConfig:
    max_iter: int = 30
    residual_tol: float = 1e-9
    error_floor: float = 1e-10
    damping: float = 0.5  # fixed-point iteration only

    def __post_init__(self):
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
    u, m = s.u.values, s.m.values
    r_u, r_m = _residual(p, u, m, _bundle(p, u, m))
    return tg.Field(p.grid, r_u), tg.Field(p.grid, r_m)


def _residual(p: ProblemSpec, u: np.ndarray, m: np.ndarray, b: ham.HamiltonianBundle):
    """The arrays of :func:`residual` at (u, m), given its bundle ``b``."""
    grid = p.grid
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
    return r_u, r_m


# -- space-time Jacobian ---------------------------------------------------------

class _Stencils:
    """The Jacobian's sparsity pattern on one grid, planned once, and the map
    from a state's coefficient fields to its stored values.

    The pattern covers the full unknown vector [u_0..u_nt, m_0..m_nt], both
    boundary rows included, in canonical CSR (``indptr``, ``indices``).
    Every stored value is linear in the coefficient fields, each given on
    every node of the space-time grid: H_p per axis (the uu block's drift),
    H_m - f'(m) (the um diagonal), m H_pp (the mu block's flux) and the
    drift per axis (the mm block's transport), then a 1 that carries the
    constant time, Laplacian and identity entries.  ``map`` holds that
    linear map, one row per stored entry, so a state's values are
    ``map @ coefficients(...)``.  The terms come from the 1D periodic shift
    S, (S x)_i = x_i+1: the centred difference (S - S^T)/(2dx) and the
    Laplacian (S + S^T - 2I)/dx^2, placed on their axis of every slice by
    Kronecker products with identities.  The backward rows k < nt carry the
    drift and the um diagonal, the forward rows k >= 1 the flux and the
    transport.
    """

    def __init__(self, grid: tg.GridSpec):
        n, nt, dim = grid.n_space, grid.nt, grid.dim
        self.grid, nodes = grid, (nt + 1) * n
        self.nodes = nodes
        eye1 = sp.identity(grid.nx)
        shift = sp.eye(grid.nx, k=1) + sp.eye(grid.nx, k=1 - grid.nx)

        def on_axis(op, a):  # kron(I_nt+1, I, .., op at axis a, .., I)
            return reduce(lambda x, y: sp.kron(x, y, format="csr"),
                          [op if b == a else eye1 for b in range(dim)], sp.identity(nt + 1))

        diff = [on_axis((shift - shift.T) / (2.0 * grid.dx), a) for a in range(dim)]
        lap = sum(on_axis((shift + shift.T - 2.0 * eye1) / grid.dx**2, a) for a in range(dim))
        t = np.repeat(np.arange(nt + 1), n)
        self.last = t == nt    # the u(T) slice
        self.first = t == 0    # the m(0) slice
        inv_dt, ones, eye = 1.0 / grid.dt, np.ones(nt), sp.identity(n, format="csr")
        # (u_k - u_{k+1})/dt on rows k < nt, and the terminal row u_nt
        back = sp.diags([np.append(inv_dt * ones, 1.0), -inv_dt * ones], [0, 1])
        # the initial row m_0, and (m_k - m_{k-1})/dt on rows k >= 1
        fwd = sp.diags([np.append(1.0, inv_dt * ones), -inv_dt * ones], [0, -1])
        one, um, mu, drift = (2 * dim + 2) * nodes, dim * nodes, (dim + 1) * nodes, (dim + 2) * nodes
        const_u = (sp.kron(back, eye) - sp.diags((t < nt).astype(float)) @ lap).tocoo()
        const_m = (sp.kron(fwd, eye) - sp.diags((t > 0).astype(float)) @ lap).tocoo()
        lap = None

        def value_terms():  # (rows, columns, coefficients, weights) of the u rows
            yield const_u.row, const_u.col, one, const_u.data
            for a, d in enumerate(diff):
                c = d.tocoo()
                keep = t[c.row] < nt
                yield c.row[keep], c.col[keep], a * nodes + c.row[keep], c.data[keep]
            i = np.flatnonzero(t < nt).astype(np.int32)
            yield i, nodes + i, um + i, 1.0

        def density_terms():  # the same for the m rows, numbered from 0
            yield const_m.row, nodes + const_m.col, one, const_m.data
            for a, d in enumerate(diff):
                c = d.tocoo()
                keep = t[c.col] > 0
                i, k, w = c.row[keep], c.col[keep], c.data[keep]
                yield i, nodes + k, drift + a * nodes + k, -w
                # -d diag(m H_pp) d: one term per path i -> k -> j, j read from row k of d
                reps = np.diff(d.indptr)[k]
                at = np.repeat(d.indptr[k] - np.cumsum(reps) + reps, reps) + np.arange(reps.sum())
                yield np.repeat(i, reps), d.indices[at], mu + np.repeat(k, reps), -np.repeat(w, reps) * d.data[at]

        # one family of terms at a time, in two passes: the positions of a row
        # group's terms are its CSR rows, and each term's place among them is
        # its row of the map
        def key(i, j):
            return i.astype(np.int64) * (2 * nodes) + j

        def union(k, new):  # a stable sort merges the sorted runs
            k = np.sort(np.concatenate([k, new]), kind="stable")
            return k[np.concatenate([[True], k[1:] != k[:-1]])]

        groups, keys, size = (value_terms, density_terms), [], 0
        for group in groups:
            keys.append(np.zeros(0, dtype=np.int64))
            for i, j, _, _ in group():
                keys[-1], size = union(keys[-1], key(i, j)), size + i.size
        entry, coef, weight = np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int32), np.empty(size)
        size, start = 0, 0
        for group, k in zip(groups, keys):
            for i, j, c, w in group():
                at = slice(size, size + i.size)
                entry[at], coef[at], weight[at], size = start + np.searchsorted(k, key(i, j)), c, w, at.stop
            start += k.size
        diff = const_u = const_m = None  # freed before the map's conversion, the build's peak
        counts = [np.bincount(k // (2 * nodes), minlength=nodes) for k in keys]
        self.indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts), dtype=np.int32)])
        self.indices = np.concatenate([(k % (2 * nodes)).astype(np.int32) for k in keys])
        keys = None
        self.map = sp.csr_matrix((weight, (entry, coef)), shape=(self.indices.size, one + 1))
        for arr in (self.indptr, self.indices, self.map.data, self.map.indices, self.map.indptr):
            arr.setflags(write=False)  # every system shares them
        self.um = slice(um, mu)  # the um diagonal's field in the map's input
        self._masks = {}

    def coefficients(self, hp=0.0, um=0.0, mu=0.0, drift=0.0) -> np.ndarray:
        """The map's input: H_p and the drift as (dim, nodes) arrays, H_m -
        f'(m) and m H_pp as node arrays (a system that reads none of a
        field's entries leaves it 0), then the constant 1."""
        coef, d = np.empty(self.map.shape[1]), self.grid.dim
        fields = coef[:-1].reshape(-1, self.nodes)
        fields[:d], fields[d], fields[d + 1], fields[d + 2:] = hp, um, mu, drift
        coef[-1] = 1.0
        return coef

    def masked(self, known: np.ndarray, um: bool) -> _Masked:
        """The :class:`_Masked` index of ``known``, with the um diagonal's
        entries or without them, built once per mask."""
        key = (np.packbits(known).tobytes(), um)
        if key not in self._masks:
            self._masks[key] = _Masked(self, known, um)
        return self._masks[key]


@lru_cache(maxsize=16)
def _stencils(grid: tg.GridSpec) -> _Stencils:
    return _Stencils(grid)


class _Masked:
    """Where the system of one mask of known unknowns takes its values
    among its grid's stored entries.  ``take`` holds the entries the system
    stores (free row and column, and none of the um diagonal's unless
    ``um``) with their CSR column indices and row pointers in the system,
    ``moved`` the ones whose known columns move to the right-hand side,
    with their full column indices and row pointers over the free rows.
    ``index`` numbers the free unknowns, and ``plan`` is the sweep plan of
    the system's pattern, from each free unknown's time slice and the count
    of those before the density field's (all of them in a one-field
    system)."""

    def __init__(self, st: _Stencils, known: np.ndarray, um: bool):
        free = ~known
        self.free, self.index = free, np.cumsum(free, dtype=np.int32) - 1
        size, col = int(self.index[-1]) + 1, st.indices
        row = np.repeat(np.arange(known.size, dtype=np.int32), np.diff(st.indptr))

        def entries(keep, columns):  # read-only: every system shares them
            indptr = np.zeros(size + 1, dtype=np.int32)
            np.cumsum(np.bincount(self.index[row[keep]], minlength=size), out=indptr[1:])
            out = (np.flatnonzero(keep).astype(np.int32), columns[keep], indptr)
            for arr in out:
                arr.setflags(write=False)
            return out

        self.take = entries(free[row] & free[col] & (um | (row >= st.nodes) | (col < st.nodes)), self.index[col])
        self.moved = entries(free[row] & known[col], col)
        row = None  # freed before the plan is built, the mask's peak
        slices = (np.arange(known.size) // st.grid.n_space % (st.grid.nt + 1))[free]
        _, indices, indptr = self.take
        self.plan = sla.SweepPlan(indptr, indices, slices, int(np.count_nonzero(free[:st.nodes])) or size)


def _linearization(p: ProblemSpec, m_vals: np.ndarray, b: ham.HamiltonianBundle):
    """The Jacobian at a state with density ``m_vals`` and Hamiltonian bundle
    ``b``: its coefficient fields (see :class:`_Stencils`), the coupling's
    operator on the value rows (None for a local coupling), and the mask of
    the known boundary slices: m(0), and u(T) unless the coupling derives it."""
    grid, st = p.grid, _stencils(p.grid)
    m, hp = m_vals.ravel(), b.Hp.reshape(grid.dim, -1)
    # -f'(m) enters the backward rows k < nt, a kernel's operator also the terminal row
    diagonal, rows = p.coupling.blocks(m_vals)
    coef = st.coefficients(hp=hp, um=b.Hm.ravel() + diagonal, mu=m * b.Hpp.ravel(),
                           drift=hp + m * b.Hpm.reshape(grid.dim, -1))
    known = np.concatenate([st.last & (not p.coupling.derives_terminal), st.first])
    return coef, rows, known


def _jacobian(p: ProblemSpec, state: SolverState):
    """Jacobian of the full residual (r_u, r_m) with respect to (u, m) at
    ``state``, both boundary rows included: the CSR matrix of its sparse
    part and the coupling's operator, u_k's rows reading m_k (or None)."""
    u, m = state.u.values, state.m.values
    coef, rows, _ = _linearization(p, m, _bundle(p, u, m))
    st = _stencils(p.grid)
    return sp.csr_matrix((st.map @ coef, st.indices, st.indptr), shape=(2 * st.nodes,) * 2), rows


def _eliminate(grid: tg.GridSpec, coef: np.ndarray, rhs: np.ndarray,
               known: np.ndarray, rows=None) -> sla.LinearSystem:
    """The system ``J @ x = rhs`` on the full unknown vector, J the Jacobian
    at coefficient fields ``coef`` with the coupling's operator ``rows`` on
    the value rows if any, without the ``known`` unknowns: their rows are
    identity rows, so x = rhs there, and their columns times those values
    move to the right-hand side.  The matrix is in the canonical form
    ``sparse_linalg`` factors, in the pattern of its mask's plan, which the
    system carries.  ``rows`` needs the mask m(0): u_0's product with the
    known m_0 moves to the right-hand side, and the system's operator on
    A_um gives u_k's with the free m_k (k >= 1)."""
    st = _stencils(grid)
    mask = st.masked(known, bool(coef[st.um].any()))  # an all-zero um field stores nothing
    data, free, n = st.map @ coef, mask.free, grid.n_space
    (stored, indices, indptr), (moved, columns, rowptr) = mask.take, mask.moved
    size = indptr.size - 1
    shift = sp.csr_matrix((data[moved], columns, rowptr), shape=(size, known.size)) @ np.where(known, rhs, 0.0)
    if rows is not None:
        shift[:n] += rows(rhs[st.nodes:st.nodes + n][None], terminal=False)[0]
    um = None if rows is None else lambda xm: np.concatenate((np.zeros(n), rows(xm.reshape(-1, n)).ravel()))
    return sla.LinearSystem(sp.csr_matrix((data[stored], indices, indptr), shape=(size, size)),
                            rhs[free] - shift, mask.plan, um)


def _solve_eliminated(grid, coef, rhs, known) -> np.ndarray:
    """Solve the system of :func:`_eliminate`; returns every unknown."""
    x = np.where(known, rhs, 0.0)
    x[~known] = sla.solve(_eliminate(grid, coef, rhs, known))
    return x


def _stack(u_vals: np.ndarray, m_vals: np.ndarray) -> np.ndarray:
    return np.concatenate([u_vals.ravel(), m_vals.ravel()])


def _unstack(grid: tg.GridSpec, x: np.ndarray):
    u_vals, m_vals = x.reshape((2, grid.nt + 1) + grid.spatial_shape)
    return u_vals, m_vals


def newton_system(p: ProblemSpec, prev: SolverState):
    """Assembled Newton linear system at ``prev`` and the known-slice mask.

    The solution vector is the update (u^n - u^{n-1}, m^n - m^{n-1}) on the
    unknowns the mask leaves free.  One Hamiltonian bundle at ``prev`` gives
    both the residual and the Jacobian.
    """
    u, m = prev.u.values, prev.m.values
    b = _bundle(p, u, m)
    coef, rows, known = _linearization(p, m, b)
    r_u, r_m = _residual(p, u, m, b)
    return _eliminate(p.grid, coef, -_stack(r_u, r_m), known, rows), known


def newton_step(p: ProblemSpec, prev: SolverState, cfg: NewtonConfig):
    """One Newton iteration; returns (next state, linear-solve metadata)."""
    system, known = newton_system(p, prev)
    x = _stack(prev.u.values, prev.m.values)
    x[~known] += sla.solve(system)
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
    jac, rows = _jacobian(p, state)
    y = jac @ _stack(du_vals, dm_vals)
    if rows is not None:
        y[:y.size // 2] += rows(dm_vals.reshape(p.grid.nt + 1, -1)).ravel()
    return _unstack(p.grid, y)


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


def _iterate(p, initial, cfg, reference, step, solver: str, unit: str):
    """The outer iteration of :func:`solve_newton` and :func:`solve_fixed_point`:
    ``state = step(state)`` until the sup-norm residual is <= cfg.residual_tol
    (in cfg.max_iter steps, each STALL_STEPS setting a new best), one history
    record per state.  A SolverError in a record or a step is re-raised as its
    type, its message naming the iterate ("iterate 0, initial state", "Newton
    iterate 2"), carrying that iterate, the last recorded state and the records.
    The budget message reads ``solver`` with spaces ("fixed point did not reach").
    """
    state, history, steps = initial, [], 0
    try:
        history.append(_record(0, p, initial, reference, 0.0))
        res = [_res_sup(history[0])]
        while not (res[-1] <= cfg.residual_tol  # a NaN never converges
                   or steps >= cfg.max_iter or _stalled(res)):
            t0 = time.perf_counter()
            steps += 1
            new = step(state)
            history.append(_record(steps, p, new, reference, (time.perf_counter() - t0) * 1e3))
            state = new
            res.append(_res_sup(history[-1]))
    except SolverError as exc:
        where = f"{solver} iterate {steps}" if steps else "iterate 0, initial state"
        raise type(exc)(f"{exc} ({where})", steps, state, history) from exc
    if res[-1] <= cfg.residual_tol:
        return state, history
    why = f", no new best residual in the last {STALL_STEPS}" if _stalled(res) else ""
    raise MaxIterExceededError(
        f"{solver.replace('-', ' ')} did not reach tol {cfg.residual_tol:.1e} "
        f"in {steps} {unit}{why} (residual {res[-1]:.3e})", steps, state, history)


def solve_newton(p: ProblemSpec, initial: SolverState, cfg: NewtonConfig,
                 reference: SolverState | None = None):
    """Newton iteration to sup-norm residual <= cfg.residual_tol.

    history[0] records the initial state; one record follows per step.
    Every failure is a SolverError naming the iterate it failed in, in its
    message and as ``.iterate``, and carrying the last state recorded and the
    records so far as ``.final`` and ``.history``, so divergence is never silent;
    an exhausted or stalled budget is a MaxIterExceededError.
    """
    return _iterate(p, initial, cfg, reference,
                    lambda state: newton_step(p, state, cfg)[0], "Newton", "steps")


# -- damped fixed-point (Picard) baseline --------------------------------------

def _solve_hjb_frozen_density(p: ProblemSpec, m_vals: np.ndarray,
                              u_init: np.ndarray, cfg: NewtonConfig) -> np.ndarray:
    """Inner Newton solve of the backward equation with the density frozen.

    Its matrix is the uu block of the Jacobian: the terminal slice and the
    density are known.
    """
    grid, st = p.grid, _stencils(p.grid)
    fvals, u_T = _coupling_values(p, m_vals)
    u = u_init.copy()
    u[-1] = u_T
    known, res = np.concatenate([st.last, np.ones_like(st.last)]), []
    for inner in range(MAX_INNER + 1):
        b = _bundle(p, u, m_vals)
        r_u = _value_residual(p, u, b, fvals, u_T)
        res.append(tg.sup_norm(r_u))
        if res[-1] <= cfg.residual_tol:
            return u
        if inner == MAX_INNER or _stalled(res):
            break
        coef = st.coefficients(hp=b.Hp.reshape(grid.dim, -1))
        u += _unstack(grid, _solve_eliminated(grid, coef, _stack(-r_u, np.zeros_like(u)), known))[0]
    raise MaxIterExceededError(
        f"inner value-function Newton stalled above tol {cfg.residual_tol:.1e}")


def _solve_fp_frozen_drift(p: ProblemSpec, hp: np.ndarray) -> np.ndarray:
    """Linear forward solve with the drift ``hp`` = H_p frozen.

    Its matrix is the mm block with drift H_p: the value function and the
    initial slice, pinned to m0, are known.
    """
    grid, st = p.grid, _stencils(p.grid)
    rhs = np.array(_source(p.s_m, hp.shape[1:]))
    rhs[0] = p.m0
    known = np.concatenate([np.ones_like(st.first), st.first])
    coef = st.coefficients(drift=hp.reshape(grid.dim, -1))
    return _unstack(grid, _solve_eliminated(grid, coef, _stack(np.zeros_like(rhs), rhs), known))[1]


def solve_fixed_point(p: ProblemSpec, initial: SolverState, cfg: NewtonConfig,
                      reference: SolverState | None = None):
    """Damped Picard iteration: freeze the density, solve the backward
    equation, solve the forward equation with the resulting drift, and relax
    the density with factor cfg.damping.  Stops on the coupled residual;
    failures inside a step name it as :func:`solve_newton`'s do."""

    def step(state):
        m_prev = state.m.values
        u_new = _solve_hjb_frozen_density(p, m_prev, state.u.values, cfg)
        m_new = _solve_fp_frozen_drift(p, _bundle(p, u_new, m_prev).Hp)
        return make_state(p.grid, u_new, (1.0 - cfg.damping) * m_prev + cfg.damping * m_new)

    return _iterate(p, initial, cfg, reference, step, "fixed-point", "iterations")


# -- perturbed linearized system (stability probe) ------------------------------

def linearized_solver(p: ProblemSpec, base: SolverState):
    """Factor the linearized system around ``base`` once: the slice blocks
    of its sweeps in time.

    Returns ``solve(a, b, c=None) -> (v, rho)``, which solves it for data
    (a, div b) and terminal data c as :func:`solve_linearized` does, reusing
    the sweeps' factors under each GMRES every call.
    """
    grid, u, m = p.grid, base.u.values, base.m.values
    coef, rows, known = _linearization(p, m, _bundle(p, u, m))
    system = _eliminate(grid, coef, np.zeros(known.size), known, rows)
    factored = sla.factorize(system.matrix, system.plan, system.um)

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
