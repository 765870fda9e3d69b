"""Uniform periodic space-time grids on the unit torus and their discrete operators.

The spatial domain is [0,1)^dim with periodic wraparound (no boundary nodes),
the time axis is the uniform partition of [0,T] into ``nt`` intervals.  All
differential operators are second-order centered stencils; ``divergence`` is
the exact negative adjoint of ``gradient`` under the unweighted grid inner
product, which the uniqueness structure of the linearized system relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on the dim-torus with a time axis.

    nx is the number of points per spatial axis (dx = 1/nx), nt the number
    of time intervals (dt = horizon/nt).  Time nodes run k = 0..nt.
    """

    dim: int
    nx: int
    nt: int
    horizon: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.nx < 4:
            raise ValueError(f"nx must be >= 4, got {self.nx}")
        if self.nt < 2:
            raise ValueError(f"nt must be >= 2, got {self.nt}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def dt(self) -> float:
        return self.horizon / self.nt

    @property
    def spatial_shape(self) -> tuple:
        return (self.nx,) * self.dim

    @property
    def n_space(self) -> int:
        return self.nx**self.dim

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    def x_nodes(self) -> np.ndarray:
        """Node coordinates, shape (dim, nx, [nx])."""
        axes = [np.arange(self.nx) * self.dx for _ in range(self.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"))

    def t_nodes(self) -> np.ndarray:
        return np.arange(self.nt + 1) * self.dt


def _as_readonly(arr) -> np.ndarray:
    out = np.array(arr, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError("field values must be finite")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Field:
    """Scalar field on a space-time grid, indexed (time node, spatial index).

    Values are copied and frozen at construction; fields are safe to share
    across threads.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = _as_readonly(self.values)
        expected = (self.grid.nt + 1,) + self.grid.spatial_shape
        if vals.shape != expected:
            raise ValueError(f"field shape {vals.shape} != expected {expected}")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class VectorField:
    """Vector field with grid.dim components, each Field-shaped."""

    grid: GridSpec
    components: np.ndarray  # (dim, nt+1, *spatial)

    def __post_init__(self):
        comp = _as_readonly(self.components)
        expected = (self.grid.dim, self.grid.nt + 1) + self.grid.spatial_shape
        if comp.shape != expected:
            raise ValueError(f"components shape {comp.shape} != expected {expected}")
        object.__setattr__(self, "components", comp)


# -- stencils on raw arrays (spatial axes are the trailing ``dim`` axes) -----

def grad_array(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Centered gradient, output shape (dim,) + vals.shape."""
    out = np.empty((grid.dim,) + vals.shape)
    inv2dx = 1.0 / (2.0 * grid.dx)
    for a in range(grid.dim):
        ax = vals.ndim - grid.dim + a
        out[a] = (np.roll(vals, -1, axis=ax) - np.roll(vals, 1, axis=ax)) * inv2dx
    return out


def div_array(comps: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Centered divergence of (dim,) + spatial(+leading) components."""
    out = np.zeros(comps.shape[1:])
    inv2dx = 1.0 / (2.0 * grid.dx)
    for a in range(grid.dim):
        ax = comps.ndim - 1 - grid.dim + a
        out += (np.roll(comps[a], -1, axis=ax) - np.roll(comps[a], 1, axis=ax)) * inv2dx
    return out


def lap_array(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Compact (2*dim+1)-point Laplacian."""
    out = np.zeros(vals.shape)
    invdx2 = 1.0 / grid.dx**2
    for a in range(grid.dim):
        ax = vals.ndim - grid.dim + a
        out += (np.roll(vals, -1, axis=ax) - 2.0 * vals + np.roll(vals, 1, axis=ax)) * invdx2
    return out


# -- per-slice operations on fields -------------------------------------------

def gradient(f: Field, k: int) -> np.ndarray:
    """Spatial gradient of time slice k, shape (dim, *spatial)."""
    return grad_array(f.values[k], f.grid)


def divergence(F: VectorField, k: int) -> np.ndarray:
    """Divergence of time slice k of a vector field; exact negative adjoint
    of :func:`gradient` on the periodic grid."""
    return div_array(F.components[:, k], F.grid)


def laplacian(f: Field, k: int) -> np.ndarray:
    return lap_array(f.values[k], f.grid)


@dataclass(frozen=True)
class NormReport:
    c0: float
    c10: float
    mass_per_slice: np.ndarray = field(repr=False)


def sup_norm(vals: np.ndarray) -> float:
    return float(np.max(np.abs(vals)))


def grad_sup_norm(vals: np.ndarray, grid: GridSpec) -> float:
    """Max over all nodes of the Euclidean norm of the discrete gradient."""
    g = grad_array(vals, grid)
    return float(np.sqrt((g * g).sum(axis=0)).max())


def norms(f: Field, v: Field | None = None) -> NormReport:
    """Discrete sup norms and per-slice mass of ``f``.

    c0 is the grid max of |f|, c10 adds the grid max of |grad f|, and
    mass_per_slice[k] = dx^dim * sum over the slice.  When ``v`` is given,
    c10 is computed for ``v`` instead, so that c0 + c10 is the combined
    error functional for a (density, value) pair in a single call.
    """
    c0 = sup_norm(f.values)
    target = f if v is None else v
    c10 = sup_norm(target.values) + grad_sup_norm(target.values, target.grid)
    axes = tuple(range(1, 1 + f.grid.dim))
    mass = f.grid.cell_volume * f.values.sum(axis=axes)
    return NormReport(c0=c0, c10=c10, mass_per_slice=mass)


def slice_masses(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    axes = tuple(range(1, 1 + grid.dim))
    return grid.cell_volume * vals.sum(axis=axes)


def write_field_csv(f: Field, path) -> None:
    """Field snapshot: header k,t,i[,j],value, row-major over time then space."""
    grid = f.grid
    dt = grid.dt
    with open(path, "w") as fh:
        if grid.dim == 1:
            fh.write("k,t,i,value\n")
            for k in range(grid.nt + 1):
                for i in range(grid.nx):
                    fh.write(f"{k},{k * dt:.17g},{i},{f.values[k, i]:.17g}\n")
        else:
            fh.write("k,t,i,j,value\n")
            for k in range(grid.nt + 1):
                for i in range(grid.nx):
                    for j in range(grid.nx):
                        fh.write(f"{k},{k * dt:.17g},{i},{j},{f.values[k, i, j]:.17g}\n")
