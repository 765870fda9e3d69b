"""Density couplings behind one interface: local f(m), and linear kernel
couplings that also derive the terminal value u(T) = g[m(T)].

Each coupling gives the solver ``values(m)``, the running cost on every time
slice; ``blocks(m)``, the value rows' derivative in m as a diagonal (-f'(m))
and an operator (the kernel coupling's ``rows``: -f[dm] on each slice of a
density step, -g[dm] on m(T)); ``derives_terminal``, with ``terminal(m_T)``
when it is true; and ``grids``, the grids its kernels are built on.

The kernel coupling convolves the density with a periodized Gaussian whose
discrete Fourier coefficients are nonnegative by construction, which makes the
coupling monotone.  The kernel is a product of 1D profiles, built from image
sums over the min-image distance so that evenness K(x) = K(-x) holds bitwise,
and normalized to unit discrete mass; its matrix is the Kronecker product of
their circulants (P. J. Davis, Circulant Matrices, 1979).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import circulant

from .errors import DomainError
from .torus_grid import GridSpec

MIN_SIGMA = 1e-6  # far below any dx, and 1/sigma^2 stays finite (NaN kernel at 1e-160)
SIGMOID = "sigmoid"
LINEAR = "linear"
POWER = "power"
ZERO = "zero"


@dataclass(frozen=True)
class LocalCoupling:
    """Local coupling f(m) with closed-form f'.

    Variants: sigmoid 1/(1+e^-m) (bounded, monotone), linear m, power m^alpha
    with alpha >= 2 restricted to m >= 0, and zero.
    """

    variant: str
    alpha: float = 2.0  # power variant only
    derives_terminal = False
    grids = ()

    def __post_init__(self):
        if self.variant not in (SIGMOID, LINEAR, POWER, ZERO):
            raise ValueError(f"unknown coupling variant {self.variant!r}")
        if self.variant == POWER and self.alpha < 2:
            raise ValueError(f"power coupling requires alpha >= 2, got {self.alpha}")

    def values(self, m) -> np.ndarray:
        """f(m) on every node of m."""
        return np.asarray(local_eval(self, m).f)

    def blocks(self, m):
        """-f'(m) on every node of m, and no operator."""
        return -np.asarray(local_eval(self, m).f1).ravel(), None


class CouplingValues(NamedTuple):
    f: float | np.ndarray
    f1: float | np.ndarray


def local_eval(c: LocalCoupling, m) -> CouplingValues:
    """f(m) and f'(m); accepts scalars or arrays."""
    m = np.asarray(m, dtype=float)
    scalar = m.ndim == 0
    if c.variant == SIGMOID:
        s = 1.0 / (1.0 + np.exp(-m))
        out = CouplingValues(s, s * (1.0 - s))
    elif c.variant == LINEAR:
        out = CouplingValues(m, np.ones_like(m))
    elif c.variant == ZERO:
        z = np.zeros_like(m)
        out = CouplingValues(z, z)
    else:  # power
        if np.any(m < 0):
            raise DomainError(f"power coupling needs m >= 0, got min {float(np.min(m)):.6g}")
        a = c.alpha
        out = CouplingValues(m**a, a * m ** (a - 1.0))
    if scalar:
        return CouplingValues(float(out.f), float(out.f1))
    return out


def periodized_gaussian(grid: GridSpec, sigma: float) -> np.ndarray:
    """Gaussian of width sigma wrapped around the torus, sampled along one
    axis: the 1D profile k1 of the kernel (in 2D, the kernel is k1 (x) k1).

    Built from the min-image distance d = min(i, nx-i)/nx so values at i
    and nx-i are identical bitwise; the remaining images enter through sums
    over j +- d.  Normalized so dx * sum(k1) = 1 exactly.
    """
    if not MIN_SIGMA <= sigma <= 1:  # at most the unit torus: the image sum runs ~6 sigma terms
        raise ValueError(f"sigma must lie in [{MIN_SIGMA:g}, 1], got {sigma}")
    images = max(3, int(np.ceil(6.0 * sigma)) + 1)
    i = np.arange(grid.nx)
    d = np.minimum(i, grid.nx - i) * grid.dx
    k1 = np.zeros(grid.nx)
    inv = 1.0 / (2.0 * sigma * sigma)
    for j in range(images + 1):
        k1 += np.exp(-((j + d) ** 2) * inv)
        if j >= 1:
            k1 += np.exp(-((j - d) ** 2) * inv)
    return k1 / (grid.dx * k1.sum())


@dataclass(frozen=True)
class KernelCoupling:
    """Nonlocal coupling f[m](x) = dx^dim * sum_y K(x-y) m(y), linear in m."""

    grid: GridSpec
    kernel: np.ndarray
    conv: np.ndarray  # (n_space, n_space) dense circulant, includes dx^dim

    def values(self, m_slice: np.ndarray) -> np.ndarray:
        flat = self.conv @ np.asarray(m_slice, dtype=float).ravel()
        return flat.reshape(self.grid.spatial_shape)


@dataclass(frozen=True)
class NonlocalCoupling:
    """Kernel couplings for the running cost (f) and the terminal cost (g)."""

    f: KernelCoupling
    g: KernelCoupling
    derives_terminal = True

    @property
    def grids(self) -> tuple[GridSpec, GridSpec]:
        return self.f.grid, self.g.grid

    def values(self, m: np.ndarray) -> np.ndarray:
        """f[m](x) on every slice of m."""
        flat = m.reshape(m.shape[0], -1)
        return (flat @ self.f.conv.T).reshape(m.shape)

    def blocks(self, m: np.ndarray):
        """No diagonal, and :meth:`rows` as the value rows' operator."""
        return 0.0, self.rows

    def rows(self, dm: np.ndarray, terminal: bool = True) -> np.ndarray:
        """-f[dm] on each slice of the stack ``dm`` (slices, nodes), -g[dm] on
        the last when ``terminal`` (m(T)); conv is symmetric: one product."""
        if not terminal or self.g is self.f:
            return -(dm @ self.f.conv)
        return -np.concatenate([dm[:-1] @ self.f.conv, dm[-1:] @ self.g.conv])

    def terminal(self, m_T: np.ndarray) -> np.ndarray:
        """u(T) = g[m(T)]."""
        return self.g.values(m_T)


def gaussian_kernel_coupling(grid: GridSpec, sigma: float) -> KernelCoupling:
    """The periodized Gaussian coupling: conv is dx^dim times C1 in 1D and
    kron(C1, C1) in 2D, C1[x, y] = k1(x - y) the 1D profile's circulant."""
    k1 = periodized_gaussian(grid, sigma)
    c1 = circulant(k1)
    if grid.dim == 1:
        return KernelCoupling(grid, k1, grid.cell_volume * c1)
    return KernelCoupling(grid, np.multiply.outer(k1, k1), grid.cell_volume * np.kron(c1, c1))


def write_kernel_csv(k: KernelCoupling, path) -> None:
    """Kernel samples: flat node index, value."""
    with open(path, "w") as fh:
        fh.write("node,value\n")
        for i, v in enumerate(k.kernel.ravel()):
            fh.write(f"{i},{v:.17g}\n")
