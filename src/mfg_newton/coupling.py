"""Density couplings: local f(m) with its derivative, and a linear kernel coupling.

The nonlocal coupling convolves the density with a periodized Gaussian whose
discrete Fourier coefficients are nonnegative by construction, which makes the
coupling monotone.  The kernel is built from image sums over the min-image
distance so that evenness K(x) = K(-x) holds bitwise on the grid, and it is
normalized to unit discrete mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .torus_grid import GridSpec

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

    def __post_init__(self):
        if self.variant not in (SIGMOID, LINEAR, POWER, ZERO):
            raise ValueError(f"unknown coupling variant {self.variant!r}")
        if self.variant == POWER and self.alpha < 2:
            raise ValueError(f"power coupling requires alpha >= 2, got {self.alpha}")


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
    """Gaussian of width sigma wrapped around the torus, sampled on the grid.

    Built per axis from the min-image distance d = min(i, nx-i)/nx so values
    at i and nx-i are identical bitwise; the remaining images enter through
    sums over j +- d.  Normalized so dx^dim * sum(K) = 1 exactly.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    images = max(3, int(np.ceil(6.0 * sigma)) + 1)
    i = np.arange(grid.nx)
    d = np.minimum(i, grid.nx - i) * grid.dx
    k1 = np.zeros(grid.nx)
    inv = 1.0 / (2.0 * sigma * sigma)
    for j in range(images + 1):
        k1 += np.exp(-((j + d) ** 2) * inv)
        if j >= 1:
            k1 += np.exp(-((j - d) ** 2) * inv)
    k1 /= grid.dx * k1.sum()
    if grid.dim == 1:
        return k1
    return np.multiply.outer(k1, k1)


def _conv_matrix(grid: GridSpec, kernel: np.ndarray) -> np.ndarray:
    """Dense circulant matrix C[x,y] = dx^dim * K(x-y) on flat spatial indices."""
    n = grid.nx
    i = np.arange(n)
    delta = (i[:, None] - i[None, :]) % n
    if grid.dim == 1:
        return grid.cell_volume * kernel[delta]
    block = kernel[delta[:, :, None, None], delta[None, None, :, :]]
    mat = block.transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return grid.cell_volume * mat


@dataclass(frozen=True)
class KernelCoupling:
    """Nonlocal coupling f[m](x) = dx^dim * sum_y K(x-y) m(y), linear in m."""

    grid: GridSpec
    kernel: np.ndarray
    conv: np.ndarray  # (n_space, n_space) dense circulant, includes dx^dim

    def values(self, m_slice: np.ndarray) -> np.ndarray:
        flat = self.conv @ np.asarray(m_slice, dtype=float).ravel()
        return flat.reshape(self.grid.spatial_shape)


def gaussian_kernel_coupling(grid: GridSpec, sigma: float) -> KernelCoupling:
    kernel = periodized_gaussian(grid, sigma)
    return KernelCoupling(grid, kernel, _conv_matrix(grid, kernel))


def write_kernel_csv(k: KernelCoupling, path) -> None:
    """Kernel samples: flat node index, value."""
    with open(path, "w") as fh:
        fh.write("node,value\n")
        for i, v in enumerate(k.kernel.ravel()):
            fh.write(f"{i},{v:.17g}\n")
