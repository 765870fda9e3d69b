"""Hamiltonians and the derivative bundle consumed by the Newton system.

Two families are supported:

* congestion: H(x,m,p) = h(x)|p|^2 / (1+m)^alpha, jointly coupling density
  and momentum (moving is costlier where the density is large);
* separable quadratic: H(x,p) = h(x)|p|^2, no density dependence.

Evaluation is vectorized over arbitrary array shapes, scalars included.
(1+m)^alpha is smooth down to m > -1, so evaluation is permitted above a
configurable floor and fails hard below it: silently extending the
Hamiltonian would mask solver divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .torus_grid import GridSpec

CONGESTION = "congestion"
SEPARABLE_QUADRATIC = "separable_quadratic"


@dataclass(frozen=True)
class HamiltonianSpec:
    """Hamiltonian family bound to a grid, with h(x) sampled on the nodes.

    ``m_floor`` is the evaluation guard for the congestion variant; the
    monotone regime is alpha in (0, 2], but larger alpha is allowed so the
    Hessian sweep can exercise the failing regime.
    """

    variant: str
    grid: GridSpec
    h: np.ndarray
    alpha: float = 1.0
    m_floor: float = -0.5

    def __post_init__(self):
        if self.variant not in (CONGESTION, SEPARABLE_QUADRATIC):
            raise ValueError(f"unknown Hamiltonian variant {self.variant!r}")
        h = np.broadcast_to(np.asarray(self.h, dtype=float), self.grid.spatial_shape).copy()
        if not np.all(h > 0):
            raise ValueError("h(x) must be positive on all grid nodes")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        if self.variant == CONGESTION and not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


def congestion(grid: GridSpec, h=1.0, alpha: float = 1.0, m_floor: float = -0.5) -> HamiltonianSpec:
    return HamiltonianSpec(CONGESTION, grid, np.asarray(h, dtype=float), alpha, m_floor)


def separable_quadratic(grid: GridSpec, h=1.0) -> HamiltonianSpec:
    return HamiltonianSpec(SEPARABLE_QUADRATIC, grid, np.asarray(h, dtype=float))


class HamiltonianBundle(NamedTuple):
    """Pointwise H and every partial derivative the Newton system needs."""

    H: float | np.ndarray
    Hp: np.ndarray            # (dim, ...)
    Hm: float | np.ndarray
    Hpp: np.ndarray           # (dim, dim, ...)
    Hpm: np.ndarray           # (dim, ...)


def eval_bundle_arrays(spec: HamiltonianSpec, h: np.ndarray, m: np.ndarray, p: np.ndarray) -> HamiltonianBundle:
    """Vectorized bundle on arrays: m (...,), p (dim, ...), h broadcastable to m."""
    d = spec.grid.dim
    p = np.asarray(p, dtype=float)
    m = np.asarray(m, dtype=float)
    p2 = (p * p).sum(axis=0)
    eye = np.eye(d).reshape((d, d) + (1,) * m.ndim)

    if spec.variant == SEPARABLE_QUADRATIC:
        return HamiltonianBundle(
            H=h * p2,
            Hp=2.0 * h * p,
            Hm=np.zeros_like(m),
            Hpp=2.0 * h * eye * np.ones_like(m),
            Hpm=np.zeros_like(p),
        )

    if np.any(m <= spec.m_floor):
        raise DomainError(
            f"density {float(np.min(m)):.6g} at or below the evaluation floor {spec.m_floor}"
        )
    alpha = spec.alpha
    w = (1.0 + m) ** (-alpha)          # (1+m)^-alpha
    w1 = w / (1.0 + m)                 # (1+m)^-(alpha+1)
    return HamiltonianBundle(
        H=h * p2 * w,
        Hp=2.0 * h * p * w,
        Hm=-alpha * h * p2 * w1,
        Hpp=2.0 * h * eye * w,
        Hpm=-2.0 * alpha * h * p * w1,
    )


class HessianReport(NamedTuple):
    min_eigenvalue: float
    satisfied: bool
    degenerate: bool


def hessian_condition(spec: HamiltonianSpec, x, m: float, p) -> HessianReport:
    """Smallest eigenvalue, at grid node ``x`` (flat index or multi-index),
    of the (dim+1)x(dim+1) monotonicity matrix

        [[-Hm,        (m/2) Hpm^T],
         [(m/2) Hpm,  m Hpp     ]]

    ``satisfied`` requires strict positivity.  At p = 0 the matrix is only
    positive semidefinite (top-left entry vanishes); that boundary case is
    reported as min eigenvalue 0, unsatisfied, with the degenerate flag set.
    """
    if not m > 0:
        raise DomainError(f"Hessian condition requires m > 0, got {m}")
    d, p = spec.grid.dim, np.atleast_1d(np.asarray(p, dtype=float))
    if p.shape != (d,):
        raise ValueError(f"p must have {d} components, got shape {p.shape}")
    b = eval_bundle_arrays(spec, spec.h.flat[x] if np.ndim(x) == 0 else spec.h[tuple(x)], m, p)
    if not np.any(p):
        return HessianReport(0.0, False, True)
    mat = np.empty((d + 1, d + 1))
    mat[0, 0] = -b.Hm
    mat[0, 1:] = 0.5 * m * b.Hpm
    mat[1:, 0] = 0.5 * m * b.Hpm
    mat[1:, 1:] = m * b.Hpp
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    return HessianReport(min_eig, min_eig > 0.0, False)


def write_hessian_sweep_csv(rows, path) -> None:
    """Sweep report rows (alpha, m, p, min_eig, satisfied) to CSV."""
    with open(path, "w") as fh:
        fh.write("alpha,m,p,min_eig,satisfied\n")
        for alpha, m, p, min_eig, satisfied in rows:
            fh.write(f"{alpha:.17g},{m:.17g},{p:.17g},{min_eig:.17g},{str(bool(satisfied)).lower()}\n")
