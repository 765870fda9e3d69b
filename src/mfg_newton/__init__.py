"""Finite-difference Newton solver for evolutive mean field games on the torus."""

from .coupling import (KernelCoupling, LocalCoupling, NonlocalCoupling,
                       gaussian_kernel_coupling, local_eval)
from .diagnostics import (IterationRecord, RateFit, fit_rate, make_manufactured,
                          make_manufactured_nonlocal, perturbed_state)
from .errors import (ConfigError, DomainError, InsufficientDataError,
                     MaxIterExceededError, NoConvergenceError,
                     SingularMatrixError, SolverError)
from .hamiltonian import (HamiltonianBundle, HamiltonianSpec, congestion,
                          hessian_condition, separable_quadratic)
from .mfg_solver import (NewtonConfig, ProblemSpec, SolverState,
                         linearized_solver, make_state, newton_step,
                         newton_system, residual, solve_fixed_point,
                         solve_linearized, solve_newton)
from .sparse_linalg import LinearSystem, SparseMatrix, SweepPlan, factorize, solve
from .torus_grid import (Field, GridSpec, VectorField, divergence, gradient,
                         laplacian, write_field_csv)

__all__ = [name for name in dir() if not name.startswith("_")]
