"""Exception types shared across the solver stack.  Every solver failure
is a SolverError carrying the run it stopped."""


class SolverError(Exception):
    """A solve failed.  Once the outer (Newton or fixed-point) iteration
    re-raised it, ``iterate`` is the iterate it failed in (0: the initial
    state), ``final`` the last state recorded (the start if none was) and
    ``history`` the records; None, None and [] when raised outside one."""

    def __init__(self, message, iterate=None, final=None, history=None):
        super().__init__(message)
        self.iterate = iterate
        self.final = final
        self.history = history if history is not None else []


class DomainError(SolverError, ValueError):
    """An evaluation was requested outside the admissible region.

    Raised e.g. when a density iterate drops below the Hamiltonian's
    evaluation floor, or a power-law coupling sees a negative density.
    """


class SingularMatrixError(SolverError, RuntimeError):
    """The linear operator could not be factored or solved reliably."""


class NoConvergenceError(SolverError, RuntimeError):
    """An iterative linear solve exhausted its iteration budget."""


class MaxIterExceededError(SolverError, RuntimeError):
    """An outer (Newton or fixed-point) iteration hit its step budget, or
    the fixed-point baseline's inner value-function solve stalled."""


class InsufficientDataError(ValueError):
    """Not enough usable points to fit a convergence order."""


class ConfigError(ValueError):
    """A run configuration failed validation.

    ``path`` is the dotted key path of the offending entry.
    """

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason
