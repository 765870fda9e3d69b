"""Exception types shared across the solver stack."""


class DomainError(ValueError):
    """An evaluation was requested outside the admissible region.

    Raised e.g. when a density iterate drops below the Hamiltonian's
    evaluation floor, or a power-law coupling sees a negative density.
    """


class _LinearSolveError(RuntimeError):
    """A linear solve failed; ``iterate`` is the outer step it failed in,
    when an outer (Newton or fixed-point) iteration re-raised it."""

    def __init__(self, message, iterate=None):
        super().__init__(message)
        self.iterate = iterate


class SingularMatrixError(_LinearSolveError):
    """The linear operator could not be factored or solved reliably."""


class NoConvergenceError(_LinearSolveError):
    """An iterative linear solve exhausted its iteration budget."""


class MaxIterExceededError(RuntimeError):
    """An outer (Newton or fixed-point) iteration hit its step budget.

    Carries the last state and the full iteration history so callers can
    inspect the divergence instead of losing it.
    """

    def __init__(self, message, final=None, history=None):
        super().__init__(message)
        self.final = final
        self.history = history if history is not None else []


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
