"""Exception types shared by all modules."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A numerical construction failed (a frame's fit of psi~ misses, or
    phi_j is not monotone).

    Carries the offending abscissa in ``where`` when known.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class BudgetError(RuntimeError):
    """An evaluation budget was exhausted before the tolerance was met.

    ``diagnostics`` holds partial results (panel counts, achieved error).
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})
