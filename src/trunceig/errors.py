"""Exception types shared across the package."""

__all__ = ["ConvergenceError", "ResolutionError", "BudgetExceededError",
           "InfeasibleSpecError", "NumericDomainError"]


class ConvergenceError(RuntimeError):
    """An iterative procedure failed to reach its tolerance within its budget."""


class ResolutionError(RuntimeError):
    """A discretization basis is too small for the requested output to be trusted."""


class BudgetExceededError(ValueError):
    """An exact combinatorial search was asked to exceed its size budget."""


class InfeasibleSpecError(ValueError):
    """A synthesis request cannot be made to satisfy its constraints."""


class NumericDomainError(ValueError):
    """An evaluation produced a non-finite value or left its numeric domain."""

