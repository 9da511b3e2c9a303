"""Exception types shared across the package."""

__all__ = ["InfeasibleSpecError"]


class InfeasibleSpecError(ValueError):
    """A synthesis request cannot be made to satisfy its constraints."""
