"""Exception types shared across the package."""

__all__ = [
    "FuzzyNewtonError",
    "GridMismatchError",
    "InvalidLevelError",
    "SingularLevelError",
    "DomainError",
    "MalformedFunctionError",
    "NumericError",
    "InsufficientDataError",
    "ConfigFormatError",
]


class FuzzyNewtonError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatchError(FuzzyNewtonError):
    """Two fuzzy numbers live on different alpha grids."""


class InvalidLevelError(FuzzyNewtonError):
    """Level data violates the fuzzy-number invariants.

    Carries the first offending alpha so callers can report where the
    ordering or nestedness breaks down.
    """

    def __init__(self, message: str, alpha: float | None = None):
        super().__init__(message)
        self.alpha = alpha


class SingularLevelError(FuzzyNewtonError):
    """An operation needs a level bounded away from zero and got one
    containing zero (division, reciprocal, or a risk bound touching 0)."""

    def __init__(self, message: str, alpha: float | None = None):
        super().__init__(message)
        self.alpha = alpha


class DomainError(FuzzyNewtonError):
    """An argument lies outside the domain required by the operation."""


class MalformedFunctionError(FuzzyNewtonError):
    """A fuzzy-valued function produced levels that do not form a valid
    fuzzy number at some evaluation point."""

    def __init__(self, message: str, x: float | None = None,
                 alpha: float | None = None):
        super().__init__(message)
        self.x = x
        self.alpha = alpha


class NumericError(FuzzyNewtonError):
    """A numeric evaluation produced a non-finite value."""


class InsufficientDataError(FuzzyNewtonError):
    """Not enough usable iterates to estimate a convergence order."""


class ConfigFormatError(FuzzyNewtonError):
    """A problem-config or sweep file could not be parsed."""
