"""Exception types shared across the package."""


class DiagcoagError(Exception):
    """Base class for all package-specific errors.

    ``x``, when known, is where the failure happened (for a march, the last
    node it reached or the node it failed at); None otherwise.
    """

    def __init__(self, message: str, x: float | None = None):
        super().__init__(message)
        self.x = x


class DomainError(DiagcoagError, ValueError):
    """A parameter lies outside its admissible domain."""


class ConvergenceError(DiagcoagError, RuntimeError):
    """An iteration failed to converge within its budget, to bracket its root, or
    left its trust region."""


class MonotonicityError(DiagcoagError, RuntimeError):
    """A computed profile failed to be strictly decreasing."""


class PositivityError(DiagcoagError, RuntimeError):
    """A computed profile or density lost positivity."""


class RangeError(DiagcoagError, RuntimeError):
    """A target value is not attained inside the stored domain."""
