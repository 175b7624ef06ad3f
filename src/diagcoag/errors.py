"""Exception types shared across the package."""


class DiagcoagError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DiagcoagError, ValueError):
    """A parameter lies outside its admissible domain."""


class BracketError(DiagcoagError, RuntimeError):
    """Root bracketing failed; should be impossible for valid inputs."""


class ConvergenceError(DiagcoagError, RuntimeError):
    """An iteration failed to converge or left its trust region.

    ``x``, when known, is where the iteration stopped (the last node a march
    reached).
    """

    def __init__(self, message: str, x: float | None = None):
        super().__init__(message)
        self.x = x


class IterationLimitError(ConvergenceError):
    """An iteration used up its iteration budget without converging."""


class QuadratureError(DiagcoagError, RuntimeError):
    """A quadrature grid is degenerate (collapsed or non-monotone spacing)."""


class MonotonicityError(DiagcoagError, RuntimeError):
    """A computed profile failed to be strictly decreasing."""

    def __init__(self, message: str, x: float | None = None):
        super().__init__(message)
        self.x = x


class PositivityError(DiagcoagError, RuntimeError):
    """A computed profile or density lost positivity."""

    def __init__(self, message: str, x: float | None = None):
        super().__init__(message)
        self.x = x


class RangeError(DiagcoagError, RuntimeError):
    """A target value is not attained inside the stored domain."""


class StepCollapseError(DiagcoagError, RuntimeError):
    """Time step underflowed after repeated rejections."""


class WindowError(DiagcoagError, ValueError):
    """A requested evaluation window leaves the stored grid."""
