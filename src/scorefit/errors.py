"""Exception and warning types shared across the package."""


class ScorefitError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(ScorefitError):
    """Structural mismatch between array shapes or element counts."""


class ValidationError(ScorefitError):
    """An input violates a documented invariant."""


class SingularMatrixError(ScorefitError):
    """A matrix required to be positive definite failed its Cholesky pivot check."""

    def __init__(self, message, pivot_index=None, pivot=None):
        super().__init__(message)
        self.pivot_index = pivot_index
        self.pivot = pivot


class NoSolutionError(ScorefitError):
    """No parameter value in the admissible range attains the requested target."""


class MatrixParseError(ScorefitError):
    """A matrix or loadings file could not be parsed."""


class NearSingularMatrixWarning(RuntimeWarning):
    """A matrix being inverted has a positive Cholesky pivot close to the singularity cutoff."""
