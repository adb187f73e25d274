"""Exception types shared by every module in the package."""


class DescentLabError(Exception):
    """Base class for all errors this package raises deliberately."""


class DimensionMismatchError(DescentLabError):
    """Operand shapes do not line up."""


class IterationFailureError(DescentLabError):
    """An iterative kernel (SVD) did not converge; the input is pathological."""


class RankDeficientError(DescentLabError):
    """A solver that needs full numerical rank was handed a deficient matrix."""


class EmptySpectrumError(DescentLabError):
    """No nonzero singular values are available (numerical rank zero)."""


class DecompositionMismatchError(DescentLabError):
    """Bias plus variance failed to reproduce the estimator's prediction error."""


class DivergenceError(DescentLabError):
    """Gradient descent loss blew up.  Carries the offending step index."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"divergence detected at step {step}")


class DomainError(DescentLabError):
    """Input value lies outside the mathematical domain of the operation."""


class DataError(DescentLabError):
    """Dataset construction failed: bad file, missing target, or nothing left."""


class EmptySeriesError(DescentLabError):
    """A plot series is empty, ragged, or contains non-finite values."""


class ConfigError(DescentLabError):
    """A sweep or CLI configuration is invalid."""
