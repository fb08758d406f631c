"""Exception types shared across the package."""


class ShapeError(ValueError):
    """An input vector or matrix has the wrong dimensions."""


class ParameterError(ValueError):
    """A numeric parameter is outside its admissible range."""


class DataError(ValueError):
    """A dataset violates a structural requirement (labels, emptiness)."""


class ParseError(ValueError):
    """A text input could not be parsed; the message carries the line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(ValueError):
    """A run-configuration file is malformed or violates the schema."""


class SpectralEstimationError(RuntimeError):
    """A Lanczos iteration of spectral estimation did not converge.

    Raised when ``max_iter`` steps leave the Ritz residual above its
    tolerance; the best estimates reached so far (the largest Ritz value)
    are attached as ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class DivergenceError(RuntimeError):
    """x, z, u or the objective (``what``) became non-finite at step ``iteration``."""

    def __init__(self, iteration, what):
        super().__init__(f"non-finite {what} at iteration {iteration}")
        self.iteration = iteration
        self.what = what


class NoCertifiedConstantsError(ValueError):
    """The requested estimator has no certified variance-reduction constants."""


class DiagnosticUndefinedError(RuntimeError):
    """A diagnostic quantity is undefined for the given operator spectrum."""
