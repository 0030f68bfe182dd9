"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Invalid Hilbert-space dimension, or a dimension mismatch between objects."""


class DomainError(ValueError):
    """A numeric parameter lies outside its admissible domain."""


class ProtocolError(ValueError):
    """Unsupported protocol combination (e.g. three bases outside d = 3)."""


class AnalysisError(RuntimeError):
    """A numeric analysis step failed (e.g. no sign change when bracketing a crossing)."""

