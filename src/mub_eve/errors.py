"""Exception types shared across the package, and the verdict of a range test."""


class DimensionError(ValueError):
    """Invalid Hilbert-space dimension, or a dimension mismatch between objects."""


class DomainError(ValueError):
    """A numeric parameter lies outside its admissible domain."""


class ProtocolError(ValueError):
    """Unsupported protocol combination (e.g. three bases outside d = 3)."""


class AnalysisError(RuntimeError):
    """A numeric analysis step failed (e.g. no sign change when bracketing a crossing)."""


def holds(test) -> bool:
    """Verdict of a range test on a float (a bool) or on an array (every element passes).

    Range tests are written as comparisons that NaN fails, so one NaN element
    fails an array.
    """
    return test if test.__class__ is bool else bool(test.all())
