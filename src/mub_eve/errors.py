"""Exception types shared across the package, and the verdict and message of a range test."""

import sys


class DimensionError(ValueError):
    """Invalid Hilbert-space dimension, or a dimension mismatch between objects."""


class DomainError(ValueError):
    """A numeric parameter lies outside its admissible domain."""


class ProtocolError(ValueError):
    """Unsupported protocol combination (e.g. three bases outside d = 3)."""


class AnalysisError(RuntimeError):
    """A numeric analysis step failed (e.g. no sign change when bracketing a crossing)."""


def is_array(value) -> bool:
    """Whether value is a numpy array, without importing numpy (no array exists before it is).
    Float paths test ``value.__class__ is not float`` first, which costs less."""
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(value, numpy.ndarray)


def holds(test) -> bool:
    """Verdict of a range test on a float (a bool) or on an array (every element passes).

    Range tests are written as comparisons that NaN fails, so one NaN element
    fails an array.
    """
    return test if test.__class__ is bool else bool(test.all())


def failed_value(value, test) -> str:
    """How a failed range test's message shows ``value``: a float as itself, an array by
    the full repr and the index of its first element that fails ``test``.

    ``test`` is the test's result, a bool or an array of ``value``'s shape.
    """
    if test.__class__ is bool or not getattr(value, "ndim", 0):
        return f"{value}"
    import numpy as np

    index = tuple(int(k) for k in np.unravel_index(np.argmin(test), test.shape))  # the first False
    return f"{value[index].item()!r} at index {index[0] if len(index) == 1 else index}"
