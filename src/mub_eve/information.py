"""Closed-form information quantities of the attack, in dits (log base d).

Two routes exist to the eavesdropper's guess probabilities: the closed forms
below and the constructive path through ``AttackParams.coeff_pairs``, which
reads each block's coefficients from its Gram eigenvalues. They agree to 1e-12
away from the zeros of the radicands; the test suite enforces this. Both
protocols share the closed forms: with c = ``ProtocolSpec.z_factor``, the
no-error guess probability is ``phi_d`` at the overlap c w (c = -1/2 gives the
three-basis qutrit protocol), and the error one is ``lambda_d`` at w.

The closed forms take D and w as floats or as numpy arrays of one shape and
return the same kind; an array call equals the element-wise float calls bit
for bit. Only the leaf helpers branch on the kind: floats stay on ``math``,
and arrays take their logarithms with ``math.log`` per element, because
``np.log`` may differ from it in the last bit. The helpers test for a
float's class before ``isinstance``, which costs several times more and
would slow the float inner loops of ``critical``. Range tests are written
``holds((lo <= x) & (x <= hi))``, so NaN fails them, on any element, and
their messages name an array's first failing element (``failed_value``).
The helpers on the path of every ``i_ae`` call skip the call to ``holds``
when a float's test is ``True``.
"""

from __future__ import annotations

import math

import numpy as np

from .attack import RADICAND_SLACK, AttackParams
from .bases import ProtocolSpec
from .errors import DomainError, failed_value, holds

# A float, or a numpy array of floats that the closed forms map element-wise.
Real = float | np.ndarray


def _clamp_probability(x: Real, what: str) -> Real:
    in_range = (-RADICAND_SLACK <= x) & (x <= 1.0 + RADICAND_SLACK)
    if in_range is not True and not holds(in_range):
        raise DomainError(f"{what} = {failed_value(x, in_range)} is outside [0, 1]")
    # min(max(x, 0.0), 1.0), spelled out: it keeps a -0.0 as max does, where np.maximum gives 0.0
    if x.__class__ is not float and isinstance(x, np.ndarray):
        return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def _sqrt_radicand(value: Real, what: str) -> Real:
    in_range = value >= -RADICAND_SLACK
    if in_range is not True and not holds(in_range):
        raise DomainError(f"radicand {what} = {failed_value(value, in_range)} is not >= 0")
    if value.__class__ is not float and isinstance(value, np.ndarray):
        return np.sqrt(np.where(value < 0.0, 0.0, value))
    return math.sqrt(0.0 if value < 0.0 else value)


def _x_log_x_over(x: Real, c: int) -> Real:
    """x ln(x / c) for x >= 0, with 0 ln 0 := 0."""
    if x.__class__ is not float and isinstance(x, np.ndarray):
        out = np.zeros_like(x)
        positive = x > 0.0
        xs = x[positive]
        ratios = (xs / c).tolist()
        out[positive] = xs * np.fromiter(map(math.log, ratios), float, len(ratios))
        return out
    return x * math.log(x / c) if x > 0.0 else 0.0


def i_d(x: Real, d: int) -> Real:
    """Mutual information (dits) of the symmetric d-ary channel with diagonal x.

    i_d(x) = 1 + x log_d x + (1 - x) log_d[(1 - x)/(d - 1)], with 0 log 0 := 0.
    """
    x = _clamp_probability(x, "probability")
    ln_d = math.log(d)
    return 1.0 + _x_log_x_over(x, 1) / ln_d + _x_log_x_over(1.0 - x, d - 1) / ln_d


def phi_d(disturbance: Real, w: Real, d: int) -> Real:
    """Eavesdropper's correct-guess probability when the qudit arrived intact."""
    in_range = disturbance < 1.0
    if in_range is not True and not holds(in_range):
        raise DomainError(f"disturbance must be < 1, got {failed_value(disturbance, in_range)}")
    d = float(d)  # float-only arithmetic is faster than mixed; the values are those of the int d
    spread = (d - 1) * w
    rad = (d - 1) * disturbance * (1.0 + spread) * (d - disturbance * (1.0 + d + spread))
    root = _sqrt_radicand(rad, "D [1 + (d-1) w] {d - D [1 + d + (d-1) w]}")
    value = (d + disturbance * (-2.0 + (d - 2) * (d - 1) * w) + 2.0 * root) / (
        d * d * (1.0 - disturbance)
    )
    return _clamp_probability(value, "phi_d")


def lambda_d(w: Real, d: int) -> Real:
    """Eavesdropper's correct-guess probability when the receiver got an error."""
    in_range = (-1.0 / (d - 1) - RADICAND_SLACK <= w) & (w <= 1.0 + RADICAND_SLACK)
    if in_range is not True and not holds(in_range):
        raise DomainError(f"w = {failed_value(w, in_range)} outside [{-1.0 / (d - 1)}, 1]")
    root = _sqrt_radicand((1.0 - w) * (1.0 + (d - 1) * w), "(1 - w)(1 + (d-1) w)")
    value = ((1.0 + (d - 1) * w) + (d - 1) ** 2 * (1.0 - w) + 2.0 * (d - 1) * root) / (d * d)
    return _clamp_probability(value, "lambda_d")


def _guess_pair(spec: ProtocolSpec, disturbance: Real, w: Real) -> tuple[Real, Real]:
    """(no-error, error) guess probabilities: phi_d at the overlap c w (c = spec.z_factor), lambda_d at w."""
    return phi_d(disturbance, spec.z_factor * w, spec.dim), lambda_d(w, spec.dim)


def guess_probability(spec: ProtocolSpec, disturbance: Real, w: Real) -> Real:
    """Probability that the eavesdropper names the sent symbol correctly."""
    g_intact, g_error = _guess_pair(spec, disturbance, w)
    return (1.0 - disturbance) * g_intact + disturbance * g_error


def i_ae(spec: ProtocolSpec, disturbance: Real, w: Real) -> Real:
    """Sender-eavesdropper mutual information (dits) for the given attack."""
    g_intact, g_error = _guess_pair(spec, disturbance, w)
    d = spec.dim
    return (1.0 - disturbance) * i_d(g_intact, d) + disturbance * i_d(g_error, d)


def i_ab(d: int, disturbance: Real) -> Real:
    """Sender-receiver mutual information (dits) of the symmetric channel."""
    in_range = (0.0 <= disturbance) & (disturbance <= 1.0)
    if not holds(in_range):
        raise DomainError(f"disturbance must lie in [0, 1], got {failed_value(disturbance, in_range)}")
    return i_d(1.0 - disturbance, d)


def guess_probability_constructive(spec: ProtocolSpec, disturbance: float, w: float) -> tuple[float, float]:
    """(major^2 for the no-error block, major^2 for the error blocks) via the Gram route.

    Independent of the closed forms: goes through the attack's Gram eigenvalues
    and coefficients. phi_d (at the overlap z_factor * w) and lambda_d must match these squares.
    """
    (major_s, _), (major_w, _) = AttackParams(spec.dim, spec.bases_count, disturbance, w).coeff_pairs()
    return major_s**2, major_w**2


def dits_to_bits(value: float, d: int) -> float:
    """Convert an information value from dits (log base d) to bits."""
    return value * math.log2(d)
