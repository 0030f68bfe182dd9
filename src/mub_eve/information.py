"""Closed-form information quantities of the attack, in dits (log base d).

Both protocols share the closed forms: with c = ``ProtocolSpec.z_factor``,
the no-error guess probability is ``phi_d`` at the overlap c w (c = -1/2
gives the three-basis qutrit protocol), and the error one is ``lambda_d`` at
w. The tests check them against a second route, which reads each block's
coefficients from its Gram eigenvalues (``AttackParams.coeff_pairs``, through
``tests/oracles.py``): the two agree to 1e-12 away from the zeros of the
radicands.

The closed forms take D and w as floats or as numpy arrays of one shape and
return the same kind; an array call equals the element-wise float calls bit
for bit. The leaf helpers branch on the kind: floats stay on ``math``, and
arrays take their logarithms with ``math.log`` per element, because
``np.log`` may differ from it in the last bit. The helpers test for a
float's class before they ask ``is_array``, whose ``isinstance`` costs
several times more. Any other kind, a numpy scalar or an int, takes the
float branch (``tests/test_input_kinds.py`` pins what each returns). numpy
is imported inside the array branches only, so the float path, and with it
``critical``, runs without loading numpy. Range tests are written
``holds((lo <= x) & (x <= hi))``, so NaN fails them, on any element, and
their messages name an array's first failing element (``failed_value``).

``i_ae`` with a float D and a float w, and the float w-search of
``optimize.optimal_w``, go through ``_i_ae_at(spec, D)``: one fused float
objective of w, bit for bit the helpers' result, which forms the terms of D
once and makes the helpers' range tests inline. Where a test fails, it runs
the helpers, so the error is theirs. Arrays, numpy scalars and ints take the
helpers directly.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, TypeAlias

from .bases import RADICAND_SLACK, ProtocolSpec
from .errors import DomainError, failed_value, holds, is_array

if TYPE_CHECKING:
    import numpy as np

# A float, or a numpy array of floats that the closed forms map element-wise.
Real: TypeAlias = "float | np.ndarray"


def _clamp_probability(x: Real, what: str) -> Real:
    in_range = (-RADICAND_SLACK <= x) & (x <= 1.0 + RADICAND_SLACK)
    if in_range is not True and not holds(in_range):
        raise DomainError(f"{what} = {failed_value(x, in_range)} is outside [0, 1]")
    # min(max(x, 0.0), 1.0), spelled out: it keeps a -0.0 as max does, where np.maximum gives 0.0
    if x.__class__ is not float and is_array(x):
        import numpy as np

        return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def _sqrt_radicand(value: Real, what: str) -> Real:
    in_range = value >= -RADICAND_SLACK
    if in_range is not True and not holds(in_range):
        raise DomainError(f"radicand {what} = {failed_value(value, in_range)} is not >= 0")
    if value.__class__ is not float and is_array(value):
        import numpy as np

        return np.sqrt(np.where(value < 0.0, 0.0, value))
    return math.sqrt(0.0 if value < 0.0 else value)


def _x_log_x_over(x: Real, c: int) -> Real:
    """x ln(x / c) for x >= 0, with 0 ln 0 := 0."""
    if x.__class__ is not float and is_array(x):
        import numpy as np

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
    d is not checked here; the callers take it from a ProtocolSpec.
    """
    x = _clamp_probability(x, "probability")
    ln_d = math.log(d)
    return 1.0 + _x_log_x_over(x, 1) / ln_d + _x_log_x_over(1.0 - x, d - 1) / ln_d


def phi_d(disturbance: Real, w: Real, d: int) -> Real:
    """Eavesdropper's correct-guess probability when the qudit arrived intact; d is not checked here."""
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
    """Eavesdropper's correct-guess probability when the receiver got an error; d is not checked here."""
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
    if disturbance.__class__ is float and w.__class__ is float:
        return _i_ae_at(spec, disturbance)(w)
    return _i_ae_composed(spec, disturbance, w)


def _i_ae_composed(spec: ProtocolSpec, disturbance: Real, w: Real) -> Real:
    """i_ae through the helpers, on any kind; they make the range tests and raise their errors."""
    g_intact, g_error = _guess_pair(spec, disturbance, w)
    d = spec.dim
    return (1.0 - disturbance) * i_d(g_intact, d) + disturbance * i_d(g_error, d)


def _i_ae_at(spec: ProtocolSpec, disturbance: float) -> Callable[[float], float]:
    """w -> i_ae(spec, disturbance, w) for a float D and float w, bit for bit.

    The terms that depend on D alone are formed once. The body inlines the
    float arithmetic of phi_d, lambda_d and i_d in their operation order, and
    makes their range tests: D < 1, both radicands >= -RADICAND_SLACK, w in
    lambda_d's range and both guess probabilities in [0, 1], within the
    slack. Where one fails, NaN included, it runs _i_ae_composed, which
    raises the error the helpers raise.
    """
    d, c, D = spec.dim, spec.z_factor, disturbance
    d_ok = D < 1.0
    # phi_d computes in float(d), lambda_d and i_d in the int d; a float and an int
    # combine as the float and float(int) do. i_d's x / 1 is x, and its range test
    # cannot fail on a probability already clamped.
    fd = float(d)
    fm = fd - 1
    phi_scale = fm * D
    one_plus_d = 1.0 + fd
    phi_slope = (fd - 2) * fm
    phi_denominator = fd * fd * (1.0 - D)
    w_bottom = -1.0 / (d - 1) - RADICAND_SLACK
    top, slack = 1.0 + RADICAND_SLACK, -RADICAND_SLACK
    m = float(d - 1)
    m_squared = float((d - 1) ** 2)
    two_m = 2.0 * (d - 1)
    d_squared = float(d * d)
    ln_d = math.log(d)
    intact = 1.0 - D
    sqrt, log = math.sqrt, math.log

    def objective(w: float) -> float:
        cw = c * w
        spread = fm * cw
        phi_rad = phi_scale * (1.0 + spread) * (fd - D * (one_plus_d + spread))
        stretch = 1.0 + m * w
        lambda_rad = (1.0 - w) * stretch
        if not (d_ok and phi_rad >= slack and w_bottom <= w <= top and lambda_rad >= slack):
            return _i_ae_composed(spec, D, w)
        root = sqrt(0.0 if phi_rad < 0.0 else phi_rad)
        g_intact = (fd + D * (-2.0 + phi_slope * cw) + 2.0 * root) / phi_denominator
        root = sqrt(0.0 if lambda_rad < 0.0 else lambda_rad)
        g_error = (stretch + m_squared * (1.0 - w) + two_m * root) / d_squared
        if not (slack <= g_intact <= top and slack <= g_error <= top):
            return _i_ae_composed(spec, D, w)
        x = 0.0 if g_intact < 0.0 else 1.0 if g_intact > 1.0 else g_intact
        y = 1.0 - x
        i_intact = 1.0 + (x * log(x) if x > 0.0 else 0.0) / ln_d + (y * log(y / m) if y > 0.0 else 0.0) / ln_d
        x = 0.0 if g_error < 0.0 else 1.0 if g_error > 1.0 else g_error
        y = 1.0 - x
        i_error = 1.0 + (x * log(x) if x > 0.0 else 0.0) / ln_d + (y * log(y / m) if y > 0.0 else 0.0) / ln_d
        return intact * i_intact + D * i_error

    return objective


def i_ab(spec: ProtocolSpec, disturbance: Real) -> Real:
    """Sender-receiver mutual information (dits) of the symmetric channel in spec's dimension."""
    spec.check_disturbance(disturbance)
    return i_d(1.0 - disturbance, spec.dim)


def dits_to_bits(value: float, d: int) -> float:
    """Convert an information value from dits (log base d) to bits."""
    return value * math.log2(d)
