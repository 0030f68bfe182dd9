"""Closed-form information quantities of the attack, in dits (log base d).

Both protocols share the closed forms: with c = ``ProtocolSpec.z_factor``,
the no-error guess probability is ``phi_d`` at the overlap c w (c = -1/2
gives the three-basis qutrit protocol), and the error one is ``lambda_d`` at
w. The tests check them against a second route, which reads each block's
coefficients from its Gram eigenvalues (``AttackParams.coeff_pairs``, through
``tests/oracles.py``): the two agree to 1e-12 away from the zeros of the
radicands.

The closed forms take D and w as floats and return a float; their
logarithms and roots are ``math``'s, so they run without numpy, and
``critical`` with them. An int or a numpy scalar takes the same float body
(``tests/test_input_kinds.py`` pins what each returns). A numpy array of two
or more values is not a kind they take: the first range test asks for its
truth value, and numpy raises ValueError. Range tests are written as chained
comparisons, ``if not (lo <= x <= hi)``, so NaN fails them.

``i_ae`` with a float D and a float w goes through ``_i_ae_at(spec, D)``:
one fused float objective of w, bit for bit the helpers' result, which forms
the terms of D once and makes the helpers' range tests inline. Where a test
fails, it runs the helpers, so the error is theirs. Numpy scalars and ints
take the helpers directly. The three-basis w-search of
``optimize.optimal_w`` finds a root of ``_i_ae_slope_at(spec, D)``, the
closed-form dI_AE/dw, written in the same d and c.
"""

from __future__ import annotations

import math
from typing import Callable

from .bases import RADICAND_SLACK, ProtocolSpec
from .errors import DomainError


def _clamp_probability(x: float, what: str) -> float:
    if not (-RADICAND_SLACK <= x <= 1.0 + RADICAND_SLACK):
        raise DomainError(f"{what} = {x} is outside [0, 1]")
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x  # min(max(x, 0.0), 1.0), keeping a -0.0


def _sqrt_radicand(value: float, what: str) -> float:
    if not value >= -RADICAND_SLACK:
        raise DomainError(f"radicand {what} = {value} is not >= 0")
    return math.sqrt(0.0 if value < 0.0 else value)


def _x_log_x_over(x: float, c: int) -> float:
    """x ln(x / c) for x >= 0, with 0 ln 0 := 0."""
    return x * math.log(x / c) if x > 0.0 else 0.0


def i_d(x: float, d: int) -> float:
    """Mutual information (dits) of the symmetric d-ary channel with diagonal x.

    i_d(x) = 1 + x log_d x + (1 - x) log_d[(1 - x)/(d - 1)], with 0 log 0 := 0.
    d is not checked here; the callers take it from a ProtocolSpec.
    """
    x = _clamp_probability(x, "probability")
    ln_d = math.log(d)
    return 1.0 + _x_log_x_over(x, 1) / ln_d + _x_log_x_over(1.0 - x, d - 1) / ln_d


def phi_d(disturbance: float, w: float, d: int) -> float:
    """Eavesdropper's correct-guess probability when the qudit arrived intact; d is not checked here."""
    if not disturbance < 1.0:
        raise DomainError(f"disturbance must be < 1, got {disturbance}")
    d = float(d)  # float-only arithmetic is faster than mixed; the values are those of the int d
    spread = (d - 1) * w
    rad = (d - 1) * disturbance * (1.0 + spread) * (d - disturbance * (1.0 + d + spread))
    root = _sqrt_radicand(rad, "D [1 + (d-1) w] {d - D [1 + d + (d-1) w]}")
    value = (d + disturbance * (-2.0 + (d - 2) * (d - 1) * w) + 2.0 * root) / (
        d * d * (1.0 - disturbance)
    )
    return _clamp_probability(value, "phi_d")


def lambda_d(w: float, d: int) -> float:
    """Eavesdropper's correct-guess probability when the receiver got an error; d is not checked here."""
    if not (-1.0 / (d - 1) - RADICAND_SLACK <= w <= 1.0 + RADICAND_SLACK):
        raise DomainError(f"w = {w} outside [{-1.0 / (d - 1)}, 1]")
    root = _sqrt_radicand((1.0 - w) * (1.0 + (d - 1) * w), "(1 - w)(1 + (d-1) w)")
    value = ((1.0 + (d - 1) * w) + (d - 1) ** 2 * (1.0 - w) + 2.0 * (d - 1) * root) / (d * d)
    return _clamp_probability(value, "lambda_d")


def _guess_pair(spec: ProtocolSpec, disturbance: float, w: float) -> tuple[float, float]:
    """(no-error, error) guess probabilities: phi_d at the overlap c w (c = spec.z_factor), lambda_d at w."""
    return phi_d(disturbance, spec.z_factor * w, spec.dim), lambda_d(w, spec.dim)


def guess_probability(spec: ProtocolSpec, disturbance: float, w: float) -> float:
    """Probability that the eavesdropper names the sent symbol correctly."""
    g_intact, g_error = _guess_pair(spec, disturbance, w)
    return (1.0 - disturbance) * g_intact + disturbance * g_error


def i_ae(spec: ProtocolSpec, disturbance: float, w: float) -> float:
    """Sender-eavesdropper mutual information (dits) for the given attack."""
    if disturbance.__class__ is float and w.__class__ is float:
        return _i_ae_at(spec, disturbance)(w)
    return _i_ae_composed(spec, disturbance, w)


def _i_ae_composed(spec: ProtocolSpec, disturbance: float, w: float) -> float:
    """i_ae through the helpers; they make the range tests and raise their errors."""
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


def _i_ae_slope_at(spec: ProtocolSpec, disturbance: float) -> Callable[[float], float]:
    """w -> d i_ae / dw for a float D > 0 in spec's range and w inside admissible_w_interval.

    With g1 = phi_d(D, c w) (c = spec.z_factor), g2 = lambda_d(w) and i_d's
    derivative ln(g (d-1)/(1-g)) / ln d, the slope is

        [(1-D) g1' ln(g1 (d-1)/(1-g1)) + D g2' ln(g2 (d-1)/(1-g2))] / ln d.

    The logarithms are written without cancellation, as
    log1p((d g - 1)/(1 - g)) with d g - 1 and 1 - g as exact rearrangements
    of the closed forms, so they hold their digits where g nears 1/d or 1.
    g1 = 1 only where P = D (1 + (d-1) c w) - (d-1)(1-D) is 0, and
    g2 = 1 only at w = 0; there g' is 0 too, and the term's limit is 0. No
    range tests: the w-search calls it inside the admissible interval only,
    and only at D > 0, as phi's radicand is 0 for every w at D = 0.
    """
    d, c, D = float(spec.dim), spec.z_factor, disturbance
    m = d - 1.0
    intact = 1.0 - D
    # phi's radicand is R = (d-1) D a b, with a = 1 + (d-1) v and b = d - D (d + a) at v = c w,
    # and dR/dv = (d-1)^2 D (b - D a). Then d^2 (1-D) g1' = c (S + (dR/dv)/sqrt R) with
    # S = D (d-2)(d-1), and (1 - g1)(1-D)(N + 2 sqrt R) = P^2 with N = d^2 (1-D) - d + 2D - S v.
    s = D * (d - 2.0) * m
    n_offset = d * d * intact - d + 2.0 * D
    scale = 1.0 / (d * d * math.log(d))
    sqrt, log1p = math.sqrt, math.log1p

    def slope(w: float) -> float:
        v = c * w
        a = 1.0 + m * v
        b = d - D * (d + a)
        root = sqrt(m * D * a * b)
        p = D * a - m * intact
        total = 0.0
        if p:
            g_slope = s + m * m * D * (b - D * a) / root
            miss = p * p / ((n_offset - s * v + 2.0 * root) * intact)
            excess = (D * (d - 2.0) * a + 2.0 * root) / (d * intact)
            total = c * g_slope * log1p(excess / miss)
        if w:
            # Q = (1 - w)(1 + (d-1) w); d^2 g2' = (d-1) w [(d-2)((d-1) w - d + 2)/(1 + sqrt Q) - 2 (d-1)] / sqrt Q
            root = sqrt((1.0 - w) * (1.0 + m * w))
            miss = m * w * w / (2.0 + (d - 2.0) * w + 2.0 * root)
            excess = m * ((d - 2.0) * (1.0 - w) + 2.0 * root) / d
            g_slope = m * w * ((d - 2.0) * (m * w - d + 2.0) / (1.0 + root) - 2.0 * m) / root
            total += D * g_slope * log1p(excess / miss)
        return total * scale

    return slope


def i_ab(spec: ProtocolSpec, disturbance: float) -> float:
    """Sender-receiver mutual information (dits) of the symmetric channel in spec's dimension."""
    spec.check_disturbance(disturbance)
    return i_d(1.0 - disturbance, spec.dim)


def dits_to_bits(value: float, d: int) -> float:
    """Convert an information value from dits (log base d) to bits."""
    return value * math.log2(d)
