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

``i_ae`` is one body, ``(1 - D) i_d(phi) + D i_d(lambda)`` on the two
guess probabilities, for every input kind. The three-basis w-search of
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
    g_intact, g_error = _guess_pair(spec, disturbance, w)
    d = spec.dim
    return (1.0 - disturbance) * i_d(g_intact, d) + disturbance * i_d(g_error, d)


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
