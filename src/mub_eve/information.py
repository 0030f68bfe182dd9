"""Closed-form information quantities of the attack, in dits (log base d).

Two routes exist to the eavesdropper's guess probabilities: the closed forms
below and the constructive path through ``s_from_dw`` + ``solve_coeff_pair``.
They agree to 1e-12 away from the zeros of the radicands; the test suite
enforces this. Range tests here are written ``not lo <= x <= hi`` so NaN fails them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .attack import RADICAND_SLACK, s_from_dw, solve_coeff_pair
from .bases import ProtocolSpec
from .errors import DomainError


@dataclass(frozen=True)
class InfoPoint:
    """One sample of the information trade-off curve."""

    D: float
    w: float
    i_ab: float
    i_ae: float


def _clamp_probability(x: float, what: str) -> float:
    if not -RADICAND_SLACK <= x <= 1.0 + RADICAND_SLACK:
        raise DomainError(f"{what} = {x} is outside [0, 1]")
    return min(max(x, 0.0), 1.0)


def _sqrt_radicand(value: float, what: str) -> float:
    if not value >= -RADICAND_SLACK:
        raise DomainError(f"radicand {what} = {value} is not >= 0")
    return math.sqrt(max(value, 0.0))


def i_d(x: float, d: int) -> float:
    """Mutual information (dits) of the symmetric d-ary channel with diagonal x.

    i_d(x) = 1 + x log_d x + (1 - x) log_d[(1 - x)/(d - 1)], with 0 log 0 := 0.
    """
    x = _clamp_probability(x, "probability")
    ln_d = math.log(d)
    acc = 1.0
    if x > 0.0:
        acc += x * math.log(x) / ln_d
    if x < 1.0:
        acc += (1.0 - x) * math.log((1.0 - x) / (d - 1)) / ln_d
    return acc


def phi_d(disturbance: float, w: float, d: int) -> float:
    """Eavesdropper's correct-guess probability when the qudit arrived intact."""
    if not disturbance < 1.0:
        raise DomainError(f"disturbance must be < 1, got {disturbance}")
    rad = (
        (d - 1)
        * disturbance
        * (1.0 + (d - 1) * w)
        * (d - disturbance * (1.0 + d + (d - 1) * w))
    )
    root = _sqrt_radicand(rad, "D [1 + (d-1) w] {d - D [1 + d + (d-1) w]}")
    value = (d + disturbance * (-2.0 + (d - 2) * (d - 1) * w) + 2.0 * root) / (
        d * d * (1.0 - disturbance)
    )
    return _clamp_probability(value, "phi_d")


def lambda_d(w: float, d: int) -> float:
    """Eavesdropper's correct-guess probability when the receiver got an error."""
    if not -1.0 / (d - 1) - RADICAND_SLACK <= w <= 1.0 + RADICAND_SLACK:
        raise DomainError(f"w = {w} outside [{-1.0 / (d - 1)}, 1]")
    root = _sqrt_radicand((1.0 - w) * (1.0 + (d - 1) * w), "(1 - w)(1 + (d-1) w)")
    value = ((1.0 + (d - 1) * w) + (d - 1) ** 2 * (1.0 - w) + 2.0 * (d - 1) * root) / (d * d)
    return _clamp_probability(value, "lambda_d")


def mu_nu_threebasis(disturbance: float, w: float) -> tuple[float, float]:
    """Guess-probability pair (mu, nu) of the three-basis qutrit protocol."""
    if not disturbance < 1.0:
        raise DomainError(f"disturbance must be < 1, got {disturbance}")
    rad = 2.0 * disturbance * (3.0 + disturbance * (w - 4.0)) * (1.0 - w)
    root = _sqrt_radicand(rad, "2 D [3 + D (w - 4)] (1 - w)")
    mu = ((3.0 - disturbance * (w + 2.0)) + 2.0 * root) / (9.0 * (1.0 - disturbance))
    return _clamp_probability(mu, "mu"), lambda_d(w, 3)


def _guess_pair(spec: ProtocolSpec, disturbance: float, w: float) -> tuple[float, float]:
    if spec.bases_count == 2:
        return phi_d(disturbance, w, spec.dim), lambda_d(w, spec.dim)
    return mu_nu_threebasis(disturbance, w)


def guess_probability(spec: ProtocolSpec, disturbance: float, w: float) -> float:
    """Probability that the eavesdropper names the sent symbol correctly."""
    g_intact, g_error = _guess_pair(spec, disturbance, w)
    return (1.0 - disturbance) * g_intact + disturbance * g_error


def i_ae(spec: ProtocolSpec, disturbance: float, w: float) -> float:
    """Sender-eavesdropper mutual information (dits) for the given attack."""
    g_intact, g_error = _guess_pair(spec, disturbance, w)
    d = spec.dim
    return (1.0 - disturbance) * i_d(g_intact, d) + disturbance * i_d(g_error, d)


def i_ab(d: int, disturbance: float) -> float:
    """Sender-receiver mutual information (dits) of the symmetric channel."""
    if not 0.0 <= disturbance <= 1.0:
        raise DomainError(f"disturbance must lie in [0, 1], got {disturbance}")
    return i_d(1.0 - disturbance, d)


def guess_probability_constructive(spec: ProtocolSpec, disturbance: float, w: float) -> tuple[float, float]:
    """(major^2 for the no-error block, major^2 for the error blocks) via the Gram route.

    Independent of the closed forms: goes through the s relation and the
    coefficient solver. phi_d/lambda_d (or mu/nu) must match these squares.
    """
    s = s_from_dw(spec.dim, spec.bases_count, disturbance, w)
    major_s, _ = solve_coeff_pair(s, spec.dim)
    major_w, _ = solve_coeff_pair(w, spec.dim)
    return major_s**2, major_w**2


def dits_to_bits(value: float, d: int) -> float:
    """Convert an information value from dits (log base d) to bits."""
    return value * math.log2(d)
