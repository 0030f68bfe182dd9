"""Maximisation of the eavesdropper's information and critical-disturbance search."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AnalysisError, DomainError
from .bases import ProtocolSpec
from .information import guess_probability, i_ab, i_ae, lambda_d, phi_d

INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Shrink applied to radical-zero endpoints of the w-interval; derivatives of
# the guess probabilities blow up there.
EDGE_SHRINK = 1e-9


@dataclass(frozen=True)
class OptimumReport:
    """Result of maximising the eavesdropper's information over w at fixed D."""

    D: float
    w_opt: float
    i_ae_opt: float
    method: str  # "analytic" or "golden-section"
    stationarity_residual: float
    # Second finite difference of i_ae at w_opt; negative where the optimum is a
    # local maximum of i_ae. For d = 3 with two bases the stationary overlap
    # w_bar is a local minimum of i_ae for D < 0.0642 and a strict local
    # maximum above; the three-basis optimum is a local maximum.
    concavity_witness: float


@dataclass(frozen=True)
class CriticalPoint:
    """Disturbance where the eavesdropper's curve crosses the receiver's."""

    dim: int
    bases_count: int
    d_c: float
    gap_at_dc: float


def w_bar(d: int, disturbance: float) -> float:
    """Optimal overlap for the two-basis protocol: w = (d/(d-1)) ((d-1)/d - D)."""
    spec = ProtocolSpec(d)
    spec.check_disturbance(disturbance)
    return (d / (d - 1.0)) * (spec.max_disturbance - disturbance)


def d_c_closed_form(d: int) -> float:
    """Closed-form critical disturbance of the two-basis protocol: (1 - 1/sqrt(d))/2."""
    d = ProtocolSpec(d).dim
    return 0.5 * (1.0 - 1.0 / math.sqrt(d))


def admissible_w_interval(spec: ProtocolSpec, disturbance: float) -> tuple[float, float]:
    """w-interval on which all guess-probability radicands are nonnegative.

    Endpoints are shrunk by a small margin because the derivatives are
    singular where a radicand vanishes.
    """
    d = spec.dim
    lo = -1.0 / (d - 1)
    hi = 1.0
    if disturbance > 0.0:
        if spec.bases_count == 2:
            # phi radicand needs d - D [1 + d + (d-1) w] >= 0
            hi = min(hi, (d / disturbance - 1.0 - d) / (d - 1.0))
        else:
            # mu radicand needs 3 + D (w - 4) >= 0
            lo = max(lo, 4.0 - 3.0 / disturbance)
    lo += EDGE_SHRINK
    hi -= EDGE_SHRINK
    if not lo < hi:
        raise DomainError(
            f"empty admissible w-interval for d={d}, bases={spec.bases_count}, D={disturbance}"
        )
    return lo, hi


def golden_section_maximize(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Locate the maximum of a unimodal function on [lo, hi] to width tol."""
    a, b = lo, hi
    c = b - INV_GOLDEN * (b - a)
    d = a + INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + INV_GOLDEN * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - INV_GOLDEN * (b - a)
            fc = f(c)
    return 0.5 * (a + b)


def _central_difference(f, x: float, step: float) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def _fd_step(w: float, lo: float, hi: float, cap: float = 1e-5) -> float:
    """Finite-difference step at w: at most cap, and w +- step stays in [lo, hi] (<= 0 at an edge)."""
    return min(cap, 0.5 * (hi - w), 0.5 * (w - lo))


def stationarity(f, w: float, lo: float, hi: float) -> tuple[float, float]:
    """(step, |f'(w)|) by a central difference inside [lo, hi]; (0, 0) where w sits at an edge."""
    step = _fd_step(w, lo, hi)
    if not step > 0.0:
        return 0.0, 0.0
    return step, abs(_central_difference(f, w, step))


def _second_difference(f, x: float, step: float) -> float:
    return f(x + step) - 2.0 * f(x) + f(x - step)


def _worst_grid_second_difference(f, lo: float, hi: float) -> float:
    """Largest second difference of f over 100 interior grid points, half-step each."""
    n = 100
    h = (hi - lo) / (n + 1)
    return max(_second_difference(f, lo + k * h, 0.5 * h) for k in range(1, n + 1))


def maximize_w(spec: ProtocolSpec, disturbance: float, tol: float = 1e-10) -> OptimumReport:
    """Maximise the eavesdropper's information over w at fixed disturbance.

    The two-basis route returns the closed-form stationary overlap w_bar and
    verifies stationarity by a central finite difference; every downstream
    quantity (information curves, critical disturbances) is defined on this
    stationary curve. w_bar is the global maximiser of the guess probability
    (see optimality_witnesses), not of i_ae: i_ae(D, w) is not concave near
    w = 1, for small D it exceeds the stationary value there by up to a few
    1e-5 dits (d = 3; more for d >= 4), and for d = 3 w_bar is a local
    minimum of i_ae for D < 0.0642 and a strict local maximum above — see the
    optimizer tests. The three-basis optimum has no closed form and is found
    by golden-section search on the admissible interval.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    lo, hi = admissible_w_interval(spec, disturbance)
    w_opt = _auto_w(spec, disturbance, lo, hi, tol)
    f = lambda w: i_ae(spec, disturbance, w)
    step, residual = stationarity(f, w_opt, lo, hi)
    return OptimumReport(
        D=disturbance,
        w_opt=w_opt,
        i_ae_opt=f(w_opt),
        method="analytic" if spec.bases_count == 2 else "golden-section",
        stationarity_residual=residual,
        # 0 where the optimum is pinned at an interval edge
        concavity_witness=_second_difference(f, w_opt, step) if step else 0.0,
    )


def _auto_w(spec: ProtocolSpec, disturbance: float, lo: float, hi: float, tol: float = 1e-10) -> float:
    """The w "auto" means: w_bar (the guess-probability maximiser) clamped to [lo, hi]
    for two bases, the golden-section maximiser of i_ae for three."""
    if spec.bases_count == 2:
        return min(max(w_bar(spec.dim, disturbance), lo), hi)
    spec.check_disturbance(disturbance)
    return golden_section_maximize(lambda w: i_ae(spec, disturbance, w), lo, hi, tol)


def i_ae_optimal(spec: ProtocolSpec, disturbance: float) -> float:
    """Optimal eavesdropper information at the given disturbance (dits); maximize_w's w."""
    lo, hi = admissible_w_interval(spec, disturbance)
    return i_ae(spec, disturbance, _auto_w(spec, disturbance, lo, hi))


def critical_disturbance(spec: ProtocolSpec, tol: float = 1e-6) -> CriticalPoint:
    """Bisection for the disturbance where I_AE(optimal) first reaches I_AB.

    The bracket is [1e-4, (d-1)/d - 1e-4]; the gap must be negative at the low
    end and positive at the high end. Bisection stops at a bracket width of
    min(tol, 1e-12), so tol only matters below 1e-12 and the residual gap at
    the returned point is negligible.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    gap = lambda disturbance: i_ae_optimal(spec, disturbance) - i_ab(spec.dim, disturbance)
    lo = 1e-4
    hi = spec.max_disturbance - 1e-4
    if not gap(lo) < 0.0:
        raise AnalysisError(f"information gap is not negative at D={lo}; no crossing bracket")
    if not gap(hi) > 0.0:
        raise AnalysisError(f"information gap is not positive at D={hi}; no crossing bracket")
    width = min(tol, 1e-12)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    d_c = 0.5 * (lo + hi)
    return CriticalPoint(dim=spec.dim, bases_count=spec.bases_count, d_c=d_c, gap_at_dc=gap(d_c))


@dataclass(frozen=True)
class OptimalityWitnesses:
    """Numeric evidence that w_bar maximises the d=3 two-basis guess probability.

    The guess probability G = (1-D) phi + D lambda is stationary at w_bar
    (phi'/lambda' = D/(D-1)) and concave on the admissible interval, so w_bar
    is its global maximiser; there phi = lambda, where i_ae meets its lower
    bound i_d(G).

    phi_equals_lambda: |phi(D, w_bar) - lambda(w_bar)|.
    derivative_ratio: |d_w phi / d_w lambda at w_bar - D/(D-1)| by finite differences.
    guess_concavity: max second difference of G over an interior w-grid; the
        optimality witness (< 0 for every D in (0, 2/3)).
    concavity: max second difference of I_AE over the same grid; a shape
        diagnostic only, positive for D <= 0.30 because I_AE is not concave
        near the w = 1 radical boundary.
    """

    D: float
    phi_equals_lambda: float
    derivative_ratio: float
    guess_concavity: float
    concavity: float


def optimality_witnesses(disturbance: float, step: float = 1e-5) -> OptimalityWitnesses:
    """Finite-difference checks of the d=3 two-basis optimum structure.

    The step shrinks below ``step`` where w_bar = 1 - 1.5 D nears the w = 1 radical zero.
    """
    if not 0.0 < disturbance < 2.0 / 3.0:
        raise DomainError(f"disturbance must lie in (0, 2/3), got {disturbance}")
    spec = ProtocolSpec(dim=3, bases_count=2)
    wb = w_bar(3, disturbance)
    equality = abs(phi_d(disturbance, wb, 3) - lambda_d(wb, 3))

    lo, hi = admissible_w_interval(spec, disturbance)
    step = _fd_step(wb, lo - EDGE_SHRINK, hi + EDGE_SHRINK, step)
    dphi = _central_difference(lambda w: phi_d(disturbance, w, 3), wb, step)
    dlam = _central_difference(lambda w: lambda_d(w, 3), wb, step)
    ratio_residual = abs(dphi / dlam - disturbance / (disturbance - 1.0))

    return OptimalityWitnesses(
        D=disturbance,
        phi_equals_lambda=equality,
        derivative_ratio=ratio_residual,
        guess_concavity=_worst_grid_second_difference(
            lambda w: guess_probability(spec, disturbance, w), lo, hi
        ),
        concavity=_worst_grid_second_difference(lambda w: i_ae(spec, disturbance, w), lo, hi),
    )
