"""The eavesdropper's optimal w (guess probability for two bases, I_AE for (3,3)) and the D_c search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, DomainError, failed_value, holds
from .bases import ProtocolSpec
from .information import Real, i_ab, i_ae

INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Bracket widths at which the golden-section search over w and the bisection over D stop.
GOLDEN_TOL = 1e-10
BISECTION_WIDTH = 1e-12

# Shrink applied to radical-zero endpoints of the w-interval; derivatives of
# the guess probabilities blow up there.
EDGE_SHRINK = 1e-9


@dataclass(frozen=True)
class OptimumReport:
    """maximize_w's result at fixed D: the w maximising the guess probability (two bases) or I_AE (3,3)."""

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

    d_c: float
    gap_at_dc: float


def w_bar(d: int, disturbance: Real) -> Real:
    """Optimal overlap for the two-basis protocol: w = (d/(d-1)) ((d-1)/d - D)."""
    spec = ProtocolSpec(d)
    spec.check_disturbance(disturbance)
    return _w_bar(spec, disturbance)


def _w_bar(spec: ProtocolSpec, disturbance: Real) -> Real:
    """w_bar on a checked spec and D, unchecked."""
    return (spec.dim / (spec.dim - 1.0)) * (spec.max_disturbance - disturbance)


def d_c_closed_form(d: int) -> float:
    """Closed-form critical disturbance of the two-basis protocol: (1 - 1/sqrt(d))/2."""
    d = ProtocolSpec(d).dim
    return 0.5 * (1.0 - 1.0 / math.sqrt(d))


def admissible_w_interval(spec: ProtocolSpec, disturbance: Real) -> tuple[Real, Real]:
    """w-interval on which all guess-probability radicands are nonnegative.

    lambda's interval [-1/(d-1), 1] meets the preimage under w -> c w
    (c = spec.z_factor) of phi's [-1/(d-1), (d/D - 1 - d)/(d-1)], whose top
    is +inf at D = 0. Endpoints are shrunk by a small margin because the
    derivatives are singular where a radicand vanishes. For an array of D,
    the arrays of the interval's ends. D must lie in spec's range.
    """
    spec.check_disturbance(disturbance)
    if isinstance(disturbance, np.ndarray):
        bounds = [_w_interval(spec, D) for D in disturbance.ravel().tolist()]
        lo, hi = np.array(bounds).T.reshape((2,) + disturbance.shape)
        return lo, hi
    return _w_interval(spec, disturbance)


def _w_interval(spec: ProtocolSpec, disturbance: float) -> tuple[float, float]:
    """admissible_w_interval at one checked D."""
    d, c = spec.dim, spec.z_factor
    bottom = -1.0 / (d - 1)
    # phi's radicand needs d - D [1 + d + (d-1) c w] >= 0
    top = (d / disturbance - 1.0 - d) / (d - 1.0) if disturbance > 0.0 else math.inf
    lo, hi = (bottom / c, top / c) if c > 0.0 else (top / c, bottom / c)
    lo = max(bottom, lo) + EDGE_SHRINK
    hi = min(1.0, hi) - EDGE_SHRINK
    if not lo < hi:  # only where 1/(d-1) is near EDGE_SHRINK, d of order 1e9
        raise DomainError(
            f"empty admissible w-interval for d={d}, bases={spec.bases_count}, D={disturbance}"
        )
    return lo, hi


def golden_section_maximize(f, lo: Real, hi: Real) -> Real:
    """Locate the maximum of a unimodal function on [lo, hi] to width GOLDEN_TOL.

    The search also stops once a step leaves the bracket no narrower, as it
    does where the float spacing of the bounds exceeds GOLDEN_TOL. Array
    bounds run one search per element in lockstep, on an f that maps arrays
    element-wise. Each element does the float loop's arithmetic, takes its
    own branch and stops at its own width, so it returns what a float call
    on its bounds returns, bit for bit. The bracket must be finite with
    lo <= hi, on every element.
    """
    in_range = (-math.inf < lo) & (lo <= hi) & (hi < math.inf)
    if not holds(in_range):
        raise DomainError(
            f"need a finite bracket lo <= hi, got lo={failed_value(lo, in_range)}, hi={failed_value(hi, in_range)}"
        )
    if isinstance(lo, np.ndarray):
        return _golden_section_lockstep(f, lo, hi)
    a, b = lo, hi
    c = b - INV_GOLDEN * (b - a)
    d = a + INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    width = math.inf
    while GOLDEN_TOL < b - a < width:
        width = b - a
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + INV_GOLDEN * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - INV_GOLDEN * (b - a)
            fc = f(c)
    return 0.5 * (a + b)


def _golden_section_lockstep(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    a, b = lo, hi
    c = b - INV_GOLDEN * (b - a)
    d = a + INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    running = b - a > GOLDEN_TOL
    while running.any():
        width = b - a
        up = running & (fc < fd)  # the float loop's first branch: a moves up to c
        down = running & ~up
        a, b = np.where(up, c, a), np.where(down, d, b)
        c, d = np.where(up, d, c), np.where(down, c, d)
        fc, fd = np.where(up, fd, fc), np.where(down, fc, fd)
        # Elements that have stopped probe inside their final bracket; their values are dropped.
        probe = np.where(up, a + INV_GOLDEN * (b - a), b - INV_GOLDEN * (b - a))
        f_probe = f(probe)
        c, fc = np.where(down, probe, c), np.where(down, f_probe, fc)
        d, fd = np.where(up, probe, d), np.where(up, f_probe, fd)
        running &= (b - a > GOLDEN_TOL) & (b - a < width)
    return 0.5 * (a + b)


def _central_difference(f, x: float, step: float) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def _fd_step(w: float, lo: float, hi: float) -> float:
    """Finite-difference step at w: at most 1e-5, and w +- step stays in [lo, hi] (<= 0 at an edge)."""
    return min(1e-5, 0.5 * (hi - w), 0.5 * (w - lo))


def stationarity(spec: ProtocolSpec, disturbance: float, w: float) -> tuple[float, float]:
    """(step, |d i_ae / dw|) at w by a central difference inside the admissible interval.

    Where no step fits, w sits at or beyond an edge of the interval, and the
    residual is |w - optimal_w| with step 0: exactly 0 for the optimiser's own w.
    """
    step = _fd_step(w, *admissible_w_interval(spec, disturbance))
    if not step > 0.0:
        return 0.0, abs(w - optimal_w(spec, disturbance))
    return step, abs(_central_difference(lambda x: i_ae(spec, disturbance, x), w, step))


def _second_difference(f, x: Real, step: float) -> Real:
    return f(x + step) - 2.0 * f(x) + f(x - step)


def maximize_w(spec: ProtocolSpec, disturbance: float) -> OptimumReport:
    """The eavesdropper's w at fixed D: maximiser of the guess probability (two bases) or of I_AE (3,3).

    The two-basis route returns the closed-form stationary overlap w_bar and
    verifies stationarity by a central finite difference; every downstream
    quantity (information curves, critical disturbances) is defined on this
    stationary curve. w_bar is the global maximiser of the guess probability
    (the tests witness it), not of i_ae: i_ae(D, w) is not concave near
    w = 1, for small D it exceeds the stationary value there by up to a few
    1e-5 dits (d = 3; more for d >= 4), and for d = 3 w_bar is a local
    minimum of i_ae for D < 0.0642 and a strict local maximum above — see the
    optimizer tests. The three-basis optimum has no closed form and is found
    by golden-section search on the admissible interval.
    """
    w_opt = optimal_w(spec, disturbance)
    f = lambda w: i_ae(spec, disturbance, w)
    step, residual = stationarity(spec, disturbance, w_opt)
    return OptimumReport(
        w_opt=w_opt,
        i_ae_opt=f(w_opt),
        method="analytic" if spec.bases_count == 2 else "golden-section",
        stationarity_residual=residual,
        # 0 where the optimum is pinned at an interval edge
        concavity_witness=_second_difference(f, w_opt, step) if step else 0.0,
    )


def optimal_w(spec: ProtocolSpec, disturbance: Real) -> Real:
    """maximize_w's w, the w "auto" means, at each disturbance, a float or an array.

    For two bases it is w_bar (the guess-probability maximiser) clamped to the
    admissible interval, for three the golden-section maximiser of i_ae; an
    array of D is one lockstep search, not one per element.
    """
    lo, hi = admissible_w_interval(spec, disturbance)
    if spec.bases_count == 2:
        w = _w_bar(spec, disturbance)
        # min(max(w, lo), hi); lo < hi
        if isinstance(w, np.ndarray):
            return np.where(w < lo, lo, np.where(w > hi, hi, w))
        return lo if w < lo else hi if w > hi else w
    return golden_section_maximize(lambda w: i_ae(spec, disturbance, w), lo, hi)


def i_ae_optimal(spec: ProtocolSpec, disturbance: Real) -> Real:
    """The eavesdropper's information (dits) at optimal_w's w, the w "auto" means."""
    return i_ae(spec, disturbance, optimal_w(spec, disturbance))


def critical_disturbance(spec: ProtocolSpec) -> CriticalPoint:
    """Bisection for the disturbance where I_AE(optimal) first reaches I_AB.

    The bracket is [1e-4, (d-1)/d - 1e-4]; the gap must be negative at the low
    end and positive at the high end. Bisection stops at a bracket width of
    BISECTION_WIDTH, so the residual gap at the returned point is negligible.
    """
    gap = lambda disturbance: i_ae_optimal(spec, disturbance) - i_ab(spec, disturbance)
    lo = 1e-4
    hi = spec.max_disturbance - 1e-4
    if not gap(lo) < 0.0:
        raise AnalysisError(f"information gap is not negative at D={lo}; no crossing bracket")
    if not gap(hi) > 0.0:
        raise AnalysisError(f"information gap is not positive at D={hi}; no crossing bracket")
    while hi - lo > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    d_c = 0.5 * (lo + hi)
    return CriticalPoint(d_c=d_c, gap_at_dc=gap(d_c))
