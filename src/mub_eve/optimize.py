"""The eavesdropper's optimal w (guess probability for two bases, I_AE for (3,3)) and the D_c search.

The two-basis w is the closed-form w_bar. The three-basis w is the root of
I_AE's analytic slope (``information._i_ae_slope_at``) on a bracket between
the peaks of the two guess probabilities, halved once before the zero finder
starts, as the slope can be singular at the bracket's low end. The critical
disturbance D_c is the root of the gap I_AE(optimal) - I_AB on a bracket in
D. Both roots come from one zero finder, Brent's (R. P. Brent, *Algorithms
for Minimization without Derivatives*, 1973, ch. 4). Every w input is read
by one rule, ``resolve_w``: "auto" (optimal_w's w) or a finite real number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from .errors import AnalysisError, DomainError
from .bases import ProtocolSpec
from .information import _i_ae_slope_at, i_ab, i_ae

# The root finder stops at a bracket of 4 ulps of the root plus 2 ulps of 1.0, the
# scale of the ranges of w and D.
ROOT_TOL = 2.0**-52

# Shrink applied to radical-zero endpoints of the w-interval; derivatives of
# the guess probabilities blow up there.
EDGE_SHRINK = 1e-9


@dataclass(frozen=True)
class OptimumReport:
    """maximize_w's result at fixed D: the w maximising the guess probability (two bases) or I_AE (3,3)."""

    w_opt: float
    i_ae_opt: float
    method: str  # "analytic" or "slope-root"
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


def w_bar(d: int, disturbance: float) -> float:
    """Optimal overlap for the two-basis protocol: w = (d/(d-1)) ((d-1)/d - D)."""
    spec = ProtocolSpec(d)
    spec.check_disturbance(disturbance)
    return _w_bar(spec, disturbance)


def _w_bar(spec: ProtocolSpec, disturbance: float) -> float:
    """w_bar on a checked spec and D, unchecked."""
    return (spec.dim / (spec.dim - 1.0)) * (spec.max_disturbance - disturbance)


def d_c_closed_form(d: int) -> float:
    """Closed-form critical disturbance of the two-basis protocol: (1 - 1/sqrt(d))/2."""
    d = ProtocolSpec(d).dim
    return 0.5 * (1.0 - 1.0 / math.sqrt(d))


def admissible_w_interval(spec: ProtocolSpec, disturbance: float) -> tuple[float, float]:
    """w-interval on which all guess-probability radicands are nonnegative.

    lambda's interval [-1/(d-1), 1] meets the preimage under w -> c w
    (c = spec.z_factor) of phi's [-1/(d-1), (d/D - 1 - d)/(d-1)], whose top
    is +inf at D = 0. Endpoints are shrunk by a small margin because the
    derivatives are singular where a radicand vanishes. D must lie in spec's
    range.
    """
    spec.check_disturbance(disturbance)
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


def _central_difference(f, x: float, step: float) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def _fd_step(w: float, lo: float, hi: float) -> float:
    """Finite-difference step at w: at most 1e-5, and w +- step stays in [lo, hi] (<= 0 at an edge)."""
    return min(1e-5, 0.5 * (hi - w), 0.5 * (w - lo))


def stationarity(spec: ProtocolSpec, disturbance: float, w: float) -> tuple[float, float]:
    """(step, |d i_ae / dw|) at w by a central difference of i_ae inside the admissible interval.

    Where no step fits, w sits at or beyond an edge of the interval, and the
    residual is |w - optimal_w| with step 0: exactly 0 for the optimiser's own w.
    """
    step = _fd_step(w, *admissible_w_interval(spec, disturbance))
    if not step > 0.0:
        return 0.0, abs(w - optimal_w(spec, disturbance))
    return step, abs(_central_difference(lambda x: i_ae(spec, disturbance, x), w, step))


def _second_difference(f, x: float, step: float) -> float:
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
    optimizer tests. The three-basis optimum has no closed form: it is the
    root of the analytic slope of i_ae on the admissible interval.
    """
    w_opt = optimal_w(spec, disturbance)
    f = lambda w: i_ae(spec, disturbance, w)
    step, residual = stationarity(spec, disturbance, w_opt)
    return OptimumReport(
        w_opt=w_opt,
        i_ae_opt=f(w_opt),
        method="analytic" if spec.bases_count == 2 else "slope-root",
        stationarity_residual=residual,
        # 0 where the optimum is pinned at an interval edge
        concavity_witness=_second_difference(f, w_opt, step) if step else 0.0,
    )


def optimal_w(spec: ProtocolSpec, disturbance: float) -> float:
    """maximize_w's w, the w "auto" means, at a disturbance.

    For two bases it is w_bar (the guess-probability maximiser) clamped to the
    admissible interval. For three it is the maximiser of i_ae: the root of
    its analytic slope, to a bracket of a few ulps (ROOT_TOL), or the interval
    edge where the slope does not change sign. i_ae rises with each guess
    probability, which is at least 1/d; lambda_d peaks at w = 0, and phi_d at
    the overlap where D (1 + (d-1) c w) = (d-1)(1-D). So the slope is
    positive below both peaks and negative above them, and the root lies
    between them. For (3, 3) and D up to 4/7 the low end of that bracket is
    the interval's edge, where lambda's radicand vanishes and the slope is
    about 10^3 times its size near the root; a secant step through it lands
    near the other end. So the slope is read first at the bracket's midpoint,
    and the zero finder gets the half where it changes sign; an end is read
    only on that half, or to return it. A bracket already within the zero
    finder's tolerance (at D = 2/3, both peaks are at 0) is not halved. At
    D = 0, i_ae is 0 for every w, and the result is the low edge. Any scalar
    D gives a float.
    """
    lo, hi = admissible_w_interval(spec, disturbance)
    if spec.bases_count == 2:
        w = _w_bar(spec, disturbance)
        return lo if w < lo else hi if w > hi else w  # min(max(w, lo), hi); lo < hi
    D = float(disturbance)
    if D == 0.0:
        return lo
    d, c = spec.dim, spec.z_factor
    peak = ((d - 1) * (1.0 - D) / D - 1.0) / ((d - 1) * c)
    a, b = max(lo, min(0.0, peak)), min(hi, max(0.0, peak))  # 0 lies in [lo, hi]
    slope = _i_ae_slope_at(spec, D)
    mid = 0.5 * (a + b) if b - a > 2.0 * ROOT_TOL else b  # one bisection step
    fm = slope(mid)
    if fm > 0.0:
        fb = fm if mid == b else slope(b)
        if not fb < 0.0:
            return b
        return _bracketed_root(slope, mid, b, fm, fb)[0]
    fa = slope(a)
    if not fa > 0.0:
        return a
    return _bracketed_root(slope, a, mid, fa, fm)[0]


def resolve_w(spec: ProtocolSpec, disturbance: float, w: float | str) -> float:
    """A w input as a float: "auto" is optimal_w's w at D, a finite real number (not a bool) itself."""
    if isinstance(w, str) and w == "auto":
        return optimal_w(spec, disturbance)
    if isinstance(w, bool) or not (isinstance(w, Real) and math.isfinite(w)):
        raise DomainError(f"w must be a real number or 'auto', got {w!r}")
    return float(w)


def _bracketed_root(f, a: float, b: float, fa: float, fb: float) -> tuple[float, float]:
    """(x, f(x)) at a root x of f between a and b, where fa = f(a) and fb = f(b) have opposite signs.

    Brent's zero finder: inverse quadratic or secant steps, replaced by
    bisection where they would leave the bracket or shrink it too slowly. It
    stops once the bracket around the returned root x is at most 2 tol wide,
    tol = 2 ROOT_TOL |x| + ROOT_TOL. f(x) is the value it already read there.
    """
    c, fc = a, fa
    e = step = b - a  # e: the step before the current one
    while True:
        if abs(fc) < abs(fb):  # b is the best estimate, c the other end of the bracket
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * ROOT_TOL * abs(b) + ROOT_TOL
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            return b, fb
        if abs(e) < tol or abs(fa) <= abs(fb):
            e = step = half
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < 3.0 * half * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, step = step, p / q
            else:
                e = step = half
        a, fa = b, fb
        b += step if abs(step) > tol else tol if half > 0.0 else -tol
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            e = step = b - a


def i_ae_optimal(spec: ProtocolSpec, disturbance: float) -> float:
    """The eavesdropper's information (dits) at optimal_w's w, the w "auto" means."""
    return i_ae(spec, disturbance, optimal_w(spec, disturbance))


def critical_disturbance(spec: ProtocolSpec) -> CriticalPoint:
    """The disturbance where I_AE(optimal) first reaches I_AB: the root of their gap.

    The bracket is [1e-4, (d-1)/d - 1e-4]; the gap must be negative at the low
    end and positive at the high end. The zero finder stops at a bracket of a
    few ulps of D_c (ROOT_TOL), so the residual gap at the returned point is
    at rounding level; it is the finder's own evaluation there, so no D is
    evaluated twice.
    """
    gap = lambda disturbance: i_ae_optimal(spec, disturbance) - i_ab(spec, disturbance)
    lo = 1e-4
    hi = spec.max_disturbance - 1e-4
    gap_lo, gap_hi = gap(lo), gap(hi)
    if not gap_lo < 0.0:
        raise AnalysisError(f"information gap is not negative at D={lo}; no crossing bracket")
    if not gap_hi > 0.0:
        raise AnalysisError(f"information gap is not positive at D={hi}; no crossing bracket")
    d_c, gap_at_dc = _bracketed_root(gap, lo, hi, gap_lo, gap_hi)
    return CriticalPoint(d_c=d_c, gap_at_dc=gap_at_dc)
