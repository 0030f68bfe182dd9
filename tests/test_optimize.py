import math

import mpmath
import numpy as np
import pytest

import mub_eve.information as information_mod
import mub_eve.optimize as optimize_mod
from mub_eve import (
    AnalysisError,
    DomainError,
    ProtocolSpec,
    admissible_w_interval,
    critical_disturbance,
    d_c_closed_form,
    i_ab,
    i_ae,
    i_ae_optimal,
    maximize_w,
    optimal_w,
    w_bar,
)
from oracles import _fd_step, _second_difference, golden_section_maximize, optimality_witnesses


def test_w_bar_values():
    assert w_bar(3, 0.0) == pytest.approx(1.0, abs=1e-15)
    for D in np.linspace(0.0, 2 / 3, 20):
        assert w_bar(3, float(D)) == pytest.approx(1.5 * (2 / 3 - float(D)), abs=1e-13)
    assert w_bar(4, 0.25) == pytest.approx(2.0 / 3.0, abs=1e-15)
    with pytest.raises(DomainError):
        w_bar(3, 0.7)


def test_d_c_closed_form_values():
    assert d_c_closed_form(3) == pytest.approx(0.2113248654051871, abs=1e-12)
    assert d_c_closed_form(4) == pytest.approx(0.25, abs=1e-15)
    assert d_c_closed_form(2) == pytest.approx(0.1464466094067262, abs=1e-12)


def test_maximize_w_two_bases():
    report = maximize_w(ProtocolSpec(3, 2), 0.1)
    assert report.method == "analytic"
    assert report.w_opt == pytest.approx(0.85, abs=1e-12)
    assert report.stationarity_residual <= 1e-6
    assert report.i_ae_opt == pytest.approx(i_ae(ProtocolSpec(3, 2), 0.1, 0.85), abs=1e-15)


@pytest.mark.parametrize("D", [0.05, 0.15, 0.2247, 0.4])
def test_maximize_w_three_bases_against_grid_scan(D):
    spec = ProtocolSpec(3, 3)
    report = maximize_w(spec, D)
    assert report.method == "slope-root"
    assert report.stationarity_residual <= 1e-6
    # dense-grid oracle: 1e5 points across the admissible interval
    lo, hi = admissible_w_interval(spec, D)
    ws = np.linspace(lo, hi, 100001)
    vals = np.array([i_ae(spec, D, float(w)) for w in ws])
    assert report.i_ae_opt == pytest.approx(float(vals.max()), abs=1e-8)
    assert report.i_ae_opt >= float(vals.max()) - 1e-8


@pytest.mark.parametrize("D", [0.05, 0.2, 0.45])
def test_three_basis_objective_is_unimodal(D):
    spec = ProtocolSpec(3, 3)
    lo, hi = admissible_w_interval(spec, D)
    vals = np.array([i_ae(spec, D, float(w)) for w in np.linspace(lo, hi, 5001)])
    diffs = np.diff(vals)
    interior_maxima = int(np.sum((diffs[:-1] > 0) & (diffs[1:] < 0)))
    assert interior_maxima == 1


def _info_mp(x):
    """i_3(x) in mpmath at the working precision."""
    return 1 + (x * mpmath.log(x) + (1 - x) * mpmath.log((1 - x) / 2)) / mpmath.log(3)


def _i_ae_mp(D, w):
    """The three-basis I_AE in mpmath, with the literal qutrit forms of the two guess probabilities."""
    intact = (3 - D * (w + 2) + 2 * mpmath.sqrt(2 * D * (3 + D * (w - 4)) * (1 - w))) / (9 * (1 - D))
    error = (5 - 2 * w + 4 * mpmath.sqrt(1 + w - 2 * w**2)) / 9
    return (1 - D) * _info_mp(intact) + D * _info_mp(error)


def _stationary_w_mp(disturbance, dps=50):
    """The three-basis w where dI_AE/dw = 0, in mpmath at dps digits (50 by default).

    The slope is mpmath's numerical derivative of _i_ae_mp, and the root is
    bracketed by the admissible interval.
    """
    lo, hi = admissible_w_interval(ProtocolSpec(3, 3), disturbance)
    with mpmath.workdps(dps):
        D = mpmath.mpf(disturbance)
        root = mpmath.findroot(lambda w: mpmath.diff(lambda v: _i_ae_mp(D, v), w),
                               (mpmath.mpf(lo), mpmath.mpf(hi)), solver="anderson")
        return float(root)


@pytest.mark.parametrize("D", [1e-9, 1e-6, 0.01, 0.05, 0.1, 0.2, 0.2247, 0.4, 0.6, 2 / 3 - 1e-9])
def test_three_basis_w_is_the_high_precision_stationary_point(D):
    spec = ProtocolSpec(3, 3)
    reference = _stationary_w_mp(D)
    assert abs(optimal_w(spec, D) - reference) <= 1e-13
    if D >= 0.01:
        # The golden section stops where I_AE's rounding noise hides its slope.
        lo, hi = admissible_w_interval(spec, D)
        assert abs(golden_section_maximize(lambda w: i_ae(spec, D, w), lo, hi) - reference) <= 5e-8


@pytest.mark.parametrize("D", [5e-324, 1e-320, 1e-315, 1e-310, 1e-300])
def test_three_basis_w_at_a_tiny_disturbance_is_the_high_precision_stationary_point(D):
    # The slope's terms are of order D, subnormal below about 1e-307, so the search reads the slope at
    # SLOPE_D_FLOOR there; the optimum moves as sqrt(D), so every such D has the D -> 0+ optimum. I_AE is
    # of order D and its terms of order 1, so the reference keeps 50 digits of it at 50 + 324 digits.
    assert abs(optimal_w(ProtocolSpec(3, 3), D) - _stationary_w_mp(D, dps=50 + 324)) <= 1e-15


def test_three_basis_w_at_zero_disturbance_is_the_low_edge():
    # I_AE is 0 for every w at D = 0, where phi's radicand, under the slope's square root, is 0.
    spec = ProtocolSpec(3, 3)
    assert optimal_w(spec, 0.0) == admissible_w_interval(spec, 0.0)[0]


def test_three_basis_search_evaluates_few_slopes(monkeypatch):
    # The (3, 3) edge curve of tests/test_golden.py: 101 steps from D = 0.05 to the top of the
    # range, where the maximiser tends to w = 0 and both guess probabilities to 1.
    counts = []

    def counted(spec, D):
        slope = information_mod._i_ae_slope_at(spec, D)
        counts.append(0)

        def call(w):
            counts[-1] += 1
            return slope(w)

        return call

    monkeypatch.setattr(optimize_mod, "_i_ae_slope_at", counted)
    spec = ProtocolSpec(3, 3)
    for D in np.linspace(0.05, 0.6666666666666666, 101).tolist():
        optimal_w(spec, D)
    assert len(counts) == 101 and max(counts) <= 9 and sum(counts) <= 9 * len(counts)


@pytest.mark.parametrize("D, low", [(0.2, None), (0.6, -1 / 3)])
def test_three_basis_w_of_a_one_signed_slope_is_a_bracket_end(monkeypatch, D, low):
    # The bracket is [low, 0]: low is phi's peak at D = 0.6 and the interval's low edge at D = 0.2.
    spec = ProtocolSpec(3, 3)
    low = admissible_w_interval(spec, D)[0] if low is None else low
    for value, end in [(1.0, 0.0), (-1.0, low), (math.nan, low)]:
        monkeypatch.setattr(optimize_mod, "_i_ae_slope_at", lambda spec, D: lambda w: value)
        assert optimal_w(spec, D) == pytest.approx(end, abs=1e-15)


def test_three_basis_w_at_the_top_of_the_range_is_zero():
    # Both peaks sit at w = 0 at D = 2/3; phi's rounds to -2.2e-16, and the bracket
    # [-2.2e-16, 0] is within the zero finder's tolerance, which keeps its best end.
    assert optimal_w(ProtocolSpec(3, 3), 0.6666666666666666) == 0.0


def test_bracketed_root_stops_within_a_few_ulps():
    root, f_root = optimize_mod._bracketed_root(math.cos, 1.0, 2.0, math.cos(1.0), math.cos(2.0))
    assert abs(root - math.pi / 2) <= 4 * optimize_mod.ROOT_TOL
    assert f_root == math.cos(root)  # the value the finder read there


@pytest.mark.parametrize("D", [0.11, 0.12, 0.14, 0.16, 0.18, 0.20])
def test_golden_section_agrees_with_analytic_optimum(D):
    # where the stationary overlap is the global maximiser, the numeric and
    # analytic optimisers must agree
    spec = ProtocolSpec(3, 2)
    lo, hi = admissible_w_interval(spec, D)
    wg = golden_section_maximize(lambda w: i_ae(spec, D, w), lo, hi)
    assert abs(wg - w_bar(3, D)) <= 1e-6


def test_golden_section_stops_where_the_bracket_stops_shrinking():
    # At 1e7 the float spacing, 1.9e-9, is wider than GOLDEN_TOL: the bracket never gets that narrow.
    f = lambda w: -((w - (1e7 + 0.3)) ** 2)
    w = golden_section_maximize(f, 1e7, 1e7 + 1.0)
    assert w == pytest.approx(1e7 + 0.3, abs=1e-8)


@pytest.mark.parametrize("D", [0.02, 0.05, 0.10])
def test_small_disturbance_boundary_exceeds_stationary_value(D):
    # the information expression is not concave near w = 1: for small D it
    # exceeds the stationary value there by a few 1e-5 dits, so the stationary
    # curve does not maximise I_AE (it maximises the guess probability, and is
    # not even a local maximum of I_AE for D < 0.0642); all published
    # curve/crossing quantities live on the stationary curve
    spec = ProtocolSpec(3, 2)
    lo, hi = admissible_w_interval(spec, D)
    vals = [i_ae(spec, D, float(w)) for w in np.linspace(lo, hi, 20001)]
    excess = max(vals) - i_ae(spec, D, w_bar(3, D))
    assert 1e-9 < excess < 1e-4


@pytest.mark.parametrize("D, sign", [(0.02, 1), (0.05, 1), (0.08, -1), (0.10, -1), (0.20, -1)])
def test_stationary_overlap_local_shape_of_information(D, sign):
    # for d = 3, I_AE''(w_bar) changes sign at D = 0.06424 (50-digit mpmath):
    # w_bar is a local minimum of I_AE below it and a strict local maximum
    # above; the second differences here are ~1e-13, far above the ~1e-16
    # rounding floor
    spec = ProtocolSpec(3, 2)
    w = maximize_w(spec, D).w_opt
    step = _fd_step(w, *admissible_w_interval(spec, D))
    witness = _second_difference(lambda x: i_ae(spec, D, x), w, step)
    assert sign * witness > 1e-13


CRITICAL_DIMS = [*range(2, 65), 1000, 10**6]


@pytest.mark.parametrize("d", CRITICAL_DIMS)
def test_critical_disturbance_matches_closed_form(d):
    point = critical_disturbance(ProtocolSpec(d, 2))
    assert abs(point.d_c - d_c_closed_form(d)) <= 1e-15
    assert abs(point.gap_at_dc) <= 1e-15


def test_critical_disturbance_three_bases():
    point = critical_disturbance(ProtocolSpec(3, 3))
    assert abs(point.d_c - 0.2247) <= 5e-4
    assert abs(point.gap_at_dc) <= 1e-15


def test_three_basis_d_c_brackets_the_high_precision_crossing():
    # The 50-digit gap I_AE - I_AB changes sign within 2 ulps of D_c. I_AE is taken at the
    # float stationary w, whose rounding moves it only at second order, far below 1e-30.
    def gap(disturbance):
        w = _stationary_w_mp(disturbance)
        with mpmath.workdps(50):
            D = mpmath.mpf(disturbance)
            return _i_ae_mp(D, mpmath.mpf(w)) - _info_mp(1 - D)

    below = above = critical_disturbance(ProtocolSpec(3, 3)).d_c
    for _ in range(2):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
    assert gap(below) < 0 < gap(above)


def test_critical_disturbance_evaluates_few_gaps(monkeypatch):
    # Each gap evaluation calls i_ab once: the two bracket ends and the zero finder's steps. gap_at_dc
    # is the finder's own value at D_c, so no D is evaluated twice.
    calls = []

    def counted(spec, D):
        calls[-1].append(D)
        return i_ab(spec, D)

    monkeypatch.setattr(optimize_mod, "i_ab", counted)
    for spec in [ProtocolSpec(d) for d in CRITICAL_DIMS] + [ProtocolSpec(3, 3)]:
        calls.append([])
        critical_disturbance(spec)
    assert all(len(set(ds)) == len(ds) for ds in calls)
    assert max(len(ds) for ds in calls) <= 10


def test_three_bases_more_robust_than_two():
    two = critical_disturbance(ProtocolSpec(3, 2)).d_c
    three = critical_disturbance(ProtocolSpec(3, 3)).d_c
    assert three > two


def test_critical_disturbance_increases_with_dimension():
    values = [critical_disturbance(ProtocolSpec(d, 2)).d_c for d in range(2, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_critical_disturbance_requires_sign_change(monkeypatch):
    monkeypatch.setattr(optimize_mod, "i_ab", lambda spec, D: 2.0)
    with pytest.raises(AnalysisError):
        critical_disturbance(ProtocolSpec(3, 2))


def test_search_bit_pins():
    three = critical_disturbance(ProtocolSpec(3, 3))
    assert (three.d_c.hex(), three.gap_at_dc.hex()) == ("0x1.cc3c5779d91b9p-3", "-0x1.0000000000000p-54")
    five = critical_disturbance(ProtocolSpec(5))
    assert (five.d_c.hex(), five.gap_at_dc.hex()) == ("0x1.1b06d1d200912p-2", "-0x1.0000000000000p-53")
    assert optimal_w(ProtocolSpec(3, 3), 0.2).hex() == "-0x1.c0d5c091d499fp-4"


@pytest.mark.parametrize("spec", [ProtocolSpec(3), ProtocolSpec(3, 3), ProtocolSpec(8)])
def test_maximize_w_reports_stationarity_of_its_w(spec):
    # At D = 0 the w sits at an edge of the interval (the low one for three bases), where the residual is 0.
    for D in [0.0] + np.linspace(0.01, spec.max_disturbance - 0.01, 12).tolist():
        report = maximize_w(spec, D)
        residual = optimize_mod.stationarity(spec, D, report.w_opt)
        assert report.stationarity_residual == residual
        if D == 0.0:
            assert residual == 0.0


@pytest.mark.parametrize(
    "spec", [ProtocolSpec(d) for d in (*range(2, 14), 16, 32, 64, 128)] + [ProtocolSpec(3, 3)],
    ids=lambda spec: f"{spec.dim}-{spec.bases_count}",
)
def test_maximize_w_is_stationary_at_the_top_of_the_range(spec):
    # At D = (d-1)/d the two-basis w_bar = 0 sits 1/(d-1)^2 below the interval's top edge, where
    # the square root of phi's radicand is singular; the closed-form slope reads 0 there.
    assert maximize_w(spec, spec.max_disturbance).stationarity_residual <= 1e-12


def test_optimal_curve_nondecreasing_up_to_crossing():
    for spec in (ProtocolSpec(2, 2), ProtocolSpec(3, 2), ProtocolSpec(3, 3), ProtocolSpec(4, 2)):
        d_c = critical_disturbance(spec).d_c
        top = min(d_c + 0.1, spec.max_disturbance - 1e-6)
        vals = [i_ae_optimal(spec, float(D)) for D in np.linspace(0.0, top, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("spec", [ProtocolSpec(2), ProtocolSpec(3), ProtocolSpec(3, 3), ProtocolSpec(8)])
def test_optimal_w_over_a_grid_equals_maximize_w_per_point(spec):
    grid = np.linspace(0.0, spec.max_disturbance, 41).tolist()
    reports = [maximize_w(spec, D) for D in grid]
    assert [optimal_w(spec, D) for D in grid] == [report.w_opt for report in reports]
    assert [i_ae_optimal(spec, D) for D in grid] == [report.i_ae_opt for report in reports]


def test_witness_stationarity_and_ratio():
    for D in [round(0.05 * k, 2) for k in range(1, 13)]:
        witnesses = optimality_witnesses(D)
        assert witnesses.phi_equals_lambda <= 1e-12
        assert witnesses.derivative_ratio <= 1e-4
        spec = ProtocolSpec(3, 2)
        report = maximize_w(spec, D)
        assert report.stationarity_residual <= 1e-6


def test_witness_concavity_structure():
    # concave over the whole interior grid only for large D; at smaller D the
    # convex tail near w = 1 flips the sign of the worst second difference
    for D in (0.35, 0.4, 0.5, 0.6):
        assert optimality_witnesses(D).concavity < 0.0
    for D in (0.05, 0.1, 0.2, 0.3):
        assert optimality_witnesses(D).concavity > 0.0


@pytest.mark.parametrize("d", [2, 4, 5, 8])
def test_witnesses_show_guess_concavity_in_any_dimension(d):
    # G is affine in w plus square roots of concave quadratics, so concave for every d.
    top = (d - 1) / d
    for D in (1e-6, 0.05, 0.25 * top, 0.5 * top, 0.9 * top, top - 1e-6):
        witnesses = optimality_witnesses(D, d=d)
        assert witnesses.guess_concavity < 0.0
        assert witnesses.phi_equals_lambda <= 1e-12


def test_witness_domain():
    with pytest.raises(DomainError):
        optimality_witnesses(0.0)
    with pytest.raises(DomainError):
        optimality_witnesses(0.67)
    with pytest.raises(DomainError):
        optimality_witnesses(0.8, d=5)


def _interval_by_protocol(spec, D):
    """Oracle: the admissible w-interval with each protocol's radicand bound written out."""
    d = spec.dim
    lo, hi = -1.0 / (d - 1), 1.0
    if D > 0.0:
        if spec.bases_count == 2:
            hi = min(hi, (d / D - 1.0 - d) / (d - 1.0))  # phi: d - D [1 + d + (d-1) w] >= 0
        else:
            lo = max(lo, 4.0 - 3.0 / D)  # mu: 3 + D (w - 4) >= 0
    return lo + optimize_mod.EDGE_SHRINK, hi - optimize_mod.EDGE_SHRINK


@pytest.mark.parametrize("spec", [ProtocolSpec(d) for d in (2, 3, 4, 5, 8, 16)] + [ProtocolSpec(3, 3)])
def test_admissible_interval_equals_per_protocol_form_bit_for_bit(spec):
    top = spec.max_disturbance
    draws = np.random.default_rng(spec.dim + 10 * spec.bases_count).uniform(0.0, top, 2000)
    for D in [0.0, 5e-324, 1e-12, top, np.nextafter(top, 0.0)] + draws.tolist():
        assert admissible_w_interval(spec, D) == _interval_by_protocol(spec, D), D


def test_admissible_interval_empty():
    with pytest.raises(DomainError):
        admissible_w_interval(ProtocolSpec(3, 2), 1.5)


def test_gap_definition():
    point = critical_disturbance(ProtocolSpec(5, 2))
    gap = i_ae_optimal(ProtocolSpec(5, 2), point.d_c) - i_ab(ProtocolSpec(5, 2), point.d_c)
    assert gap == pytest.approx(point.gap_at_dc, abs=1e-15)
