import numpy as np
import pytest

import mub_eve.optimize as optimize_mod
from mub_eve import (
    AnalysisError,
    DomainError,
    ProtocolSpec,
    admissible_w_interval,
    critical_disturbance,
    d_c_closed_form,
    golden_section_maximize,
    i_ab,
    i_ae,
    i_ae_optimal,
    maximize_w,
    optimal_w,
    optimality_witnesses,
    w_bar,
)


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
    assert report.method == "golden-section"
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
    lockstep = golden_section_maximize(f, np.array([1e7, 0.0]), np.array([1e7 + 1.0, 1.0]))
    assert lockstep.tolist() == [w, golden_section_maximize(f, 0.0, 1.0)]


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
    witness = maximize_w(ProtocolSpec(3, 2), D).concavity_witness
    assert sign * witness > 1e-13


@pytest.mark.parametrize("d", range(2, 11))
def test_critical_disturbance_matches_closed_form(d):
    point = critical_disturbance(ProtocolSpec(d, 2))
    assert abs(point.d_c - d_c_closed_form(d)) <= 1e-6
    assert abs(point.gap_at_dc) <= 1e-9


def test_critical_disturbance_three_bases():
    point = critical_disturbance(ProtocolSpec(3, 3))
    assert abs(point.d_c - 0.2247) <= 5e-4
    assert abs(point.gap_at_dc) <= 1e-9


def test_three_bases_more_robust_than_two():
    two = critical_disturbance(ProtocolSpec(3, 2)).d_c
    three = critical_disturbance(ProtocolSpec(3, 3)).d_c
    assert three > two


def test_critical_disturbance_increases_with_dimension():
    values = [critical_disturbance(ProtocolSpec(d, 2)).d_c for d in range(2, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_critical_disturbance_requires_sign_change(monkeypatch):
    monkeypatch.setattr(optimize_mod, "i_ab", lambda d, D: 2.0)
    with pytest.raises(AnalysisError):
        critical_disturbance(ProtocolSpec(3, 2))


def test_optimal_curve_nondecreasing_up_to_crossing():
    for spec in (ProtocolSpec(2, 2), ProtocolSpec(3, 2), ProtocolSpec(3, 3), ProtocolSpec(4, 2)):
        d_c = critical_disturbance(spec).d_c
        top = min(d_c + 0.1, spec.max_disturbance - 1e-6)
        vals = [i_ae_optimal(spec, float(D)) for D in np.linspace(0.0, top, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("spec", [ProtocolSpec(2), ProtocolSpec(3), ProtocolSpec(3, 3), ProtocolSpec(8)])
def test_optimal_w_over_a_grid_equals_maximize_w_per_point(spec):
    grid = np.linspace(0.0, spec.max_disturbance, 41)
    reports = [maximize_w(spec, D) for D in grid.tolist()]
    assert np.array_equal(optimal_w(spec, grid), [report.w_opt for report in reports])
    assert np.array_equal(i_ae_optimal(spec, grid), [report.i_ae_opt for report in reports])


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
    gap = i_ae_optimal(ProtocolSpec(5, 2), point.d_c) - i_ab(5, point.d_c)
    assert gap == pytest.approx(point.gap_at_dc, abs=1e-15)
