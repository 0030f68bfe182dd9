import math

import mpmath
import numpy as np
import pytest

from mub_eve import (
    DomainError,
    ProtocolError,
    ProtocolSpec,
    admissible_w_interval,
    dits_to_bits,
    guess_probability,
    i_ab,
    i_ae,
    i_d,
    lambda_d,
    optimal_w,
    phi_d,
    w_bar,
)
from mub_eve.information import _i_ae_slope_at
from oracles import _richardson_slope, guess_pair_mp, guess_probability_constructive, i_ae_mp

# reference closed forms written out independently, used as oracles


def phi3_literal(D, w):
    return (3 + 2 * D * (w - 1)) / (9 * (1 - D)) + 2 * math.sqrt(
        2 * D * (3 - 2 * D * (2 + w)) * (1 + 2 * w)
    ) / (9 * (1 - D))


def lambda3_literal(w):
    return (5 - 2 * w + 4 * math.sqrt(1 + w - 2 * w**2)) / 9


def phi4_literal(D, w):
    return (4 - 2 * D * (1 - 3 * w)) / (16 * (1 - D)) + 2 * math.sqrt(
        3 * D * (1 + 3 * w) * (4 - D * (5 + 3 * w))
    ) / (16 * (1 - D))


def lambda4_literal(w):
    return (5 - 3 * w + 3 * math.sqrt(1 + 2 * w - 3 * w**2)) / 8


def mu_literal(D, w):
    return (3 - D * (w + 2)) / (9 * (1 - D)) + 2 * math.sqrt(
        2 * D * (3 + D * (w - 4)) * (1 - w)
    ) / (9 * (1 - D))


def test_i_d_certain_and_uniform():
    for d in range(2, 7):
        assert i_d(1.0, d) == pytest.approx(1.0, abs=1e-15)
        assert i_d(1.0 / d, d) == pytest.approx(0.0, abs=1e-15)


def test_i_d_at_zero():
    # direct evaluation: 1 + log_3(1/2)
    assert i_d(0.0, 3) == pytest.approx(1.0 + math.log(0.5, 3), abs=1e-15)
    assert i_d(0.0, 3) == pytest.approx(0.3690702464285426, abs=1e-13)


def test_i_d_domain():
    with pytest.raises(DomainError):
        i_d(-0.01, 3)
    with pytest.raises(DomainError):
        i_d(1.01, 3)


def test_i_ab_endpoints():
    assert i_ab(ProtocolSpec(3), 0.0) == pytest.approx(1.0, abs=1e-15)
    assert i_ab(ProtocolSpec(3), 2.0 / 3.0) == pytest.approx(0.0, abs=1e-14)


def test_i_ab_ququart_quarter():
    direct = 1 + 0.75 * math.log(0.75, 4) + 0.25 * math.log(0.25 / 3, 4)
    assert direct == pytest.approx(0.396240625180289, abs=1e-14)
    assert i_ab(ProtocolSpec(4), 0.25) == pytest.approx(direct, abs=1e-14)


def test_i_ab_strictly_decreasing():
    for d in (2, 3, 4, 6):
        grid = np.linspace(1e-3, (d - 1) / d - 1e-3, 50)
        vals = [i_ab(ProtocolSpec(d), float(D)) for D in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_phi_zero_disturbance_is_uniform():
    for d in range(2, 7):
        for w in (-0.1, 0.3, 0.9):
            assert phi_d(0.0, w, d) == pytest.approx(1.0 / d, abs=1e-14)


def test_phi_matches_literal_forms():
    for D in np.linspace(0.02, 0.6, 15):
        for w in np.linspace(-0.45, min(1.0, (3 / D - 4) / 2 - 1e-9), 15):
            assert phi_d(float(D), float(w), 3) == pytest.approx(
                phi3_literal(float(D), float(w)), abs=1e-12
            )
    for D in np.linspace(0.02, 0.7, 15):
        for w in np.linspace(-0.3, min(1.0, (4 / D - 5) / 3 - 1e-9), 15):
            assert phi_d(float(D), float(w), 4) == pytest.approx(
                phi4_literal(float(D), float(w)), abs=1e-12
            )


def test_lambda_matches_literal_forms_and_endpoints():
    for w in np.linspace(-0.49, 1.0, 40):
        assert lambda_d(float(w), 3) == pytest.approx(lambda3_literal(float(w)), abs=1e-12)
    for w in np.linspace(-0.33, 1.0, 40):
        assert lambda_d(float(w), 4) == pytest.approx(lambda4_literal(float(w)), abs=1e-12)
    assert lambda_d(1.0, 3) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert lambda_d(1.0, 4) == pytest.approx(0.25, abs=1e-14)


def test_mu_nu_values():
    # The three-basis pair (mu, nu) is phi_d at the overlap -w/2, and lambda_d.
    spec = ProtocolSpec(3, 3)
    for w in np.linspace(-0.45, 0.95, 20):
        mu, nu = phi_d(0.0, -float(w) / 2, 3), lambda_d(float(w), 3)
        assert mu == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert nu == pytest.approx(lambda3_literal(float(w)), abs=1e-12)
        assert guess_probability(spec, 0.0, float(w)) == pytest.approx(1.0 / 3.0, abs=1e-14)
    for D in (0.1, 0.25, 0.45):
        for w in np.linspace(-0.45, 0.95, 20):
            mu, nu = phi_d(D, -float(w) / 2, 3), lambda_d(float(w), 3)
            assert mu == pytest.approx(mu_literal(D, float(w)), abs=1e-12)
            assert guess_probability(spec, D, float(w)) == pytest.approx((1 - D) * mu + D * nu, abs=1e-15)


@pytest.mark.parametrize("d", range(2, 7))
def test_closed_forms_match_constructive_route(d):
    # grid margins keep sqrt arguments away from their zeros, where double
    # precision cannot support 1e-12 route-to-route agreement
    spec = ProtocolSpec(d, 2)
    for D in np.linspace(0.02, (d - 1) / d - 0.02, 9):
        w_hi = min(1.0 - 1e-4, (d / D - 1 - d) / (d - 1) - 1e-4)
        for w in np.linspace(-1 / (d - 1) + 1e-4, w_hi, 9):
            intact, error = guess_probability_constructive(spec, float(D), float(w))
            assert phi_d(float(D), float(w), d) == pytest.approx(intact, abs=1e-12)
            assert lambda_d(float(w), d) == pytest.approx(error, abs=1e-12)


def test_three_basis_closed_forms_match_constructive_route():
    spec = ProtocolSpec(3, 3)
    for D in np.linspace(0.02, 0.6, 9):
        for w in np.linspace(-0.49, 0.99, 9):
            intact, error = guess_probability_constructive(spec, float(D), float(w))
            mu, nu = phi_d(float(D), -float(w) / 2, 3), lambda_d(float(w), 3)
            assert mu == pytest.approx(intact, abs=1e-12)
            assert nu == pytest.approx(error, abs=1e-12)


@pytest.mark.parametrize("d", range(2, 7))
def test_phi_equals_lambda_at_stationary_overlap(d):
    for D in np.linspace(0.01, (d - 1) / d - 0.01, 12):
        wb = w_bar(d, float(D))
        assert phi_d(float(D), wb, d) == pytest.approx(lambda_d(wb, d), abs=1e-12)


def test_i_ae_no_interaction():
    assert i_ae(ProtocolSpec(3, 2), 0.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_i_ae_meets_i_ab_at_critical_values():
    spec = ProtocolSpec(3, 2)
    D = 0.2113
    assert abs(i_ae(spec, D, w_bar(3, D)) - i_ab(spec, D)) <= 1e-4
    spec = ProtocolSpec(4, 2)
    assert abs(i_ae(spec, 0.25, w_bar(4, 0.25)) - i_ab(spec, 0.25)) <= 1e-6


def test_three_basis_crossing_near_published_value():
    spec = ProtocolSpec(3, 3)
    from mub_eve import maximize_w

    D = 0.2247
    report = maximize_w(spec, D)
    assert abs(report.i_ae_opt - i_ab(spec, D)) <= 5e-4


def test_guess_probability():
    for d in (2, 3, 5):
        assert guess_probability(ProtocolSpec(d, 2), 0.0, 0.5) == pytest.approx(
            1.0 / d, abs=1e-14
        )
    # at the stationary overlap the intact/error probabilities coincide
    D = 0.12
    wb = w_bar(3, D)
    assert guess_probability(ProtocolSpec(3, 2), D, wb) == pytest.approx(
        phi_d(D, wb, 3), abs=1e-13
    )


def test_information_values_stay_in_unit_interval():
    for spec in (ProtocolSpec(3, 2), ProtocolSpec(3, 3), ProtocolSpec(5, 2)):
        for D in np.linspace(0.0, spec.max_disturbance - 1e-6, 12):
            wb = min(1.0 - 1e-9, w_bar(spec.dim, float(D)))
            if spec.bases_count == 3:
                wb = 0.2
            val = i_ae(spec, float(D), wb)
            assert -1e-12 <= val <= 1.0 + 1e-12
            assert -1e-12 <= i_ab(spec, float(D)) <= 1.0 + 1e-12


def test_phi_domain_error_names_radicand():
    with pytest.raises(DomainError, match="radicand"):
        phi_d(0.6, 1.0, 3)


def test_protocol_spec_validation():
    with pytest.raises(ProtocolError):
        ProtocolSpec(4, 3)
    with pytest.raises(ProtocolError):
        ProtocolSpec(3, 4)


def test_dits_to_bits():
    assert dits_to_bits(1.0, 4) == pytest.approx(2.0, abs=1e-15)
    assert dits_to_bits(0.5, 2) == pytest.approx(0.5, abs=1e-15)


def _closed_forms_mp(d, bases_count, disturbance, w):
    """(intact, error) guess probabilities from the closed forms in 50-digit mpmath."""
    with mpmath.workdps(50):
        intact, lam = guess_pair_mp(d, bases_count, mpmath.mpf(disturbance), mpmath.mpf(w))
        return float(intact), float(lam)


@pytest.mark.parametrize(
    "d, bases_count, disturbance, w",
    [(3, 2, 1e-16, 0.3), (3, 2, 1e-12, 0.3), (3, 2, 1e-8, -0.4), (3, 2, 0.0057, -0.499999999),
     (3, 3, 1e-16, 0.3), (3, 3, 1e-10, -0.4)],
)
def test_constructive_route_matches_high_precision_reference(d, bases_count, disturbance, w):
    # Near s = 1 (small D) and at the edge of the w-interval the Gram route must
    # not lose digits to cancellation: it stays within 1e-15 of 50-digit mpmath.
    constructive = guess_probability_constructive(ProtocolSpec(d, bases_count), disturbance, w)
    reference = _closed_forms_mp(d, bases_count, disturbance, w)
    assert np.max(np.abs(np.subtract(constructive, reference))) <= 1e-15


@pytest.mark.parametrize("spec", [ProtocolSpec(3, 3)] + [ProtocolSpec(d) for d in (2, 3, 5, 8)])
def test_information_slope_matches_a_difference_of_the_objective(spec):
    top = spec.max_disturbance
    for D in (1e-6, 0.01, 0.3 * top, 0.6 * top, 0.9 * top):
        lo, hi = admissible_w_interval(spec, D)
        objective, slope = (lambda w: i_ae(spec, D, w)), _i_ae_slope_at(spec, D)
        for w in np.linspace(lo + 0.02, hi - 0.02, 9).tolist():
            assert slope(w) == pytest.approx(_richardson_slope(objective, w, 1e-4), abs=2e-9), (D, w)


@pytest.mark.parametrize(
    "spec", [ProtocolSpec(d) for d in (2, 3, 8, 64, 256)] + [ProtocolSpec(3, 3)],
    ids=lambda spec: f"{spec.dim}-{spec.bases_count}",
)
def test_information_slope_matches_a_high_precision_derivative(spec):
    # optimize.stationarity reads the slope anywhere inside the interval: here down to 1e-6 from
    # each edge, where a square root's derivative is singular, it holds to mpmath's derivative of
    # I_AE in 50 digits, at the float w, to 1e-9 relative to max(1, |slope|).
    top = spec.max_disturbance
    for D in (1e-6, 0.01, 0.1, 0.3 * top, 0.9 * top):
        lo, hi = admissible_w_interval(spec, D)
        slope = _i_ae_slope_at(spec, D)
        for w in (lo + 1e-6, lo + 1e-3, 0.5 * (lo + hi), optimal_w(spec, D), hi - 1e-3, hi - 1e-6):
            with mpmath.workdps(50):
                objective = lambda v: i_ae_mp(spec.dim, spec.bases_count, mpmath.mpf(D), v)
                reference = float(mpmath.diff(objective, mpmath.mpf(w)))
            assert abs(slope(w) - reference) <= 1e-9 * max(1.0, abs(reference)), (D, w)


@pytest.mark.parametrize("D, w", [(0.2, 0.0), (0.5, 0.0), (0.625, -0.2)])
def test_information_slope_where_a_guess_probability_is_one(D, w):
    # lambda_d(0) = 1, and phi_d(0.625, 0.1) = 1 (P = 0 exactly at w = -0.2): each term is
    # 0 times an infinite logarithm there, and takes its limit, 0.
    spec = ProtocolSpec(3, 3)
    slope = _i_ae_slope_at(spec, D)
    assert min(slope(w - 1e-12), slope(w + 1e-12)) <= slope(w) <= max(slope(w - 1e-12), slope(w + 1e-12))
    assert slope(w) == pytest.approx(_richardson_slope(lambda w: i_ae(spec, D, w), w, 1e-4), abs=1e-9)
