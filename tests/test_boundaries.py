"""Bad inputs fail at the validation boundary instead of giving a number."""

import json
import math
import re

import numpy as np
import pytest

from mub_eve import (
    AttackParams,
    DimensionError,
    DomainError,
    ProtocolSpec,
    SimConfig,
    admissible_w_interval,
    build_eve_states,
    computational_basis,
    disturbance_per_state,
    empirical_mutual_information,
    guess_probability,
    i_ab,
    i_ae,
    i_ae_optimal,
    i_d,
    isometry_residual,
    lambda_d,
    maximize_w,
    optimal_w,
    phi_d,
    resolve_w,
    simulate,
    w_bar,
)
from mub_eve.simulate import plug_in_bias_allowance
from oracles import build_isometry, golden_section_maximize, optimality_witnesses

NAN = math.nan
# phi_d's radicand, as its messages name it.
PHI_RADICAND = re.escape("radicand D [1 + (d-1) w] {d - D [1 + d + (d-1) w]} = ")


# A valid d = 3 attack, for the checks of the disturbance its readers are given.
EVE_3 = build_eve_states(AttackParams(3, 2, 0.1, 0.85))


def peak(w):
    return -(w - 0.3) ** 2


def bad(call, case_id, match=None):
    """A bad-input case; ``match`` is a pattern its error message must contain."""
    return pytest.param(call, match, id=case_id)


BAD_INPUTS = [
    bad(lambda: i_ae(ProtocolSpec(3), 0.1, NAN), "i_ae-w-nan", rf"^{PHI_RADICAND}nan is not >= 0$"),
    bad(lambda: i_ae(ProtocolSpec(3), NAN, 0.5), "i_ae-D-nan", r"^disturbance must be < 1, got nan$"),
    bad(lambda: i_ae(ProtocolSpec(3, 3), NAN, 0.5), "i_ae-three-bases-D-nan", r"^disturbance must be < 1, got nan$"),
    bad(lambda: i_ae(ProtocolSpec(3, 3), 0.1, NAN), "i_ae-three-bases-w-nan", rf"^{PHI_RADICAND}nan is not >= 0$"),
    # Just past w's range [-1/(d-1), 1] +- RADICAND_SLACK; phi_d's radicand fails first
    # where the overlap c w leaves [-1/(d-1), ...].
    bad(lambda: i_ae(ProtocolSpec(3), 0.1, 1.0 + 2e-14), "i_ae-w-above-one",
        r"^w = 1\.00000000000002 outside \[-0\.5, 1\]$"),
    bad(lambda: i_ae(ProtocolSpec(3), 0.1, -0.5 - 2e-14), "i_ae-w-below-bottom",
        rf"^{PHI_RADICAND}-2\.1582735598713075e-14 is not >= 0$"),
    bad(lambda: i_ae(ProtocolSpec(3, 3), 0.1, 1.0 + 2e-14), "i_ae-three-bases-w-above-one",
        rf"^{PHI_RADICAND}-1\.079136779935653e-14 is not >= 0$"),
    bad(lambda: i_ae(ProtocolSpec(3, 3), 0.1, -0.5 - 2e-14), "i_ae-three-bases-w-below-bottom",
        r"^w = -0\.50000000000002 outside \[-0\.5, 1\]$"),
    bad(lambda: i_ae(ProtocolSpec(3), 1.0, 0.5), "i_ae-D-one", r"^disturbance must be < 1, got 1\.0$"),
    bad(lambda: i_ae(ProtocolSpec(3, 3), 1.0, 0.5), "i_ae-three-bases-D-one", r"^disturbance must be < 1, got 1\.0$"),
    # Past the top of the admissible interval at D = 0.5, where phi_d's radicand alone fails.
    bad(lambda: i_ae(ProtocolSpec(3), 0.5, 1.001), "i_ae-phi-radicand",
        rf"^{PHI_RADICAND}-0\.003001999999999669 is not >= 0$"),
    bad(lambda: i_ae(ProtocolSpec(3, 3), 0.5, -2.002), "i_ae-three-bases-phi-radicand",
        rf"^{PHI_RADICAND}-0\.003001999999999669 is not >= 0$"),
    bad(lambda: guess_probability(ProtocolSpec(3), 0.1, NAN), "guess-w-nan"),
    bad(lambda: maximize_w(ProtocolSpec(3, 3), 0.8), "maximize-three-bases-D-too-big"),
    bad(lambda: i_ae_optimal(ProtocolSpec(3, 3), NAN), "i_ae_optimal-three-bases-D-nan"),
    bad(lambda: w_bar(3, NAN), "w_bar-D-nan"),
    bad(lambda: w_bar(2.5, 0.1), "w_bar-fractional-d"),
    bad(lambda: ProtocolSpec(3.0), "spec-float-d"),
    bad(lambda: ProtocolSpec(3, 2.0), "spec-float-bases"),
    bad(lambda: SimConfig(ProtocolSpec(3), 0.1, rounds=1.5), "sim-fractional-rounds"),
    bad(lambda: SimConfig(ProtocolSpec(3), 0.1, rounds=10, seed=0.5), "sim-fractional-seed"),
    bad(lambda: SimConfig(ProtocolSpec(3), 0.1, rounds=True), "sim-bool-rounds"),
    bad(lambda: SimConfig(ProtocolSpec(3), 0.1, rounds=10, seed=False), "sim-bool-seed"),
    bad(lambda: SimConfig(ProtocolSpec(3), 0.1, rounds=10, shards=True), "sim-bool-shards"),
    # One rule for a w input: "auto" or a finite real number, and a bool is not one.
    *(bad(lambda w=w: resolve_w(ProtocolSpec(3), 0.1, w), f"resolve_w-{w!r}",
          rf"^w must be a real number or 'auto', got {re.escape(repr(w))}$")
      for w in (True, None, 0.5j, NAN, math.inf, -math.inf)),
    *(bad(lambda d=d: plug_in_bias_allowance((10, 5), d), f"bias-allowance-d-{d}", r"^dimension must be an integer >= 2")
      for d in (1, 0, 2.5)),
    bad(lambda: empirical_mutual_information([[2, 0], [0, -1]], 2), "mi-negative-count"),
    bad(lambda: empirical_mutual_information([[3, -1], [-1, 3]], 2), "mi-negative-off-diagonal"),
    bad(lambda: empirical_mutual_information([[1, NAN], [0, 1]], 2), "mi-nan-count"),
    bad(lambda: empirical_mutual_information([[1, math.inf], [0, 1]], 2), "mi-inf-count"),
    bad(lambda: empirical_mutual_information([1, 2, 3], 3), "mi-one-dimensional"),
    bad(lambda: empirical_mutual_information(np.ones((2, 2, 2)), 2), "mi-three-dimensional"),
    bad(lambda: empirical_mutual_information([[1, 0], [0, 1]], 1), "mi-base-one"),
    bad(lambda: empirical_mutual_information([[1, 0], [0, 1]], NAN), "mi-base-nan"),
    bad(lambda: AttackParams(8, 2, 0.1, 1.0 + 2e-14), "attack-w-above-one"),
    bad(lambda: lambda_d(1.0 + 1e-13, 3), "lambda-w-above-one", r"^w = 1\.0000000000001 outside \[-0\.5, 1\]$"),
    bad(lambda: ProtocolSpec(3).check_disturbance(0.7), "spec-D-too-big", r"got 0\.7$"),
    bad(lambda: phi_d(1.0, 0.5, 3), "phi-D-one", r"^disturbance must be < 1, got 1\.0$"),
    bad(lambda: i_ab(ProtocolSpec(3), NAN), "i_ab-D-nan", r"got nan$"),
    bad(lambda: i_ab(ProtocolSpec(3), 0.9), "i_ab-D-too-big", r"^disturbance must lie in \[0, 0\.6666666666666666\], got 0\.9$"),
    bad(lambda: i_d(1.5, 3), "i_d-above-one", r"^probability = 1\.5 is outside \[0, 1\]$"),
    bad(lambda: optimal_w(ProtocolSpec(3), 0.7), "optimal_w-D-too-big"),
    bad(lambda: golden_section_maximize(peak, NAN, 1.0), "golden-lo-nan"),
    bad(lambda: golden_section_maximize(peak, 1.0, 0.0), "golden-lo-above-hi", r"got lo=1\.0, hi=0\.0$"),
    bad(lambda: golden_section_maximize(peak, 0.0, math.inf), "golden-hi-inf"),
    bad(lambda: golden_section_maximize(peak, 0.0, NAN), "golden-hi-nan", r"hi=nan$"),
    bad(lambda: admissible_w_interval(ProtocolSpec(3), NAN), "interval-D-nan"),
    bad(lambda: admissible_w_interval(ProtocolSpec(3, 3), NAN), "interval-three-bases-D-nan"),
    *(bad(lambda D=D: disturbance_per_state(EVE_3, D, computational_basis(3)), f"per-state-D-{D}",
          rf"^disturbance must lie in \[0, 0\.6666666666666666\], got {D}$") for D in (NAN, 0.9, -0.1, 1.5)),
    *(bad(lambda D=D: isometry_residual(EVE_3, D), f"isometry-residual-D-{D}",
          rf"^disturbance must lie in \[0, 0\.6666666666666666\], got {D}$") for D in (NAN, 0.9, -0.1, 1.5)),
]


@pytest.mark.parametrize("call, match", BAD_INPUTS)
def test_bad_input_raises_at_boundary(call, match):
    with pytest.raises((DimensionError, DomainError), match=match):
        call()


@pytest.mark.parametrize("w", [-1.0 / 7.0 - 5e-15, 1.0 + 5e-15])
def test_w_within_slack_of_its_range_accepted(w):
    # The Gram eigenvalues are checked in overlap units: 1 + 7 w >= -7 * 1e-14.
    assert AttackParams(8, 2, 0.1, w).w == w


def test_numpy_integers_accepted():
    spec = ProtocolSpec(np.int64(3), np.int32(2))
    assert spec == ProtocolSpec(3, 2)
    params = AttackParams(np.int64(3), np.int64(2), 0.1, 0.85)
    assert build_isometry(params).unitarity_residual() <= 1e-12
    config = SimConfig(spec, 0.1, rounds=np.int64(1000), seed=np.uint32(1), shards=np.int8(2))
    json.dumps(simulate(config).to_dict())


@pytest.mark.parametrize("disturbance", [1e-7, 6e-6])
def test_optimality_witnesses_near_zero_disturbance(disturbance):
    witnesses = optimality_witnesses(disturbance)
    values = (witnesses.phi_equals_lambda, witnesses.derivative_ratio,
              witnesses.guess_concavity, witnesses.concavity)
    assert all(math.isfinite(v) for v in values)
    assert witnesses.phi_equals_lambda <= 1e-12
