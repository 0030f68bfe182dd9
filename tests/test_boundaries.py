"""Bad inputs fail at the validation boundary instead of giving a number."""

import json
import math

import numpy as np
import pytest

from mub_eve import (
    AttackParams,
    DimensionError,
    DomainError,
    ProtocolSpec,
    SimConfig,
    admissible_w_interval,
    empirical_mutual_information,
    golden_section_maximize,
    guess_probability,
    i_ab,
    i_ae,
    i_ae_optimal,
    i_d,
    lambda_d,
    maximize_w,
    optimal_w,
    phi_d,
    simulate,
    w_bar,
)
from oracles import build_isometry, optimality_witnesses

NAN = math.nan
# Arrays in which only the last element is bad.
D_OK = np.array([0.1, 0.2, 0.3])
D_NAN = np.array([0.1, 0.2, NAN])
W_HALF = np.array([0.5, 0.5, 0.5])
W_NAN = np.array([0.5, 0.5, NAN])
W_ABOVE_ONE = np.array([0.5, 0.5, 1.0 + 1e-13])
D_ONE = np.array([0.1, 0.2, 1.0])
ZEROS = np.zeros(3)


def peak(w):
    return -(w - 0.3) ** 2


def bad(call, case_id, match=None):
    """A bad-input case; ``match`` is a pattern its error message must contain."""
    return pytest.param(call, match, id=case_id)


BAD_INPUTS = [
    bad(lambda: i_ae(ProtocolSpec(3), 0.1, NAN), "i_ae-w-nan"),
    bad(lambda: i_ae(ProtocolSpec(3), NAN, 0.5), "i_ae-D-nan"),
    bad(lambda: i_ae(ProtocolSpec(3, 3), NAN, 0.5), "i_ae-three-bases-D-nan"),
    bad(lambda: i_ae(ProtocolSpec(3, 3), 0.1, NAN), "i_ae-three-bases-w-nan"),
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
    bad(lambda: empirical_mutual_information([[2, 0], [0, -1]], 2), "mi-negative-count"),
    bad(lambda: empirical_mutual_information([[3, -1], [-1, 3]], 2), "mi-negative-off-diagonal"),
    bad(lambda: empirical_mutual_information([[1, NAN], [0, 1]], 2), "mi-nan-count"),
    bad(lambda: empirical_mutual_information([[1, math.inf], [0, 1]], 2), "mi-inf-count"),
    bad(lambda: empirical_mutual_information([1, 2, 3], 3), "mi-one-dimensional"),
    bad(lambda: empirical_mutual_information(np.ones((2, 2, 2)), 2), "mi-three-dimensional"),
    bad(lambda: empirical_mutual_information([[1, 0], [0, 1]], 1), "mi-base-one"),
    bad(lambda: empirical_mutual_information([[1, 0], [0, 1]], NAN), "mi-base-nan"),
    bad(lambda: AttackParams(8, 2, 0.1, 1.0 + 2e-14), "attack-w-above-one"),
    bad(lambda: i_ae(ProtocolSpec(3), D_NAN, W_HALF), "array-i_ae-D-nan"),
    bad(lambda: i_ae(ProtocolSpec(3), D_OK, W_NAN), "array-i_ae-w-nan"),
    bad(lambda: i_ae(ProtocolSpec(3, 3), D_NAN, W_HALF), "array-i_ae-three-bases-D-nan"),
    bad(lambda: i_ae(ProtocolSpec(3, 3), 0.1, W_NAN), "array-i_ae-three-bases-w-nan"),
    bad(lambda: guess_probability(ProtocolSpec(5), 0.1, W_NAN), "array-guess-w-nan"),
    bad(lambda: lambda_d(W_ABOVE_ONE, 3), "array-lambda-w-above-one", r"w = 1\.0000000000001 at index 2 outside"),
    bad(lambda: lambda_d(1.0 + 1e-13, 3), "lambda-w-above-one", r"^w = 1\.0000000000001 outside \[-0\.5, 1\]$"),
    bad(lambda: i_ab(ProtocolSpec(3), np.array([[0.1, 0.2], [NAN, 0.3]])), "array-i_ab-2d-D-nan", r"got nan at index \(1, 0\)$"),
    bad(lambda: ProtocolSpec(3).check_disturbance(np.array([0.1, 0.7, 0.9])), "array-spec-D-too-big",
        r"got 0\.7 at index 1$"),
    bad(lambda: i_ae(ProtocolSpec(4), 0.1, W_ABOVE_ONE), "array-i_ae-w-above-one"),
    bad(lambda: phi_d(D_ONE, W_HALF, 3), "array-phi-D-one"),
    bad(lambda: guess_probability(ProtocolSpec(3, 3), D_ONE, W_HALF), "array-mu-nu-D-one"),
    bad(lambda: i_ab(ProtocolSpec(3), D_NAN), "array-i_ab-D-nan"),
    bad(lambda: i_ab(ProtocolSpec(3), 0.9), "i_ab-D-too-big", r"^disturbance must lie in \[0, 0\.6666666666666666\], got 0\.9$"),
    bad(lambda: i_d(np.array([0.0, 1.0, 1.5]), 3), "array-i_d-above-one"),
    bad(lambda: w_bar(3, D_NAN), "array-w_bar-D-nan"),
    bad(lambda: optimal_w(ProtocolSpec(3, 3), D_NAN), "array-optimal_w-three-bases-D-nan"),
    bad(lambda: optimal_w(ProtocolSpec(3), np.array([0.1, 0.2, 0.7])), "array-optimal_w-D-too-big"),
    bad(lambda: golden_section_maximize(peak, NAN, 1.0), "golden-lo-nan"),
    bad(lambda: golden_section_maximize(peak, 1.0, 0.0), "golden-lo-above-hi", r"got lo=1\.0, hi=0\.0$"),
    bad(lambda: golden_section_maximize(peak, 0.0, math.inf), "golden-hi-inf"),
    bad(lambda: golden_section_maximize(peak, ZEROS, np.array([1.0, 1.0, NAN])), "array-golden-hi-nan",
        r"hi=nan at index 2$"),
    bad(lambda: golden_section_maximize(peak, np.array([0.0, 0.0, 1.0]), np.ones(3) * 0.5),
        "array-golden-lo-above-hi"),
    bad(lambda: admissible_w_interval(ProtocolSpec(3), NAN), "interval-D-nan"),
    bad(lambda: admissible_w_interval(ProtocolSpec(3, 3), D_NAN), "array-interval-three-bases-D-nan"),
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
