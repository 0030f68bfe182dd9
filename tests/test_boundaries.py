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
    build_isometry,
    critical_disturbance,
    guess_probability,
    i_ab,
    i_ae,
    i_ae_optimal,
    i_d,
    lambda_d,
    maximize_w,
    mu_nu_threebasis,
    optimal_w,
    optimality_witnesses,
    phi_d,
    simulate,
    w_bar,
)
from mub_eve.cli import main

NAN = math.nan
# Arrays in which only the last element is bad.
D_OK = np.array([0.1, 0.2, 0.3])
D_NAN = np.array([0.1, 0.2, NAN])
W_HALF = np.array([0.5, 0.5, 0.5])
W_NAN = np.array([0.5, 0.5, NAN])
W_ABOVE_ONE = np.array([0.5, 0.5, 1.0 + 1e-13])
D_ONE = np.array([0.1, 0.2, 1.0])

BAD_INPUTS = [
    pytest.param(lambda: i_ae(ProtocolSpec(3), 0.1, NAN), id="i_ae-w-nan"),
    pytest.param(lambda: i_ae(ProtocolSpec(3), NAN, 0.5), id="i_ae-D-nan"),
    pytest.param(lambda: i_ae(ProtocolSpec(3, 3), NAN, 0.5), id="i_ae-three-bases-D-nan"),
    pytest.param(lambda: i_ae(ProtocolSpec(3, 3), 0.1, NAN), id="i_ae-three-bases-w-nan"),
    pytest.param(lambda: guess_probability(ProtocolSpec(3), 0.1, NAN), id="guess-w-nan"),
    pytest.param(lambda: critical_disturbance(ProtocolSpec(3), tol=NAN), id="critical-tol-nan"),
    pytest.param(lambda: maximize_w(ProtocolSpec(3), 0.1, tol=NAN), id="maximize-tol-nan"),
    pytest.param(lambda: maximize_w(ProtocolSpec(3, 3), 0.8), id="maximize-three-bases-D-too-big"),
    pytest.param(lambda: i_ae_optimal(ProtocolSpec(3, 3), NAN), id="i_ae_optimal-three-bases-D-nan"),
    pytest.param(lambda: w_bar(3, NAN), id="w_bar-D-nan"),
    pytest.param(lambda: w_bar(2.5, 0.1), id="w_bar-fractional-d"),
    pytest.param(lambda: ProtocolSpec(3.0), id="spec-float-d"),
    pytest.param(lambda: ProtocolSpec(3, 2.0), id="spec-float-bases"),
    pytest.param(lambda: SimConfig(ProtocolSpec(3), 0.1, rounds=1.5), id="sim-fractional-rounds"),
    pytest.param(lambda: SimConfig(ProtocolSpec(3), 0.1, rounds=10, seed=0.5), id="sim-fractional-seed"),
    pytest.param(lambda: AttackParams(8, 2, 0.1, 1.0 + 2e-14), id="attack-w-above-one"),
    pytest.param(lambda: i_ae(ProtocolSpec(3), D_NAN, W_HALF), id="array-i_ae-D-nan"),
    pytest.param(lambda: i_ae(ProtocolSpec(3), D_OK, W_NAN), id="array-i_ae-w-nan"),
    pytest.param(lambda: i_ae(ProtocolSpec(3, 3), D_NAN, W_HALF), id="array-i_ae-three-bases-D-nan"),
    pytest.param(lambda: i_ae(ProtocolSpec(3, 3), 0.1, W_NAN), id="array-i_ae-three-bases-w-nan"),
    pytest.param(lambda: guess_probability(ProtocolSpec(5), 0.1, W_NAN), id="array-guess-w-nan"),
    pytest.param(lambda: lambda_d(W_ABOVE_ONE, 3), id="array-lambda-w-above-one"),
    pytest.param(lambda: i_ae(ProtocolSpec(4), 0.1, W_ABOVE_ONE), id="array-i_ae-w-above-one"),
    pytest.param(lambda: phi_d(D_ONE, W_HALF, 3), id="array-phi-D-one"),
    pytest.param(lambda: mu_nu_threebasis(D_ONE, W_HALF), id="array-mu-nu-D-one"),
    pytest.param(lambda: i_ab(3, D_NAN), id="array-i_ab-D-nan"),
    pytest.param(lambda: i_d(np.array([0.0, 1.0, 1.5]), 3), id="array-i_d-above-one"),
    pytest.param(lambda: w_bar(3, D_NAN), id="array-w_bar-D-nan"),
    pytest.param(lambda: optimal_w(ProtocolSpec(3, 3), D_NAN), id="array-optimal_w-three-bases-D-nan"),
    pytest.param(lambda: optimal_w(ProtocolSpec(3), np.array([0.1, 0.2, 0.7])), id="array-optimal_w-D-too-big"),
]


@pytest.mark.parametrize("call", BAD_INPUTS)
def test_bad_input_raises_at_boundary(call):
    with pytest.raises((DimensionError, DomainError)):
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


def test_critical_cli_rejects_nan_tol(capsys):
    assert main(["critical", "--dim", "3", "--tol", "nan"]) == 2
    assert "tol" in capsys.readouterr().err


@pytest.mark.parametrize("disturbance", [1e-7, 6e-6])
def test_optimality_witnesses_near_zero_disturbance(disturbance):
    witnesses = optimality_witnesses(disturbance)
    values = (witnesses.phi_equals_lambda, witnesses.derivative_ratio,
              witnesses.guess_concavity, witnesses.concavity)
    assert all(math.isfinite(v) for v in values)
    assert witnesses.phi_equals_lambda <= 1e-12
