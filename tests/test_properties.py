"""Property tests of the attack invariants over d = 2..8 and the whole (D, w) domain."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mub_eve import (
    AttackParams,
    ProtocolSpec,
    SimConfig,
    admissible_w_interval,
    build_isometry,
    disturbance_per_state,
    guess_probability_constructive,
    lambda_d,
    mu_nu_threebasis,
    phi_d,
    protocol_bases,
    resolve_w,
    simulate,
)

EPS = np.finfo(float).eps
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

SPECS = st.one_of(st.integers(2, 8).map(ProtocolSpec), st.just(ProtocolSpec(3, 3)))


@st.composite
def attacks(draw):
    """(spec, D, w) with D in [0, (d-1)/d] and w = "auto" or any admissible w."""
    spec = draw(SPECS)
    disturbance = draw(st.floats(0.0, spec.max_disturbance))
    lo, hi = admissible_w_interval(spec, disturbance)
    w = draw(st.one_of(st.just("auto"), st.floats(lo, hi)))
    return spec, disturbance, resolve_w(spec, disturbance, w)


@PROPERTY
@given(attacks())
def test_isometry_is_unitary(attack):
    spec, disturbance, w = attack
    isometry = build_isometry(AttackParams(spec.dim, spec.bases_count, disturbance, w))
    assert isometry.unitarity_residual() <= 1e-12


@PROPERTY
@given(attacks())
def test_disturbance_equal_on_every_basis(attack):
    spec, disturbance, w = attack
    isometry = build_isometry(AttackParams(spec.dim, spec.bases_count, disturbance, w))
    for basis in protocol_bases(spec.dim, spec.bases_count):
        assert np.max(np.abs(disturbance_per_state(isometry, basis) - disturbance)) <= 1e-12


def gram_rounding(spec, disturbance, w):
    """Rounding error the Gram route may carry beyond 1e-12.

    It takes sqrt(1 - s), sqrt(1 + (d-1) s), sqrt(1 - w) and sqrt(1 + (d-1) w)
    of overlaps rounded to about eps, so near a zero of one of these gaps its
    error grows like eps / sqrt(gap). s = 1 - O(D) makes 1 - s such a gap at
    small D. The gaps are written here without cancellation.
    """
    d, D = spec.dim, disturbance
    if spec.bases_count == 2:
        s_gaps = (D * (w + 1 / (d - 1)) / (1 - D), (d - D * (1 + d + (d - 1) * w)) / (1 - D))
    else:
        s_gaps = (D * (1 - w) / (2 * (1 - D)), (3 + D * (w - 4)) / (1 - D))
    gaps = s_gaps + (1 - w, 1 + (d - 1) * w)
    return 16 * EPS * sum(1 / math.sqrt(max(gap, EPS**2)) for gap in gaps)


@PROPERTY
@given(attacks())
def test_closed_form_equals_constructive(attack):
    spec, disturbance, w = attack
    if spec.bases_count == 2:
        closed = phi_d(disturbance, w, spec.dim), lambda_d(w, spec.dim)
    else:
        closed = mu_nu_threebasis(disturbance, w)
    constructive = guess_probability_constructive(spec, disturbance, w)
    deviation = np.max(np.abs(np.subtract(closed, constructive)))
    assert deviation <= 1e-12 + gram_rounding(spec, disturbance, w)


@settings(PROPERTY, max_examples=20)
@given(attacks(), st.integers(1, 20_000), st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_simulate_repeats_for_fixed_seed_and_shards(attack, rounds, seed, shards):
    spec, disturbance, w = attack
    config = SimConfig(spec, disturbance, w, rounds=rounds, seed=seed, shards=shards)
    first, second = simulate(config), simulate(config)
    assert first.counts.sum() == rounds
    assert np.array_equal(first.counts, second.counts)
