"""Property tests of the attack invariants over d = 2..8 and the whole (D, w) domain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mub_eve import (
    AttackParams,
    EveStateSet,
    ProtocolSpec,
    SimConfig,
    admissible_w_interval,
    build_eve_states,
    build_isometry,
    disturbance_per_state,
    golden_section_maximize,
    guess_probability,
    i_ab,
    i_ae,
    i_d,
    lambda_d,
    phi_d,
    protocol_bases,
    resolve_w,
    scalar_product_profile,
    simulate,
)
from oracles import guess_probability_constructive
from test_attack import profile_by_pairs

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
    eve = build_eve_states(AttackParams(spec.dim, spec.bases_count, disturbance, w))
    for basis in protocol_bases(spec):
        assert np.max(np.abs(disturbance_per_state(eve, disturbance, basis) - disturbance)) <= 1e-12


def gram_rounding(spec, disturbance, w):
    """Rounding error the Gram route may carry beyond 1e-12.

    It takes sqrt(1 + (d-1) s), sqrt(1 - w) and sqrt(1 + (d-1) w) of gaps
    rounded to about eps, so near a zero of one of these gaps its error grows
    like eps / sqrt(gap). The gaps are written here without cancellation.
    """
    d, D = spec.dim, disturbance
    if spec.bases_count == 2:
        s_gap = (d - D * (1 + d + (d - 1) * w)) / (1 - D)
    else:
        s_gap = (3 + D * (w - 4)) / (1 - D)
    gaps = (s_gap, 1 - w, 1 + (d - 1) * w)
    return 16 * EPS * sum(1 / math.sqrt(max(gap, EPS**2)) for gap in gaps)


@PROPERTY
@given(attacks())
def test_closed_form_equals_constructive(attack):
    spec, disturbance, w = attack
    w_intact = w if spec.bases_count == 2 else -w / 2  # three bases: mu = phi_3(D, -w/2)
    closed = phi_d(disturbance, w_intact, spec.dim), lambda_d(w, spec.dim)
    constructive = guess_probability_constructive(spec, disturbance, w)
    deviation = np.max(np.abs(np.subtract(closed, constructive)))
    assert deviation <= 1e-12 + gram_rounding(spec, disturbance, w)


@st.composite
def attack_arrays(draw):
    """(spec, D, w) arrays: D = 0 and drawn disturbances, each with w at both
    edges of its admissible interval and at a drawn interior point."""
    spec = draw(SPECS)
    disturbances = [0.0] + draw(st.lists(st.floats(0.0, spec.max_disturbance), min_size=1, max_size=6))
    rows = []
    for disturbance in disturbances:
        lo, hi = admissible_w_interval(spec, disturbance)
        rows += [(disturbance, lo), (disturbance, hi), (disturbance, draw(st.floats(lo, hi)))]
    return spec, *np.array(rows).T


def closed_forms(spec):
    """name -> f(D, w) for every closed form that maps arrays."""
    d = spec.dim
    forms = {
        "guess_probability": lambda D, w: guess_probability(spec, D, w),
        "i_ae": lambda D, w: i_ae(spec, D, w),
        "i_ab": lambda D, w: i_ab(spec, D),
        "lambda_d": lambda D, w: lambda_d(w, d),
    }
    if spec.bases_count == 2:
        forms["phi_d"] = lambda D, w: phi_d(D, w, d)
    else:
        forms["mu"] = lambda D, w: phi_d(D, -w / 2, d)
    return forms


@PROPERTY
@given(attack_arrays())
def test_array_call_equals_scalar_calls(attack):
    spec, disturbances, ws = attack
    for name, f in closed_forms(spec).items():
        scalars = [f(D, w) for D, w in zip(disturbances.tolist(), ws.tolist())]
        assert all(type(value) is float for value in scalars), name
        assert np.array_equal(f(disturbances, ws), scalars), name


@PROPERTY
@given(st.integers(2, 8), st.lists(st.floats(0.0, 1.0), max_size=8))
def test_i_d_array_equals_scalar_calls(d, xs):
    xs = np.array([0.0, 1.0] + xs)
    assert np.array_equal(i_d(xs, d), [i_d(x, d) for x in xs.tolist()])


@pytest.mark.parametrize("spec", [ProtocolSpec(3, 3), ProtocolSpec(2), ProtocolSpec(5)])
@PROPERTY
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1e-4, 1.0)), min_size=1, max_size=6))
def test_lockstep_golden_section_equals_scalar_loop(spec, draws):
    # Each row searches its own part of its admissible interval, so rows stop on
    # different iterations; the first row is D = 0, flat in w for three bases.
    rows = [(0.0, 1.0)] + [(fraction * spec.max_disturbance, width) for fraction, width in draws]
    disturbances = np.array([D for D, _ in rows])
    lo, hi = admissible_w_interval(spec, disturbances)
    hi = lo + np.array([width for _, width in rows]) * (hi - lo)
    lockstep = golden_section_maximize(lambda w: i_ae(spec, disturbances, w), lo, hi)
    scalar = [
        golden_section_maximize(lambda w: i_ae(spec, D, w), a, b)
        for D, a, b in zip(disturbances.tolist(), lo.tolist(), hi.tolist())
    ]
    assert np.array_equal(lockstep, scalar)


@settings(PROPERTY, max_examples=20)
@given(attacks(), st.integers(1, 20_000), st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_simulate_repeats_for_fixed_seed_and_shards(attack, rounds, seed, shards):
    spec, disturbance, w = attack
    config = SimConfig(spec, disturbance, w, rounds=rounds, seed=seed, shards=shards)
    first, second = simulate(config), simulate(config)
    assert first.counts.sum() == rounds
    assert np.array_equal(first.counts, second.counts)


@PROPERTY
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_profile_kernel_equals_pair_by_pair_on_arbitrary_states(d, seed):
    # Gaussian states make every group nonzero, so the kernel's index masks are
    # checked against the group definitions, not against the layout's zeros.
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((d, d, d * d)) + 1j * rng.standard_normal((d, d, d * d))
    eve = EveStateSet(states=states)
    kernel, oracle = scalar_product_profile(eve), profile_by_pairs(eve)
    for name in ("x", "y", "z", "t", "s", "w", "s_max_dev", "w_max_dev"):
        assert abs(getattr(kernel, name) - getattr(oracle, name)) <= 1e-12


@PROPERTY
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_profile_kernel_equals_pair_by_pair_on_arbitrary_real_states(d, seed):
    # real states, like the built ones, take the kernel's real product
    rng = np.random.default_rng(seed)
    eve = EveStateSet(states=rng.standard_normal((d, d, d * d)))
    kernel, oracle = scalar_product_profile(eve), profile_by_pairs(eve)
    for name in ("x", "y", "z", "t", "s", "w", "s_max_dev", "w_max_dev"):
        assert abs(getattr(kernel, name) - getattr(oracle, name)) <= 1e-12
