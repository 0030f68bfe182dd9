"""Property tests of the attack invariants over d = 2..8 and the whole (D, w) domain."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mub_eve import (
    AttackParams,
    Basis,
    EveStateSet,
    ProtocolSpec,
    SimConfig,
    admissible_w_interval,
    build_eve_states,
    disturbance_per_state,
    lambda_d,
    phi_d,
    protocol_bases,
    resolve_w,
    scalar_product_profile,
    simulate,
    w_bar,
)
from mub_eve.attack import _read_block_grams
from oracles import (
    build_isometry,
    dense_disturbance,
    dense_overlap_deviation,
    disturbance_by_isometry,
    guess_probability_constructive,
    isometry_from_states,
)
from test_attack import GROUPS, profile_by_pairs

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
        assert np.max(np.abs(disturbance_per_state(eve, basis) - disturbance)) <= 1e-12


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
    # Gaussian blocks make every within-block overlap nonzero and distinct, so the kernel's index
    # masks are checked against the group definitions on the dense view, not against built values.
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
    eve = EveStateSet(blocks=blocks)
    kernel, oracle = scalar_product_profile(eve), profile_by_pairs(eve)
    for group in GROUPS:
        assert getattr(oracle, group) == 0.0
    for name in ("s", "w", "s_max_dev", "w_max_dev"):
        assert abs(getattr(kernel, name) - getattr(oracle, name)) <= 1e-12


@PROPERTY
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_profile_kernel_equals_pair_by_pair_on_arbitrary_real_states(d, seed):
    # real blocks, like the built ones, take the kernel's real product
    rng = np.random.default_rng(seed)
    eve = EveStateSet(blocks=rng.standard_normal((d, d, d)))
    kernel, oracle = scalar_product_profile(eve), profile_by_pairs(eve)
    for group in GROUPS:
        assert getattr(oracle, group) == 0.0
    for name in ("s", "w", "s_max_dev", "w_max_dev"):
        assert abs(getattr(kernel, name) - getattr(oracle, name)) <= 1e-12


def gaussian_set(d, seed, complex_blocks):
    """(state set, basis): Gaussian blocks of non-unit norm, a random D and a random unitary basis."""
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((d, d, d))
    if complex_blocks:
        blocks = blocks + 1j * rng.standard_normal((d, d, d))
    unitary, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return EveStateSet(blocks, rng.uniform(0.0, (d - 1) / d)), Basis(d, unitary.T)


def disturbance_routes_agree(d, seed, complex_blocks):
    """disturbance_per_state against both dense references on Gaussian blocks and a random unitary basis.

    Every built set repeats one error block for m >= 1, so a block read at a - m instead of a + m
    passes on it; here every block, and every coefficient of the basis, differs. The states are not
    unit vectors, so the rounding scales with ||amp||^2 = 1 - disturbance, floored at 1.
    """
    eve, basis = gaussian_set(d, seed, complex_blocks)
    got = disturbance_per_state(eve, basis)
    for ref in (dense_disturbance(eve, basis),
                disturbance_by_isometry(isometry_from_states(eve), basis)):
        assert np.max(np.abs(got - ref) / np.maximum(1.0, 1.0 - ref)) <= 1e-15


@PROPERTY
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.booleans())
def test_two_valued_reading_is_within_its_bound_on_arbitrary_states(d, seed, complex_blocks):
    # Gaussian blocks have Grams far from two-valued, so the reading can be far from the exact
    # disturbance; the bound must still cover the gap.
    eve, basis = gaussian_set(d, seed, complex_blocks)
    _, (got,), bound, _, _ = _read_block_grams(eve, [basis])
    assert np.max(np.abs(disturbance_per_state(eve, basis) - got)) <= bound + 1e-15


@PROPERTY
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.booleans(), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_profile_residuals_bound_every_dense_overlap_on_arbitrary_states(d, seed, complex_blocks, s, w):
    # Gaussian blocks make every within-block overlap differ, so o_m and the spreads are far from any
    # target; |o_m - target| + spreads[m] must still bound every off-diagonal overlap's distance from it.
    eve, basis = gaussian_set(d, seed, complex_blocks)
    _, _, _, overlaps, spreads = _read_block_grams(eve, [basis])
    assert abs(overlaps[0] - s) + spreads[0] >= dense_overlap_deviation(eve, s, error_blocks=False)
    assert np.max(np.abs(overlaps[1:] - w) + spreads[1:]) >= dense_overlap_deviation(eve, w, error_blocks=True)


@PROPERTY
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.floats(0.0, 0.1))
def test_profile_residuals_bound_every_dense_overlap_on_perturbed_built_sets(d, seed, scale):
    # A built set near its Grams' model, each coordinate moved by up to scale: the residuals against the
    # set's own s and w bound the dense overlaps' distance from them.
    spec = ProtocolSpec(d)
    params = AttackParams(d, 2, 0.2, w_bar(d, 0.2))
    rng = np.random.default_rng(seed)
    eve = EveStateSet(build_eve_states(params).blocks + scale * rng.uniform(-1.0, 1.0, (d, d, d)), 0.2)
    _, _, _, overlaps, spreads = _read_block_grams(eve, protocol_bases(spec))
    assert abs(overlaps[0] - params.s) + spreads[0] >= dense_overlap_deviation(eve, params.s, error_blocks=False)
    assert np.max(np.abs(overlaps[1:] - params.w) + spreads[1:]) >= dense_overlap_deviation(eve, params.w, True)


@PROPERTY
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_disturbance_equals_dense_routes_on_arbitrary_states(d, seed):
    disturbance_routes_agree(d, seed, complex_blocks=True)


@PROPERTY
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_disturbance_equals_dense_routes_on_arbitrary_real_states(d, seed):
    # real blocks, like the built ones, take the real product
    disturbance_routes_agree(d, seed, complex_blocks=False)
