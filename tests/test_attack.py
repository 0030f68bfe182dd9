import math

import numpy as np
import pytest

from mub_eve import (
    AttackParams,
    DimensionError,
    DomainError,
    EveStateSet,
    ProtocolError,
    ProtocolSpec,
    ScalarProductProfile,
    admissible_w_interval,
    build_eve_states,
    coeff_pair,
    computational_basis,
    disturbance_per_state,
    fourier_basis,
    isometry_residual,
    protocol_bases,
    resolve_w,
    scalar_product_profile,
    w_bar,
)
from mub_eve.attack import AttackIsometry
from oracles import build_isometry, disturbance_by_isometry, isometry_by_columns, isometry_from_states

EPS = np.finfo(float).eps
GROUPS = ("x", "y", "z", "t")


def pair_for_overlap(overlap, d):
    """Coefficients of d unit vectors with the given common pairwise overlap."""
    return coeff_pair(1.0 + (d - 1) * overlap, 1.0 - overlap, d)


def error_blocks(d):
    """(sender, receiver) -> the coordinate block that holds error state E_ij, read from the built states."""
    eve = build_eve_states(AttackParams(d, 2, 0.1, w_bar(d, 0.1)))
    blocks = {}
    for i in range(d):
        for j in range(d):
            if j != i:
                (block,) = set(np.flatnonzero(eve.states[i, j]) // d)  # one block holds all of E_ij
                blocks[(i, j)] = int(block)
    return blocks


def test_partition_qutrit_blocks():
    blocks = error_blocks(3)
    by_index = {}
    for pair, m in blocks.items():
        by_index.setdefault(m, set()).add(pair)
    assert by_index[1] == {(0, 1), (1, 2), (2, 0)}
    assert by_index[2] == {(0, 2), (1, 0), (2, 1)}


@pytest.mark.parametrize("d", range(2, 9))
def test_partition_is_valid(d):
    blocks = error_blocks(d)
    # brute-force validity: every off-diagonal pair exactly once, d per block
    all_pairs = {(i, j) for i in range(d) for j in range(d) if i != j}
    assert set(blocks) == all_pairs
    for m in range(1, d):
        members = [pair for pair, idx in blocks.items() if idx == m]
        assert len(members) == d
        senders = {i for i, _ in members}
        receivers = {j for _, j in members}
        assert senders == set(range(d)) and receivers == set(range(d))
        assert all((j - i) % d == m for i, j in members)


def test_s_zero_disturbance_is_one():
    for bases_count in (2, 3):
        assert AttackParams(3, bases_count, 0.0, 0.3).s == pytest.approx(1.0, abs=1e-15)


def test_s_two_bases_matches_qutrit_and_ququart_forms():
    for D in (0.05, 0.2, 0.4):
        for w in (-0.3, 0.1, 0.8):
            qutrit = (1 - D * w) / (1 - D) - 3 * D / (2 * (1 - D))
            assert AttackParams(3, 2, D, w).s == pytest.approx(qutrit, abs=1e-14)
            ququart = (1 - w * D) / (1 - D) + (4.0 / 3.0) * D / (D - 1)
            assert AttackParams(4, 2, D, w).s == pytest.approx(ququart, abs=1e-14)


def test_s_three_bases_matches_form():
    for D in (0.1, 0.3, 0.5):
        for w in (-0.4, 0.0, 0.7):
            expected = 0.5 * (w * D + 2 - 3 * D) / (1 - D)
            assert AttackParams(3, 3, D, w).s == pytest.approx(expected, abs=1e-14)


def _no_error_eigenvalues_by_protocol(d, bases_count, D, w):
    """Oracle: the no-error Gram eigenvalues with the Z-line weight written out per protocol."""
    shared = 1.0 + (d - 1) * w if bases_count == 2 else 1.0 - w
    minus = d * (D * shared / (d * (d - 1))) / (1.0 - D)
    return d - (d - 1) * minus, minus


@pytest.mark.parametrize("d,bases_count", [(2, 2), (3, 2), (5, 2), (8, 2), (3, 3)])
def test_no_error_eigenvalues_equal_per_protocol_form_bit_for_bit(d, bases_count):
    spec = ProtocolSpec(d, bases_count)
    for D in np.linspace(0.0, spec.max_disturbance, 25).tolist():
        for w in np.linspace(*admissible_w_interval(spec, D), 17).tolist():
            got = AttackParams(d, bases_count, D, w).no_error_eigenvalues()
            assert got == _no_error_eigenvalues_by_protocol(d, bases_count, D, w), (D, w)


def test_s_errors():
    with pytest.raises(DomainError):
        AttackParams(3, 2, 1.0, 0.5)
    with pytest.raises(ProtocolError):
        AttackParams(4, 3, 0.1, 0.5)


def test_coeff_pair_uniform_limit():
    u, v = pair_for_overlap(1.0, 3)
    assert u == pytest.approx(1 / math.sqrt(3), abs=1e-15)
    assert v == pytest.approx(1 / math.sqrt(3), abs=1e-15)


@pytest.mark.parametrize("d", range(2, 9))
def test_coeff_pair_identities(d):
    for ov in np.linspace(-1 / (d - 1) + 1e-9, 1.0, 25):
        major, minor = pair_for_overlap(float(ov), d)
        assert major**2 + (d - 1) * minor**2 == pytest.approx(1.0, abs=1e-12)
        assert 2 * major * minor + (d - 2) * minor**2 == pytest.approx(float(ov), abs=1e-12)
        assert major >= minor


def test_coeff_pair_matches_error_block_probabilities():
    for w in np.linspace(-0.49, 1.0, 20):
        lam3 = (5 - 2 * w + 4 * math.sqrt(1 + w - 2 * w**2)) / 9
        assert pair_for_overlap(float(w), 3)[0] ** 2 == pytest.approx(lam3, abs=1e-12)
    for w in np.linspace(-0.33, 1.0, 20):
        lam4 = (5 - 3 * w + 3 * math.sqrt(1 + 2 * w - 3 * w**2)) / 8
        assert pair_for_overlap(float(w), 4)[0] ** 2 == pytest.approx(lam4, abs=1e-12)


def test_coeff_pair_domain():
    with pytest.raises(DomainError):
        pair_for_overlap(1.2, 3)
    with pytest.raises(DomainError):
        pair_for_overlap(-0.6, 3)


def test_attack_params_validation():
    with pytest.raises(DomainError):
        AttackParams(3, 2, 0.7, 0.5)  # above (d-1)/d
    with pytest.raises(DomainError):
        AttackParams(3, 2, 0.1, 1.2)
    with pytest.raises(ProtocolError):
        AttackParams(4, 3, 0.1, 0.5)
    with pytest.raises(DomainError):
        AttackParams(3, 2, 0.6, 1.0)  # s falls below -1/(d-1)
    with pytest.raises(DimensionError):
        AttackParams(1, 2, 0.0, 1.0)


def test_eve_states_normalisation_and_measured_overlaps():
    cases = [
        AttackParams(3, 2, 0.1, 0.85),
        AttackParams(4, 2, 0.2, w_bar(4, 0.2)),
        AttackParams(3, 3, 0.15, 0.3),
        AttackParams(2, 2, 0.3, 0.4),
    ]
    for params in cases:
        eve = build_eve_states(params)
        d = params.dim
        assert eve.states.shape == (d, d, d * d)
        for i in range(d):
            for j in range(d):
                assert np.linalg.norm(eve.states[i, j]) == pytest.approx(1.0, abs=1e-12)
        profile = scalar_product_profile(eve)
        for group in ("x", "y", "z", "t"):
            assert abs(getattr(profile, group)) <= 1e-12
        assert profile.s == pytest.approx(params.s, abs=1e-12)
        assert profile.w == pytest.approx(params.w, abs=1e-12)
        assert profile.s_max_dev <= 1e-12
        assert profile.w_max_dev <= 1e-12


def test_identity_attack_states():
    params = AttackParams(3, 2, 0.0, 0.5)
    eve = build_eve_states(params)
    (u, v), _ = params.coeff_pairs()
    assert u == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    assert v == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    for i in range(3):
        assert np.max(np.abs(eve.states[i, i] - eve.states[0, 0])) <= 1e-12


def test_isometry_unitary():
    iso = build_isometry(AttackParams(3, 2, 0.3, 0.55))
    assert iso.unitarity_residual() <= 1e-12


def test_identity_attack_isometry_columns():
    params = AttackParams(4, 2, 0.0, 0.7)
    eve = build_eve_states(params)
    iso = build_isometry(params)
    for i in range(4):
        expected = np.kron(np.eye(4)[i], eve.states[0, 0])
        assert np.max(np.abs(iso.matrix[:, i] - expected)) <= 1e-12


def eve_states_by_pairs(params: AttackParams) -> np.ndarray:
    """Reference layout: one (sender, receiver) pair at a time, error state E_ij in block (j - i) mod d."""
    d = params.dim
    (u, v), (r, q) = params.coeff_pairs()
    states = np.zeros((d, d, d * d), dtype=complex)
    for i in range(d):
        states[i, i, :d] = v
        states[i, i, i] = u
    for i in range(d):
        for j in range(d):
            if j != i:
                m = (j - i) % d
                states[i, j, m * d : (m + 1) * d] = q
                states[i, j, m * d + i] = r
    return states


@pytest.mark.parametrize("d, bases_count", [(2, 2), (3, 2), (8, 2), (16, 2), (32, 2), (3, 3)])
def test_eve_states_match_pair_by_pair_layout(d, bases_count):
    for D, w in ((0.0, 1.0), (0.15, 0.3), (0.15, -0.02)):
        params = AttackParams(d, bases_count, D, w)
        eve = build_eve_states(params)
        assert not eve.states.flags.writeable
        assert np.array_equal(eve.states, eve_states_by_pairs(params))


@pytest.mark.parametrize("d, bases_count", [(2, 2), (3, 2), (8, 2), (16, 2), (32, 2), (3, 3)])
def test_isometry_matches_column_by_column_assembly(d, bases_count):
    for D in (0.0, 0.15):
        eve = build_eve_states(AttackParams(d, bases_count, D, 0.3))
        matrix = isometry_from_states(eve, D).matrix
        assert matrix.flags.c_contiguous
        assert np.array_equal(matrix, isometry_by_columns(eve, D))


def test_states_are_real_and_the_isometry_complex():
    # The profile reads the states, whose real dtype sends it to a real product; the dense
    # oracle is complex, as are the weighted states simulate's products read.
    for d, bases_count in ((2, 2), (3, 3), (8, 2)):
        params = AttackParams(d, bases_count, 0.15, 0.3)
        eve = build_eve_states(params)
        assert eve.states.dtype == np.float64
        assert not eve.states.flags.writeable
        matrix = isometry_from_states(eve, params.disturbance).matrix
        assert matrix.dtype == np.complex128
        assert matrix.flags.c_contiguous


def test_unitarity_relation_terms_vanish():
    # sqrt(D(1-D)/2)(<E_ij|E_jj> + <E_ii|E_ji>) + (D/2)<E_ik|E_jk> = 0,
    # each term individually zero in the block construction
    eve = build_eve_states(AttackParams(3, 2, 0.2, 0.6))
    st = eve.states
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        assert abs(np.vdot(st[i, j], st[j, j])) <= 1e-13
        assert abs(np.vdot(st[i, i], st[j, i])) <= 1e-13
        assert abs(np.vdot(st[i, k], st[j, k])) <= 1e-13


def built_and_cast_sets(d, bases_count):
    """(spec, D, state set) over a few disturbances: each built set and its complex cast."""
    spec = ProtocolSpec(d, bases_count)
    for D in (0.0, 0.1, 0.3):
        eve = build_eve_states(AttackParams(d, bases_count, D, resolve_w(spec, D, "auto")))
        for states in (eve.states, eve.states.astype(np.complex128)):
            yield spec, D, EveStateSet(states=states)


@pytest.mark.parametrize("d, bases_count", [(2, 2), (3, 2), (5, 2), (8, 2), (3, 3)])
def test_disturbance_from_states_matches_dense_isometry(d, bases_count):
    for spec, D, eve in built_and_cast_sets(d, bases_count):
        iso = isometry_from_states(eve, D)
        for basis in protocol_bases(spec):
            assert np.max(np.abs(disturbance_per_state(eve, D, basis) - disturbance_by_isometry(iso, basis))) <= 1e-15


@pytest.mark.parametrize("d, bases_count", [(2, 2), (3, 2), (5, 2), (8, 2), (3, 3)])
def test_unitarity_from_gram_matches_dense_isometry(d, bases_count):
    for _, D, eve in built_and_cast_sets(d, bases_count):
        assert abs(isometry_residual(eve, D) - isometry_from_states(eve, D).unitarity_residual()) <= 1e-15


@pytest.mark.parametrize("group", ["x", "t"])
def test_unitarity_from_gram_sees_a_perturbed_pair(group):
    # negative control: the orthonormal layout gives V^dagger V = I, and the entry that makes
    # one pair nonzero also lengthens a state, which both routes must report alike
    d = 4
    (a, b), (p, q) = PERTURBATIONS[group]
    states = np.array(orthonormal_layout(d).states)
    assert isometry_residual(EveStateSet(states=states), 0.1) <= 1e-15
    states[a, b, d * ((q - p) % d) + p] += 0.5j
    eve = EveStateSet(states=states)
    for D in (0.1, 0.3):
        dense = isometry_from_states(eve, D).unitarity_residual()
        assert dense > 1e-3
        assert abs(isometry_residual(eve, D) - dense) <= 1e-15


def test_gram_is_formed_once_and_read_by_every_gate():
    params = AttackParams(3, 2, 0.1, 0.85)
    eve = build_eve_states(params)
    scalar_product_profile(eve)
    gram = vars(eve)["gram"]
    assert eve.gram is gram and not gram.flags.writeable
    assert isometry_residual(eve, params.disturbance) <= 1e-15
    # the residual reads the cached array: a planted entry of equal receiver shows in it
    planted = np.array(gram)
    planted[0, 0, 1, 2] = 0.25  # <E_00|E_20>
    vars(eve)["gram"] = planted
    assert isometry_residual(eve, params.disturbance) > 1e-2


def test_disturbance_computational_is_exact():
    params = AttackParams(3, 2, 0.17, 0.5)
    eve = build_eve_states(params)
    dist = disturbance_per_state(eve, params.disturbance, computational_basis(3))
    assert np.max(np.abs(dist - 0.17)) <= 1e-14


@pytest.mark.parametrize("d", range(2, 7))
def test_disturbance_equal_on_fourier_basis(d):
    for D in (0.05, 0.15, 0.3):
        if D > (d - 1) / d - 1e-9:
            continue
        params = AttackParams(d, 2, D, w_bar(d, D))
        eve = build_eve_states(params)
        for basis in (computational_basis(d), fourier_basis(d)):
            dist = disturbance_per_state(eve, D, basis)
            assert np.max(np.abs(dist - D)) <= 1e-12


def test_disturbance_equal_on_all_three_qutrit_bases():
    for D in (0.05, 0.15, 0.3, 0.5):
        for w in (-0.2, 0.3, 0.8):
            params = AttackParams(3, 3, D, w)
            eve = build_eve_states(params)
            for basis in protocol_bases(ProtocolSpec(3, 3)):
                dist = disturbance_per_state(eve, D, basis)
                assert np.max(np.abs(dist - D)) <= 1e-12


def test_perturbed_s_breaks_fourier_symmetry():
    # negative control: keep the layout but force the wrong no-error overlap
    params = AttackParams(3, 2, 0.1, 0.85)
    good = build_eve_states(params)
    u, v = pair_for_overlap(params.s + 0.05, 3)
    states = np.array(good.states)
    for i in range(3):
        states[i, i, :3] = v
        states[i, i, i] = u
    bad = EveStateSet(states=states)
    iso = isometry_from_states(bad, params.disturbance)
    assert iso.unitarity_residual() <= 1e-12  # still a valid channel
    assert isometry_residual(bad, params.disturbance) <= 1e-12
    dist = disturbance_per_state(bad, params.disturbance, fourier_basis(3))
    assert np.max(np.abs(dist - params.disturbance)) > 1e-4
    for basis in (computational_basis(3), fourier_basis(3)):
        oracle = disturbance_by_isometry(iso, basis)
        assert np.max(np.abs(disturbance_per_state(bad, params.disturbance, basis) - oracle)) <= 1e-15


def test_disturbance_dimension_mismatch():
    eve = build_eve_states(AttackParams(3, 2, 0.1, 0.85))
    with pytest.raises(DimensionError):
        disturbance_per_state(eve, 0.1, computational_basis(4))


def test_ancilla_dimension_is_d_squared():
    for d in (2, 3, 5):
        params = AttackParams(d, 2, 0.1, w_bar(d, 0.1))
        assert build_eve_states(params).states.shape[2] == d * d
        assert build_isometry(params).matrix.shape == (d**3, d)


def test_records_take_dim_from_their_arrays():
    # The state set and the isometry store no dimension of their own: it is read off the array.
    for d in (2, 3, 5):
        assert EveStateSet(states=np.zeros((d, d, d * d))).dim == d
        assert AttackIsometry(np.zeros((d**3, d), dtype=complex)).dim == d
        params = AttackParams(d, 2, 0.1, w_bar(d, 0.1))
        assert build_eve_states(params).dim == build_isometry(params).dim == d


def profile_by_pairs(eve: EveStateSet) -> ScalarProductProfile:
    """The scalar-product profile measured one pair at a time with np.vdot.

    The oracle for the block-Gram kernel of `scalar_product_profile`: it walks
    the pairs in the order the groups are defined and takes the first member
    of largest modulus of each vanishing group.
    """
    d = eve.dim
    st = eve.states

    def max_abs(values: list[complex]) -> complex:
        if not values:
            return 0.0 + 0.0j
        return max(values, key=abs)

    x_vals, y_vals, z_vals, t_vals = [], [], [], []
    w_vals, s_vals = [], []
    pairs = [(i, (i + m) % d) for m in range(1, d) for i in range(d)]  # error states, block by block
    for i in range(d):
        for j in range(d):
            if j == i:
                continue
            x_vals += [np.vdot(st[i, i], st[i, j]), np.vdot(st[j, j], st[i, j])]
            for k in range(d):
                if k not in (i, j):
                    y_vals.append(np.vdot(st[k, k], st[i, j]))
            if j > i:
                s_vals.append(np.vdot(st[i, i], st[j, j]))
    for a_idx, pa in enumerate(pairs):
        for pb in pairs[a_idx + 1 :]:
            ov = np.vdot(st[pa], st[pb])
            if (pa[1] - pa[0]) % d == (pb[1] - pb[0]) % d:
                w_vals.append(ov)
            elif pa[0] == pb[0]:
                z_vals.append(ov)
            else:
                t_vals.append(ov)

    s_mean = float(np.mean([val.real for val in s_vals]))
    w_mean = float(np.mean([val.real for val in w_vals]))
    return ScalarProductProfile(
        x=max_abs(x_vals),
        y=max_abs(y_vals),
        z=max_abs(z_vals),
        t=max_abs(t_vals),
        w=w_mean,
        s=s_mean,
        w_max_dev=float(max(abs(val - w_mean) for val in w_vals)),
        s_max_dev=float(max(abs(val - s_mean) for val in s_vals)),
    )


@pytest.mark.parametrize("d, bases_count", [(2, 2), (3, 2), (4, 2), (5, 2), (8, 2), (3, 3)])
def test_profile_matches_pair_by_pair_oracle(d, bases_count):
    spec = ProtocolSpec(d, bases_count)
    for disturbance in (0.0, 0.1, 0.3):
        w = resolve_w(spec, disturbance, "auto")
        eve = build_eve_states(AttackParams(d, bases_count, disturbance, w))
        kernel, oracle = scalar_product_profile(eve), profile_by_pairs(eve)
        for group in GROUPS:
            assert getattr(kernel, group) == getattr(oracle, group)
        for name in ("s", "w", "s_max_dev", "w_max_dev"):
            assert abs(getattr(kernel, name) - getattr(oracle, name)) <= 4 * EPS


@pytest.mark.parametrize("d, bases_count", [(2, 2), (3, 2), (5, 2), (8, 2), (16, 2), (3, 3)])
def test_profile_of_real_states_equals_profile_of_their_complex_cast(d, bases_count):
    # the built states take a real product, a complex set the complex one: same pairs, same groups
    spec = ProtocolSpec(d, bases_count)
    for disturbance in (0.0, 0.1, 0.3):
        w = resolve_w(spec, disturbance, "auto")
        eve = build_eve_states(AttackParams(d, bases_count, disturbance, w))
        real = scalar_product_profile(eve)
        cast = scalar_product_profile(EveStateSet(states=eve.states.astype(np.complex128)))
        for group in GROUPS:
            assert getattr(real, group) == getattr(cast, group)
        for name in ("s", "w", "s_max_dev", "w_max_dev"):
            assert abs(getattr(real, name) - getattr(cast, name)) <= 4 * EPS


def orthonormal_layout(d: int) -> EveStateSet:
    """The block layout at s = w = 0: E_ij is the unit vector on coordinate d ((j - i) mod d) + i."""
    states = np.zeros((d, d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            states[i, j, d * ((j - i) % d) + i] = 1.0
    return EveStateSet(states=states)


# group -> (perturbed state E_ab, state E_pq on whose coordinate it gains 0.5j)
PERTURBATIONS = {
    "x": ((0, 1), (0, 0)),
    "y": ((0, 1), (2, 2)),
    "s": ((0, 0), (1, 1)),
    "w": ((0, 1), (1, 2)),
    "z": ((0, 1), (0, 2)),
    "t": ((0, 1), (1, 3)),
}


@pytest.mark.parametrize("group", PERTURBATIONS)
def test_profile_reports_a_perturbed_pair_in_its_group(group):
    # negative control: one entry makes one pair of one group nonzero
    d = 4
    eve = orthonormal_layout(d)
    (a, b), (p, q) = PERTURBATIONS[group]
    states = np.array(eve.states)
    states[a, b, d * ((q - p) % d) + p] += 0.5j
    perturbed = EveStateSet(states=states)
    profile = scalar_product_profile(perturbed)
    oracle = profile_by_pairs(perturbed)
    for name in GROUPS:
        assert getattr(profile, name) == getattr(oracle, name)
        assert abs(getattr(profile, name)) == (0.5 if name == group else 0.0)
    for name in ("s", "w"):
        assert getattr(profile, name) == getattr(oracle, name) == 0.0
        deviation = getattr(profile, f"{name}_max_dev")
        assert deviation == getattr(oracle, f"{name}_max_dev")
        assert (deviation > 0.4) == (name == group)
