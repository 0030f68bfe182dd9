import importlib
import math
import tracemalloc

import numpy as np
import pytest

from mub_eve import (
    AttackParams,
    DimensionError,
    DomainError,
    EveStateSet,
    ProtocolError,
    ProtocolSpec,
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
from mub_eve.attack import AttackIsometry, _block_probabilities, _read_block_grams
from oracles import (
    DenseProfile,
    build_isometry,
    dense_disturbance,
    dense_isometry_residual,
    dense_profile,
    dense_states,
    disturbance_by_isometry,
    isometry_by_columns,
    isometry_from_states,
)

EPS = np.finfo(float).eps
GROUPS = ("x", "y", "z", "t")


def pair_for_overlap(overlap, d):
    """Coefficients of d unit vectors with the given common pairwise overlap."""
    return coeff_pair(1.0 + (d - 1) * overlap, 1.0 - overlap, d)


def error_blocks(d):
    """(sender, receiver) -> the coordinate block that holds error state E_ij, read from the built set's dense view."""
    states = dense_states(build_eve_states(AttackParams(d, 2, 0.1, w_bar(d, 0.1))))
    blocks = {}
    for i in range(d):
        for j in range(d):
            if j != i:
                (block,) = set(np.flatnonzero(states[i, j]) // d)  # one block holds all of E_ij
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


def test_coeff_pairs_are_computed_once_per_parameter_set(monkeypatch):
    # The validation computes each block's pair once, and build_eve_states reads that cache.
    attack = importlib.import_module("mub_eve.attack")
    calls = []
    pair = attack.coeff_pair
    monkeypatch.setattr(attack, "coeff_pair", lambda *args: calls.append(args) or pair(*args))
    params = AttackParams(3, 2, 0.1, 0.85)
    eve = build_eve_states(params)
    assert len(calls) == 2
    assert params.coeff_pairs is params.coeff_pairs
    assert eve.blocks[0, 0, 0] == params.coeff_pairs[0][0]


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
        assert eve.blocks.shape == (d, d, d)
        for m in range(d):
            for i in range(d):
                assert np.linalg.norm(eve.blocks[m, i]) == pytest.approx(1.0, abs=1e-12)
        dense = dense_profile(eve)
        for group in GROUPS:
            assert abs(getattr(dense, group)) <= 1e-12
        profile = scalar_product_profile(eve)
        assert profile.s == pytest.approx(params.s, abs=1e-12)
        assert profile.w == pytest.approx(params.w, abs=1e-12)
        assert profile.s_max_dev <= 1e-12
        assert profile.w_max_dev <= 1e-12


def test_identity_attack_states():
    params = AttackParams(3, 2, 0.0, 0.5)
    eve = build_eve_states(params)
    (u, v), _ = params.coeff_pairs
    assert u == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    assert v == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    for i in range(3):
        assert np.max(np.abs(eve.blocks[0, i] - eve.blocks[0, 0])) <= 1e-12


def test_isometry_unitary():
    iso = build_isometry(AttackParams(3, 2, 0.3, 0.55))
    assert iso.unitarity_residual() <= 1e-12


def test_identity_attack_isometry_columns():
    params = AttackParams(4, 2, 0.0, 0.7)
    eve = build_eve_states(params)
    iso = build_isometry(params)
    for i in range(4):
        expected = np.kron(np.eye(4)[i], dense_states(eve)[0, 0])
        assert np.max(np.abs(iso.matrix[:, i] - expected)) <= 1e-12


def eve_states_by_pairs(params: AttackParams) -> np.ndarray:
    """Reference layout: one (sender, receiver) pair at a time, error state E_ij in block (j - i) mod d."""
    d = params.dim
    (u, v), (r, q) = params.coeff_pairs
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
        assert not eve.blocks.flags.writeable
        assert np.array_equal(dense_states(eve), eve_states_by_pairs(params))


@pytest.mark.parametrize("d, bases_count", [(2, 2), (3, 2), (8, 2), (16, 2), (32, 2), (3, 3)])
def test_isometry_matches_column_by_column_assembly(d, bases_count):
    for D in (0.0, 0.15):
        eve = build_eve_states(AttackParams(d, bases_count, D, 0.3))
        matrix = isometry_from_states(eve).matrix
        assert matrix.flags.c_contiguous
        assert np.array_equal(matrix, isometry_by_columns(eve))


def test_states_are_real_and_the_isometry_complex():
    # The profile and the amplitude kernel read the states, whose real dtype sends them to
    # real products; the dense oracle is complex.
    for d, bases_count in ((2, 2), (3, 3), (8, 2)):
        params = AttackParams(d, bases_count, 0.15, 0.3)
        eve = build_eve_states(params)
        assert eve.blocks.dtype == np.float64
        assert not eve.blocks.flags.writeable
        matrix = isometry_from_states(eve).matrix
        assert matrix.dtype == np.complex128
        assert matrix.flags.c_contiguous


def test_unitarity_relation_terms_vanish():
    # sqrt(D(1-D)/2)(<E_ij|E_jj> + <E_ii|E_ji>) + (D/2)<E_ik|E_jk> = 0,
    # each term individually zero in the block construction
    eve = build_eve_states(AttackParams(3, 2, 0.2, 0.6))
    st = dense_states(eve)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        assert abs(np.vdot(st[i, j], st[j, j])) <= 1e-13
        assert abs(np.vdot(st[i, i], st[j, i])) <= 1e-13
        assert abs(np.vdot(st[i, k], st[j, k])) <= 1e-13


def built_and_cast_sets(d, bases_count):
    """(spec, D, state set) over a few disturbances: each built set and its complex cast."""
    spec = ProtocolSpec(d, bases_count)
    for D in (0.0, 0.1, 0.3):
        eve = build_eve_states(AttackParams(d, bases_count, D, resolve_w(spec, D, "auto")))
        for blocks in (eve.blocks, eve.blocks.astype(np.complex128)):
            yield spec, D, EveStateSet(blocks, D)


@pytest.mark.parametrize("d, bases_count", [(2, 2), (3, 2), (5, 2), (8, 2), (3, 3)])
def test_disturbance_from_states_matches_dense_isometry(d, bases_count):
    for spec, D, eve in built_and_cast_sets(d, bases_count):
        iso = isometry_from_states(eve)
        for basis in protocol_bases(spec):
            assert np.max(np.abs(disturbance_per_state(eve, basis) - disturbance_by_isometry(iso, basis))) <= 1e-15


@pytest.mark.parametrize("d, bases_count", [(2, 2), (3, 2), (5, 2), (8, 2), (3, 3)])
def test_unitarity_from_gram_matches_dense_isometry(d, bases_count):
    for _, D, eve in built_and_cast_sets(d, bases_count):
        assert abs(isometry_residual(eve) - isometry_from_states(eve).unitarity_residual()) <= 1e-15


@pytest.mark.parametrize("group", ["s", "w"])
def test_unitarity_from_gram_sees_a_perturbed_pair(group):
    # negative control: the orthonormal layout gives V^dagger V = I, and the entry that makes
    # one pair nonzero also lengthens a state, which both routes must report alike
    assert isometry_residual(EveStateSet(orthonormal_layout(4).blocks, 0.1)) <= 1e-15
    blocks = perturbed(orthonormal_layout(4), group).blocks
    for D in (0.1, 0.3):
        eve = EveStateSet(blocks, D)
        dense = isometry_from_states(eve).unitarity_residual()
        assert dense > 1e-3
        assert abs(isometry_residual(eve) - dense) <= 1e-15


def test_gram_is_formed_once_and_read_by_every_gate():
    params = AttackParams(3, 2, 0.1, 0.85)
    eve = build_eve_states(params)
    scalar_product_profile(eve)
    block_gram = vars(eve)["block_gram"]
    assert eve.block_gram is block_gram and not block_gram.flags.writeable
    assert isometry_residual(eve) <= 1e-15
    # the residual reads the cached array: a planted norm shows in it
    planted = np.array(block_gram)
    planted[2, 0, 0] = 1.25  # <E_02|E_02>
    vars(eve)["block_gram"] = planted
    assert isometry_residual(eve) > 1e-2


@pytest.mark.parametrize("d, bases_count", [(d, 2) for d in range(2, 33)] + [(3, 3)])
def test_block_route_equals_dense_route(d, bases_count):
    for spec, D, eve in built_and_cast_sets(d, bases_count):
        got, ref = scalar_product_profile(eve), dense_profile(eve)
        for group in GROUPS:
            assert getattr(ref, group) == 0.0  # the dense Gram's cross-block pairs
        for name in ("s", "w", "s_max_dev", "w_max_dev"):
            assert abs(getattr(got, name) - getattr(ref, name)) <= 1e-15
        assert abs(isometry_residual(eve) - dense_isometry_residual(eve)) <= 1e-15
        for basis in protocol_bases(spec):
            assert np.max(np.abs(disturbance_per_state(eve, basis) - dense_disturbance(eve, basis))) <= 1e-15


def test_profile_measures_a_subnormal_in_block_entry():
    # negative control: one subnormal entry shows, exactly, in the w deviation
    blocks = np.array(orthonormal_layout(4).blocks)
    blocks[1, 0, 1] = 5e-324  # E_01 is blocks[1, 0]; coordinate 1 of block 1 is E_12's
    assert scalar_product_profile(EveStateSet(blocks=blocks)).w_max_dev == 5e-324


@pytest.mark.parametrize("shape", [(3, 3), (3, 3, 3, 3), (3, 3, 5), (3, 5, 3), (1, 1, 1)])
def test_malformed_blocks_are_refused(shape):
    with pytest.raises(DimensionError, match=r"\(d, d, d\) array with d >= 2"):
        EveStateSet(blocks=np.zeros(shape))


@pytest.mark.parametrize("d", [2, 3, 8])
def test_state_set_weights_are_the_isometry_weights(d):
    # weights[m] weighs block m's states in V: sqrt(1 - D) for the no-error block, sqrt(D/(d-1)) for
    # each error block, from the D that build_eve_states gives the set; the vector is cached and read-only.
    for D in (0.0, 0.1, (d - 1) / d):
        eve = build_eve_states(AttackParams(d, 2, D, w_bar(d, D)))
        assert eve.disturbance == D
        assert eve.weights.tolist() == [math.sqrt(1.0 - D)] + [math.sqrt(D / (d - 1))] * (d - 1)
        assert eve.weights is eve.weights
        with pytest.raises(ValueError, match="read-only"):
            eve.weights[0] = 1.0
    top = build_eve_states(AttackParams(d, 2, (d - 1) / d, 0.0)).weights  # every state weighs 1/sqrt(d)
    assert np.max(np.abs(top - 1.0 / math.sqrt(d))) <= EPS


def test_disturbance_computational_is_exact():
    params = AttackParams(3, 2, 0.17, 0.5)
    eve = build_eve_states(params)
    dist = disturbance_per_state(eve, computational_basis(3))
    assert np.max(np.abs(dist - 0.17)) <= 1e-14


@pytest.mark.parametrize("d", range(2, 7))
def test_disturbance_equal_on_fourier_basis(d):
    for D in (0.05, 0.15, 0.3):
        if D > (d - 1) / d - 1e-9:
            continue
        params = AttackParams(d, 2, D, w_bar(d, D))
        eve = build_eve_states(params)
        for basis in (computational_basis(d), fourier_basis(d)):
            dist = disturbance_per_state(eve, basis)
            assert np.max(np.abs(dist - D)) <= 1e-12


def test_disturbance_equal_on_all_three_qutrit_bases():
    for D in (0.05, 0.15, 0.3, 0.5):
        for w in (-0.2, 0.3, 0.8):
            params = AttackParams(3, 3, D, w)
            eve = build_eve_states(params)
            for basis in protocol_bases(ProtocolSpec(3, 3)):
                dist = disturbance_per_state(eve, basis)
                assert np.max(np.abs(dist - D)) <= 1e-12


def test_perturbed_s_breaks_fourier_symmetry():
    # negative control: keep the layout but force the wrong no-error overlap
    params = AttackParams(3, 2, 0.1, 0.85)
    good = build_eve_states(params)
    u, v = pair_for_overlap(params.s + 0.05, 3)
    blocks = np.array(good.blocks)
    blocks[0] = v
    blocks[0, range(3), range(3)] = u
    bad = EveStateSet(blocks, params.disturbance)
    iso = isometry_from_states(bad)
    assert iso.unitarity_residual() <= 1e-12  # still a valid channel
    assert isometry_residual(bad) <= 1e-12
    dist = disturbance_per_state(bad, fourier_basis(3))
    assert np.max(np.abs(dist - params.disturbance)) > 1e-4
    for basis in (computational_basis(3), fourier_basis(3)):
        oracle = disturbance_by_isometry(iso, basis)
        assert np.max(np.abs(disturbance_per_state(bad, basis) - oracle)) <= 1e-15


def test_disturbance_dimension_mismatch():
    eve = build_eve_states(AttackParams(3, 2, 0.1, 0.85))
    with pytest.raises(DimensionError):
        disturbance_per_state(eve, computational_basis(4))


def test_disturbance_holds_three_coefficient_sized_arrays():
    # The gathered coefficients, the product and its second half are 16 d^3 bytes each; one more
    # temporary of that size (a copy of the coefficients, or of the product) would break the bound.
    d = 64
    spec = ProtocolSpec(d)
    eve = build_eve_states(AttackParams(d, 2, 0.1, w_bar(d, 0.1)))
    basis = protocol_bases(spec)[1]
    disturbance_per_state(eve, basis)  # warm up
    tracemalloc.start()
    try:
        disturbance_per_state(eve, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 16 * d**3


@pytest.mark.parametrize("d, bases_count", [(d, 2) for d in [*range(2, 14), 16, 20, 31, 32, 64]] + [(3, 3)])
def test_two_valued_reader_equals_the_kernel_on_built_sets(d, bases_count):
    # Every built block Gram is two-valued, so the bound is rounding, and the reading is the kernel's
    # disturbance to rounding, for the built set and its complex cast.
    spec = ProtocolSpec(d, bases_count)
    bases = protocol_bases(spec)
    for D in (0.0, 0.05, 0.2, spec.max_disturbance):
        built = build_eve_states(AttackParams(d, bases_count, D, resolve_w(spec, D, "auto")))
        for eve in (built, EveStateSet(built.blocks.astype(np.complex128), D)):
            _, got, bound, _, _ = _read_block_grams(eve, bases)
            assert got.shape == (len(bases), d)
            assert 0.0 <= bound <= 1e-14
            for row, basis in zip(got, bases):
                assert np.max(np.abs(row - disturbance_per_state(eve, basis))) <= 2e-14


def test_two_valued_reader_bounds_a_perturbed_norm():
    # negative control: one state lengthened by 1e-9 moves its block's Gram off the two-valued model,
    # by about 2e-9 on the diagonal, and the bound takes that times the block's weight squared.
    d, D = 8, 0.2
    built = build_eve_states(AttackParams(d, 2, D, w_bar(d, D)))
    blocks = np.array(built.blocks)
    blocks[3, 5] *= 1.0 + 1e-9
    eve = EveStateSet(blocks, D)
    bases = protocol_bases(ProtocolSpec(d))
    _, got, bound, _, _ = _read_block_grams(eve, bases)
    assert bound == pytest.approx(D / (d - 1) * 2e-9 * eve.block_gram[3, 0, 0], rel=1e-6)
    for row, basis in zip(got, bases):
        assert np.max(np.abs(row - disturbance_per_state(eve, basis))) <= bound


def test_two_valued_reader_holds_one_gram_sized_array():
    # The reader's Gram is one real 8 d^3-byte buffer, reduced in place; the autocorrelations are
    # (k d, d) arrays. The kernel's test allows 3.5 x 16 d^3 bytes.
    d = 64
    bases = protocol_bases(ProtocolSpec(d))
    eve = build_eve_states(AttackParams(d, 2, 0.1, w_bar(d, 0.1)))
    _read_block_grams(eve, bases)  # warm up
    tracemalloc.start()
    try:
        _read_block_grams(eve, bases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * d**3


@pytest.mark.parametrize("d, bases_count", [(2, 2), (3, 2), (5, 2), (8, 2), (3, 3)])
def test_block_probabilities_are_the_dense_isometry_cells(d, bases_count):
    # p[i, m, j] = |<phi_i|_B <m, j|_E V|psi_i>|^2 against the dense isometry: every (sender,
    # receiver) pair of each basis, and one shared sender row against every receiver.
    D = 0.2
    spec = ProtocolSpec(d, bases_count)
    params = AttackParams(d, bases_count, D, resolve_w(spec, D, "auto"))
    eve, matrix = build_eve_states(params), build_isometry(params).matrix
    for basis in protocol_bases(spec):
        out = (matrix @ basis.vectors.T).T.reshape(d, d, d * d)  # [sender, receiver, ancilla]
        cells = np.abs(np.einsum("rb,sbe->sre", basis.vectors.conj(), out)) ** 2  # [sender, receiver, e]
        senders = np.repeat(basis.vectors, d, axis=0)
        receivers = np.tile(basis.vectors, (d, 1))
        every_pair = _block_probabilities(eve, senders, receivers)
        assert every_pair.shape == (d * d, d, d)
        assert np.max(np.abs(every_pair.reshape(d, d, d * d) - cells)) <= 1e-15
        shared = _block_probabilities(eve, basis.vectors[1:2], basis.vectors)
        assert np.array_equal(shared, every_pair[d : 2 * d])


def test_ancilla_dimension_is_d_squared():
    for d in (2, 3, 5):
        params = AttackParams(d, 2, 0.1, w_bar(d, 0.1))
        assert build_eve_states(params).blocks.shape == (d, d, d)  # d blocks of d coordinates
        assert build_isometry(params).matrix.shape == (d**3, d)


def test_records_take_dim_from_their_arrays():
    # The state set and the isometry store no dimension of their own: it is read off the array.
    for d in (2, 3, 5):
        assert EveStateSet(blocks=np.zeros((d, d, d))).dim == d
        assert AttackIsometry(np.zeros((d**3, d), dtype=complex)).dim == d
        params = AttackParams(d, 2, 0.1, w_bar(d, 0.1))
        assert build_eve_states(params).dim == build_isometry(params).dim == d


def profile_by_pairs(eve: EveStateSet) -> DenseProfile:
    """The scalar-product profile measured one pair at a time with np.vdot.

    The oracle for the block-Gram kernel of `scalar_product_profile`: it walks
    the pairs in the order the groups are defined and takes the first member
    of largest modulus of each vanishing group.
    """
    d = eve.dim
    st = dense_states(eve)

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
    return DenseProfile(
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
            assert getattr(oracle, group) == 0.0
        for name in ("s", "w", "s_max_dev", "w_max_dev"):
            assert abs(getattr(kernel, name) - getattr(oracle, name)) <= 4 * EPS


@pytest.mark.parametrize("d, bases_count", [(2, 2), (3, 2), (5, 2), (8, 2), (16, 2), (3, 3)])
def test_profile_of_real_states_equals_profile_of_their_complex_cast(d, bases_count):
    # the built states take a real product, a complex set the complex one: same overlaps
    spec = ProtocolSpec(d, bases_count)
    for disturbance in (0.0, 0.1, 0.3):
        w = resolve_w(spec, disturbance, "auto")
        eve = build_eve_states(AttackParams(d, bases_count, disturbance, w))
        real = scalar_product_profile(eve)
        cast = scalar_product_profile(EveStateSet(blocks=eve.blocks.astype(np.complex128)))
        for name in ("s", "w", "s_max_dev", "w_max_dev"):
            assert abs(getattr(real, name) - getattr(cast, name)) <= 4 * EPS


def orthonormal_layout(d: int) -> EveStateSet:
    """The block layout at s = w = 0: E_{i, i+m} is the unit vector on coordinate i of block m."""
    return EveStateSet(blocks=np.tile(np.eye(d, dtype=complex), (d, 1, 1)))


# group -> (perturbed state E_ab, state E_pq of the same block on whose coordinate it gains 0.5j)
PERTURBATIONS = {
    "s": ((0, 0), (1, 1)),
    "w": ((0, 1), (1, 2)),
}


def perturbed(eve: EveStateSet, group: str) -> EveStateSet:
    """A copy of the set in which the state of PERTURBATIONS[group] gains 0.5j on its block."""
    d = eve.dim
    (a, b), (p, q) = PERTURBATIONS[group]
    m = (b - a) % d
    assert (q - p) % d == m
    blocks = np.array(eve.blocks)
    blocks[m, a, p] += 0.5j
    return EveStateSet(blocks, eve.disturbance)


@pytest.mark.parametrize("group", PERTURBATIONS)
def test_profile_reports_a_perturbed_pair_in_its_group(group):
    # negative control: one entry makes one pair of one group nonzero
    perturbed_set = perturbed(orthonormal_layout(4), group)
    profile = scalar_product_profile(perturbed_set)
    oracle = profile_by_pairs(perturbed_set)
    for name in GROUPS:
        assert getattr(oracle, name) == 0.0
    for name in ("s", "w"):
        assert getattr(profile, name) == getattr(oracle, name) == 0.0
        deviation = getattr(profile, f"{name}_max_dev")
        assert deviation == getattr(oracle, f"{name}_max_dev")
        assert (deviation > 0.4) == (name == group)


@pytest.mark.parametrize("d, bases_count", [(d, 2) for d in [*range(2, 14), 16, 20, 31, 32, 64]] + [(3, 3)])
def test_block_gram_reader_on_built_sets(d, bases_count):
    # The reader's unitarity is isometry_residual's arithmetic on the same product, so the same bits. A
    # built set's block 0 has the relation's overlap s, to the rounding of a d-term sum (5 ulps of 1 at
    # d = 64), and every block Gram is two-valued, so each spread off the first row's overlap is
    # rounding; so for the complex cast.
    spec = ProtocolSpec(d, bases_count)
    bases = protocol_bases(spec)
    for D in (0.0, 0.05, 0.2, spec.max_disturbance):
        params = AttackParams(d, bases_count, D, resolve_w(spec, D, "auto"))
        built = build_eve_states(params)
        for eve in (built, EveStateSet(built.blocks.astype(np.complex128), D)):
            unitarity, _, _, overlaps, spreads = _read_block_grams(eve, bases)
            assert unitarity == isometry_residual(eve)
            assert abs(overlaps[0] - params.s) <= 8 * EPS
            assert overlaps.shape == spreads.shape == (d,)
            assert np.max(spreads) <= 1e-15


@pytest.mark.parametrize("dtype", [float, complex])
def test_block_gram_reader_reports_a_moved_overlap(dtype):
    # negative control: in the orthonormal layout every overlap is 0. E_22 gaining 1e-9 on coordinate 3
    # moves one block-0 overlap, <E_22|E_33>, off o_0 = <E_00|E_11> = 0 (and E_22's norm by 1e-18).
    blocks = np.array(orthonormal_layout(4).blocks.real, dtype=dtype)
    blocks[0, 2, 3] = 1e-9
    _, _, _, overlaps, spreads = _read_block_grams(EveStateSet(blocks, 0.1), protocol_bases(ProtocolSpec(4)))
    assert np.all(overlaps == 0.0)
    assert spreads[0] == pytest.approx(1e-9, rel=1e-12)
    assert np.all(spreads[1:] == 0.0)


def test_block_gram_reader_peak_is_about_one_gram():
    # On a fresh set the reader forms its own Gram, 8 d^3 bytes, and reduces it in place. The FFT buffers
    # are freed before the Gram is formed, so only the two (k d, d) autocorrelations live beside it; the
    # set's cached, read-only block_gram is not formed.
    d = 64
    bases = protocol_bases(ProtocolSpec(d))
    params = AttackParams(d, 2, 0.1, w_bar(d, 0.1))
    _read_block_grams(build_eve_states(params), bases)  # warm up
    eve = build_eve_states(params)
    tracemalloc.start()
    try:
        _read_block_grams(eve, bases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * d**3
    assert "block_gram" not in vars(eve)


@pytest.mark.parametrize("group", PERTURBATIONS)
def test_two_valued_bound_takes_the_modulus_of_a_complex_deviation(group):
    # negative control: the perturbed pair's overlap is -0.5j, which is off the model (o = 0) by 0.5 in
    # modulus and by 0 in its real part; the lengthened state's norm, 1.25, is the model's n.
    (a, b), _ = PERTURBATIONS[group]
    eve = EveStateSet(perturbed(orthonormal_layout(4), group).blocks, 0.3)
    bases = (computational_basis(4), fourier_basis(4))
    _, got, bound, _, _ = _read_block_grams(eve, bases)
    assert bound == 0.5 * eve.weights[(b - a) % 4] ** 2
    for row, basis in zip(got, bases):
        assert np.max(np.abs(row - disturbance_per_state(eve, basis))) <= bound
