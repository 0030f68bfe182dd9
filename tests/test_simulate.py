import dataclasses
import hashlib
import importlib
import math
import tracemalloc

import numpy as np
import pytest

from mub_eve import (
    AnalysisError,
    ComparisonReport,
    DimensionError,
    DomainError,
    ProtocolSpec,
    SessionStats,
    SimConfig,
    compare_to_analytic,
    empirical_mutual_information,
    guess_probability,
    i_ae,
    i_d,
    lambda_d,
    outcome_distribution,
    phi_d,
    resolve_w,
    simulate,
    w_bar,
)
from mub_eve.simulate import ComparisonCheck
from oracles import outcome_distribution_by_ancilla


def session(dim=3, bases=2, D=0.1, w=0.85, rounds=10**6, seed=11, shards=2):
    spec = ProtocolSpec(dim, bases)
    return simulate(
        SimConfig(spec=spec, disturbance=D, w=w, rounds=rounds, seed=seed, shards=shards)
    )


def test_identity_attack_is_exact():
    stats = session(dim=3, D=0.0, w=1.0, rounds=10**5, seed=5)
    assert stats.bob_error_rate.tolist() == [0.0, 0.0]
    assert stats.d_hat == 0.0
    # eavesdropper sees nothing: guess rate compatible with uniform
    p = stats.p_eve_correct
    n = stats.eve_joint_histogram.sum()
    assert abs(p - 1 / 3) <= 3 * math.sqrt((1 / 3) * (2 / 3) / n)
    report = compare_to_analytic(stats)
    assert report.passed


def test_rates_match_closed_forms_within_three_sigma():
    D, w = 0.1, 0.85
    stats = session(D=D, w=w, rounds=10**7, seed=42, shards=4)
    n = stats.counts.sum()
    assert abs(stats.d_hat - D) <= 3 * math.sqrt(D * (1 - D) / n)
    target = guess_probability(ProtocolSpec(3, 2), D, w)
    n_comp = stats.eve_joint_histogram.sum()
    assert abs(stats.p_eve_correct - target) <= 3 * math.sqrt(target * (1 - target) / n_comp)


def test_regime_conditional_guess_rates():
    D, w = 0.1, 0.85
    stats = session(D=D, w=w, rounds=10**7, seed=42, shards=4)
    correct, error = stats.eve_joint_given_bob
    phi = phi_d(D, w, 3)
    lam = lambda_d(w, 3)
    p_corr = np.trace(correct) / correct.sum()
    p_err = np.trace(error) / error.sum()
    assert abs(p_corr - phi) <= 3 * math.sqrt(phi * (1 - phi) / correct.sum())
    assert abs(p_err - lam) <= 3 * math.sqrt(lam * (1 - lam) / error.sum())


def test_bob_errors_uniform_over_wrong_symbols():
    D = 0.2
    stats = session(D=D, w=w_bar(3, D), rounds=10**6, seed=9, shards=1)
    for b_idx in range(2):
        hist = stats.receiver_histograms[b_idx]  # (symbol, receiver outcome)
        wrong = hist.copy()
        np.fill_diagonal(wrong, 0)
        errors = wrong.sum()
        # each of the d-1 wrong symbols equally likely given an error
        for a in range(3):
            row_err = wrong[a].sum()
            for j in range(3):
                if j == a:
                    continue
                expected = row_err / 2
                se = math.sqrt(row_err * 0.5 * 0.5)
                assert abs(wrong[a, j] - expected) <= 3 * se + 1
        assert errors > 0


@pytest.mark.parametrize(
    "D,dim,bases",
    [(D, dim, bases) for D in (0.0, 0.05, 0.3)
     for dim, bases in ((2, 2), (3, 2), (4, 2), (5, 2), (8, 2), (16, 2), (3, 3))]
    + [(0.1, 32, 2)],
)
def test_outcome_distribution_is_the_ancilla_block_sum(dim, bases, D):
    # The shifted symbol-0 route against the dense oracle, which computes every symbol's
    # table from the isometry; d = 32 checks the shift law at the largest d the tests reach.
    spec = ProtocolSpec(dim, bases)
    w = resolve_w(spec, D, "auto")
    by_ancilla = outcome_distribution_by_ancilla(spec, D, w)
    by_guess = by_ancilla.reshape(bases, dim, dim, dim, dim).sum(axis=3)  # ancilla -> (block, guess)
    table = outcome_distribution(spec, D, w)
    assert table.shape == (bases, dim, dim, dim)
    assert np.max(np.abs(table - by_guess)) <= 1e-15


@pytest.mark.parametrize("dim,bases", [(2, 2), (3, 2), (3, 3), (8, 2), (16, 2)])
@pytest.mark.parametrize("D", [0.0, 0.12])
def test_every_symbol_is_an_exact_shift_of_symbol_zero(dim, bases, D):
    # Weyl covariance: P[k, s, r, g] = P[k, 0, r - s, g - s] (mod d), bit for bit.
    spec = ProtocolSpec(dim, bases)
    table = outcome_distribution(spec, D, resolve_w(spec, D, "auto"))
    for k in range(bases):
        for s in range(dim):
            assert np.array_equal(table[k, s], np.roll(table[k, 0], (s, s), axis=(0, 1)))


def test_outcome_table_holds_no_copy_of_the_states():
    # The table reads the blocks (8 d^3 bytes) through the attack's amplitude kernel, which holds
    # at most three arrays of 16 d^3 bytes at once: 3.55 x 16 d^3 bytes in all at d = 32, against
    # 4.57 x 16 d^3 for a route that also keeps a weighted copy of the states. A d^4 array (the
    # dense states, 8.4 MB at d = 32) would break the bound by far.
    d = 32
    spec = ProtocolSpec(d)
    outcome_distribution(spec, 0.1, w_bar(d, 0.1))  # warm up
    tracemalloc.start()
    try:
        outcome_distribution(spec, 0.1, w_bar(d, 0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * d**3


def test_eve_block_predicts_receiver_shift_exactly():
    # Every nonzero computational-basis cell of the ancilla-resolved table: block 0 means
    # the receiver got the symbol, block m shifts it by m.
    for dim, bases, D, w in ((3, 2, 0.15, 0.6), (5, 2, 0.3, 0.4), (3, 3, 0.15, 0.6)):
        comp = outcome_distribution_by_ancilla(ProtocolSpec(dim, bases), D, w)[0]
        symbol, receiver, ancilla = np.nonzero(comp)
        block = ancilla // dim
        assert np.any(block > 0)
        assert np.array_equal(receiver, (symbol + block) % dim)


def test_counts_are_the_sufficient_statistics():
    stats = session(dim=4, D=0.2, w=0.5, rounds=100_001, seed=3, shards=3)
    assert stats.counts.shape == (4**3 + 4**2,)
    assert stats.counts.sum() == 100_001
    correct, error = stats.eve_joint_given_bob
    assert np.array_equal(correct + error, stats.eve_joint_histogram)
    assert np.array_equal(stats.eve_joint_histogram, stats.counts[: 4**3].reshape(4, 4, 4).sum(axis=1))


@pytest.mark.parametrize(
    "dim,bases,D,rounds,seed,shards",
    [(3, 2, 0.1, 10**5, 42, 4), (3, 3, 0.15, 10**5, 42, 2), (8, 2, 0.2, 10**5, 42, 3), (4, 2, 0.3, 7, 42, 3)],
)
def test_counts_are_the_key_table_then_each_other_basis_receiver_histogram(dim, bases, D, rounds, seed, shards):
    # The guess is drawn on the key basis only: d^3 (symbol, receiver, guess) cells, then
    # d^2 (symbol, receiver) cells for each other basis, and both views read ``counts``.
    stats = simulate(SimConfig(ProtocolSpec(dim, bases), D, "auto", rounds, seed, shards))
    assert stats.counts.shape == (dim**3 + (bases - 1) * dim**2,)
    assert stats.counts.sum() == rounds
    key, by_basis = stats.key_counts, stats.receiver_histograms
    assert key.shape == (dim, dim, dim) and by_basis.shape == (bases, dim, dim)
    assert np.shares_memory(key, stats.counts)
    assert by_basis.sum(axis=(1, 2)).tolist() == stats.rounds_per_basis.tolist()
    assert key.sum() == stats.rounds_per_basis[0]
    assert np.array_equal(by_basis[0], key.sum(axis=2))
    assert np.array_equal(by_basis[1:].reshape(-1), stats.counts[dim**3:])
    assert not (key.flags.writeable or by_basis.flags.writeable)


@pytest.mark.parametrize(
    "config,digest",
    [
        (SimConfig(ProtocolSpec(3, 2), 0.1, "auto", 1_000_000, 42, 4),
         "dccc91b7077efabefaee36ca8572f1ba5cf2e50d18e3160daab23d2c21c31f65"),
        (SimConfig(ProtocolSpec(3, 3), 0.15, -0.1098589865142163, 1_000_000, 42, 2),
         "62818782e28809d6b9261c1144648b21bcd36a1da1dfd2e8a6f48124eb306bfd"),
    ],
)
def test_key_basis_counts_match_a_draw_over_every_basis_guess(config, digest):
    # SHA-256 of the key-basis (symbol, receiver, guess) counts as drawn when every basis's
    # guess was drawn too: the key cells lead the draw, so every statistic of the
    # eavesdropper is unchanged by dropping the other bases' guesses.
    assert hashlib.sha256(simulate(config).key_counts.tobytes()).hexdigest() == digest


def test_determinism_bit_identical():
    a = session(rounds=500_000, seed=77, shards=3)
    b = session(rounds=500_000, seed=77, shards=3)
    assert np.array_equal(a.counts, b.counts)
    assert a.to_dict() == b.to_dict()


def test_shard_layout_changes_stream_but_not_total():
    a = session(rounds=100_003, seed=77, shards=1)
    b = session(rounds=100_003, seed=77, shards=4)
    assert a.counts.sum() == b.counts.sum() == 100_003
    assert not np.array_equal(a.counts, b.counts)


def test_comparison_passes_on_matched_run():
    D, w = 0.1, 0.85
    stats = session(D=D, w=w, rounds=10**7, seed=42, shards=4)
    report = compare_to_analytic(stats)
    assert report.passed
    assert all(abs(c.z) <= 4 for c in report.checks)


def test_comparison_fails_on_mismatched_disturbance():
    stats = session(D=0.12, w=0.85, rounds=10**6, seed=7, shards=1)
    report = compare_to_analytic(dataclasses.replace(stats, disturbance=0.1))
    assert not report.passed
    z_d = next(c.z for c in report.checks if c.name == "disturbance")
    assert abs(z_d) > 4


@pytest.mark.parametrize("dim,bases,D", [(3, 2, 0.1), (3, 3, 0.15), (8, 2, 0.2)])
def test_correct_sessions_pass_at_ten_thousand_rounds(dim, bases, D):
    # Every check of these 40 sessions has |z| <= 4; an absolute 5e-3 bound on the
    # informations, on top of the z-test, used to fail most of them at 10^4 rounds.
    spec = ProtocolSpec(dim, bases)
    failed = [
        seed for seed in range(40)
        if not compare_to_analytic(simulate(SimConfig(spec, D, rounds=10**4, seed=seed))).passed
    ]
    assert failed == []


def test_report_passes_only_when_every_check_does():
    good = ComparisonCheck("disturbance", 0.1, 0.1, 0.0, 4.0, True)
    bad = ComparisonCheck("i_ab_dits", 0.5, 0.4, 5.0, 4.0, False)
    assert ComparisonReport((good, good)).passed
    assert not ComparisonReport((good, bad)).passed
    assert ComparisonReport((good, bad)).to_dict()["passed"] is False


def test_information_se_floor_is_one_allowance_per_nonempty_regime():
    # Both receiver regimes hold guesses independent of the symbol, so each plug-in
    # information and its delta-method SE are 0, and the z-score reads the floor.
    d, D = 3, 0.1
    spec, w = ProtocolSpec(d), w_bar(d, D)
    symbol, guess = np.arange(d)[:, None], np.arange(d)
    for shifts in ((0, 1), (0,)):  # both regimes, then the receiver-correct one only
        counts = np.zeros(d**3 + d**2, dtype=np.int64)
        key = counts[: d**3].reshape(d, d, d)
        for shift in shifts:
            key[symbol, (symbol + shift) % d, guess] = 1
        stats = SessionStats(spec, D, w, int(counts.sum()), 0, 1, counts=counts)
        assert stats.i_ae_hat == 0.0 and stats.i_ae_hat_se == 0.0
        allowance = (d - 1) ** 2 / (2.0 * counts.sum() * math.log(d))  # every round is a computational one
        check = next(c for c in compare_to_analytic(stats).checks if c.name == "i_ae_dits")
        assert check.z == pytest.approx(-i_ae(spec, D, w) / (len(shifts) * allowance), rel=1e-12)


def test_session_record_is_its_config_plus_counts():
    own = {f.name for f in dataclasses.fields(SessionStats)}
    assert own - {f.name for f in dataclasses.fields(SimConfig)} == {"counts"}
    config = SimConfig(ProtocolSpec(3, 3), 0.15, "auto", 10**5, 5, 3)
    stats = simulate(config)
    assert stats.spec is config.spec
    assert isinstance(stats.w, float)
    # The record is a config: passing it back replays the session at its resolved w.
    replay = simulate(stats)
    assert np.array_equal(replay.counts, stats.counts)
    assert replay.to_dict() == stats.to_dict()


def test_session_record_rejects_counts_that_do_not_fit_its_spec():
    spec, w = ProtocolSpec(3), 0.8
    cells = 3**3 + 3**2  # two bases: the key basis's d^3 cells and the other's d^2
    # The two-basis k d^3 length: read without the check, it reported four bases.
    with pytest.raises(DimensionError, match="36 cells"):
        SessionStats(spec, 0.1, w, 54, 0, 1, counts=np.ones(54, dtype=np.int64))
    # The right length, but 36 counts under rounds = 99: read without the check, it reported rounds 99.
    with pytest.raises(DomainError, match="sum to rounds = 99"):
        SessionStats(spec, 0.1, w, 99, 0, 1, counts=np.ones(cells, dtype=np.int64))
    for bad in (np.ones((4, 9), dtype=np.int64), np.ones(cells), np.ones(cells, dtype=bool), [1] * cells):
        with pytest.raises(DimensionError):
            SessionStats(spec, 0.1, w, cells, 0, 1, counts=bad)
    negative = np.ones(cells, dtype=np.int64)
    negative[:2] = (-1, 3)  # still sums to rounds
    with pytest.raises(DomainError, match="nonnegative"):
        SessionStats(spec, 0.1, w, cells, 0, 1, counts=negative)
    with pytest.raises(DomainError, match="rounds must be an integer"):  # SimConfig's checks still run first
        SessionStats(spec, 0.1, w, 0, 0, 1, counts=np.zeros(54, dtype=np.int64))
    stats = SessionStats(spec, 0.1, w, cells, 0, 1, counts=np.ones(cells, dtype=np.uint32))
    assert stats.rounds_per_basis.tolist() == [27, 9]


def test_three_basis_session():
    spec = ProtocolSpec(3, 3)
    stats = simulate(
        SimConfig(spec=spec, disturbance=0.15, w="auto", rounds=10**6, seed=100, shards=2)
    )
    report = compare_to_analytic(stats)
    assert report.passed


def test_three_basis_counts_are_pinned():
    # SHA-256 of the (3, 3) session's counts at a fixed overlap: the outcome table, and so
    # every count, must not move when the attack's Z-line weight is rewritten.
    stats = simulate(SimConfig(ProtocolSpec(3, 3), 0.15, -0.1098589865142163, 1_000_000, 42, 2))
    digest = hashlib.sha256(stats.counts.tobytes()).hexdigest()
    assert digest == "4d0fafb5221507938bebd18bb060c8812b49c5bb2c88f282cb9fcc48f6d4c74a"


def test_empirical_mi_perfect_and_uniform():
    diagonal = np.eye(4, dtype=int) * 250
    assert empirical_mutual_information(diagonal, 4) == pytest.approx(1.0, abs=1e-12)
    uniform = np.full((3, 3), 111)
    assert empirical_mutual_information(uniform, 3) == pytest.approx(0.0, abs=1e-12)


def test_empirical_mi_symmetric_channel():
    # exact-probability histogram reproduces the closed-form channel information
    d, x = 3, 0.7
    hist = np.full((d, d), (1 - x) / (d - 1) / d)
    np.fill_diagonal(hist, x / d)
    hist *= 9_000_000
    assert empirical_mutual_information(hist, d) == pytest.approx(i_d(x, d), abs=1e-12)


def test_empirical_mi_empty():
    with pytest.raises(DomainError):
        empirical_mutual_information(np.zeros((3, 3)), 3)


def test_config_validation():
    spec = ProtocolSpec(3, 2)
    with pytest.raises(DomainError):
        SimConfig(spec=spec, disturbance=0.1, rounds=0)
    with pytest.raises(DomainError):
        SimConfig(spec=spec, disturbance=0.1, rounds=10, shards=0)
    with pytest.raises(DomainError):
        SimConfig(spec=spec, disturbance=0.1, rounds=10, seed=-1)
    # Counts are int64: the multinomial draw takes at most 2**63 - 1 rounds.
    assert SimConfig(spec=spec, disturbance=0.1, rounds=2**63 - 1).rounds == 2**63 - 1
    with pytest.raises(DomainError, match="int64"):
        SimConfig(spec=spec, disturbance=0.1, rounds=2**63)
    # D is checked against the spec's range, and w must be "auto" or a real number, when the
    # config is built rather than when the session runs; a record is a config too.
    for disturbance in (math.nan, -0.1, 0.9, 1.5):
        with pytest.raises(DomainError, match=r"^disturbance must lie in \[0, 0\.6666666666666666\]"):
            SimConfig(spec=spec, disturbance=disturbance, rounds=10)
    for w in ("bogus", "", None, True, 0.5j, [0.5]):
        with pytest.raises(DomainError, match=r"^w must be a real number or 'auto'"):
            SimConfig(spec=spec, disturbance=0.1, w=w, rounds=10)
    assert SimConfig(spec=spec, disturbance=0.1, w=np.float64(0.5), rounds=10).w == 0.5
    assert SimConfig(spec=spec, disturbance=0.1, w=1, rounds=10).w == 1
    counts = np.zeros(3**3 + 3**2, dtype=np.int64)
    counts[0] = 10
    with pytest.raises(DomainError, match=r"got 0\.9$"):
        SessionStats(spec, 0.9, 0.3, 10, 0, 1, counts=counts)


def test_resolve_w():
    assert resolve_w(ProtocolSpec(3, 2), 0.1, "auto") == pytest.approx(0.85, abs=1e-12)
    assert resolve_w(ProtocolSpec(3, 2), 0.1, 0.5) == 0.5
    with pytest.raises(DomainError):
        resolve_w(ProtocolSpec(3, 2), 0.1, "optimal")


def test_rounds_split_over_shards():
    stats = session(rounds=10, seed=1, shards=3)
    assert stats.counts.sum() == 10
    assert stats.rounds_per_basis.sum() == 10


def test_shards_beyond_rounds_draw_nothing():
    # Shards past the round count hold no round; the session visits none of them.
    many = session(rounds=3, seed=42, shards=10**12)
    assert np.array_equal(many.counts, session(rounds=3, seed=42, shards=3).counts)
    assert many.shards == 10**12


def _two_pass_information(hists, base):
    """Oracle: the estimator as first written, one plug-in information per regime table and
    a second pass over the tables for the delta-method standard error."""

    def cell_terms(hist):
        joint = hist / hist.sum()
        row = joint.sum(axis=1, keepdims=True)
        col = joint.sum(axis=0, keepdims=True)
        mask = joint > 0
        p = joint[mask]
        return p, np.log(p / (row @ col)[mask])

    total = sum(h.sum() for h in hists)
    info = 0.0
    for hist in hists:
        n = hist.sum()
        if n:
            p, log_ratio = cell_terms(np.asarray(hist, dtype=float))
            info += (n / total) * float(np.sum(p * log_ratio) / math.log(base))

    total = sum(int(h.sum()) for h in hists)
    if total <= 1:
        return info, 0.0
    mean = second = 0.0
    for hist in hists:
        hist = np.asarray(hist, dtype=float)
        n = hist.sum()
        if n == 0:
            continue
        p, log_ratio = cell_terms(hist)
        scores = log_ratio / math.log(base)
        weights = (n / total) * p
        mean += float(np.sum(weights * scores))
        second += float(np.sum(weights * scores**2))
    return info, math.sqrt(max(second - mean**2, 0.0) / total)


@pytest.mark.parametrize(
    "dim,bases,D,rounds,seed,shards",
    [
        (5, 2, 0.0, 1000, 42, 1),  # no receiver errors: the error regime is empty
        (4, 2, 0.3, 7, 42, 3),
        (3, 2, 0.1, 1, 0, 1),  # one round: the Fourier basis is empty, the SEs take n <= 1
        (3, 3, 0.15, 10**6, 100, 2),
    ],
)
def test_information_estimates_equal_two_pass_oracle(dim, bases, D, rounds, seed, shards):
    spec = ProtocolSpec(dim, bases)
    stats = simulate(SimConfig(spec, D, "auto", rounds, seed, shards))
    key, others = stats.counts[: dim**3].reshape(dim, dim, dim), stats.counts[dim**3:].reshape(-1, dim, dim)
    pooled = key.sum(axis=2) + others.sum(axis=0)
    assert (stats.i_ab_hat, stats.i_ab_hat_se) == _two_pass_information([pooled], dim)
    assert (stats.i_ae_hat, stats.i_ae_hat_se) == _two_pass_information(list(stats.eve_joint_given_bob), dim)


def test_empty_computational_sample_raises():
    # The single round of seed 1 lands in the Fourier basis: no sample for the guess rate.
    stats = session(rounds=1, seed=1, shards=1)
    assert stats.rounds_per_basis.tolist() == [0, 1]
    assert stats.bob_error_rate.tolist()[0] == 0.0
    with pytest.raises(AnalysisError, match="computational-basis"):
        stats.p_eve_correct
    with pytest.raises(AnalysisError, match="computational-basis"):
        compare_to_analytic(stats)


def test_each_count_table_is_read_once(monkeypatch):
    # One pass over the pooled table and one over each receiver regime serves every
    # information estimate of the statistics and of the verdict.
    sim = importlib.import_module("mub_eve.simulate")  # the package's `simulate` is the function
    calls = []
    cell_terms = sim._cell_terms
    monkeypatch.setattr(sim, "_cell_terms", lambda hist: calls.append(hist.shape) or cell_terms(hist))
    stats = session(rounds=10**5, seed=3)
    compare_to_analytic(stats)
    stats.to_dict()
    assert len(calls) == 3


def test_reported_estimates_are_computed_once():
    # The record and the verdict read one cached value each: the rates are Python floats,
    # and the per-basis arrays are frozen, as every cached table is.
    stats = session(rounds=10**4, seed=3)
    for name in ("d_hat", "p_eve_correct"):
        value = getattr(stats, name)
        assert type(value) is float and getattr(stats, name) is value
    for name in ("rounds_per_basis", "bob_error_rate"):
        value = getattr(stats, name)
        assert getattr(stats, name) is value and not value.flags.writeable
