"""Monte Carlo protocol simulator used as an independent check of the closed forms.

Each round: the sender draws a basis and a symbol uniformly, the attack
isometry acts, and the receiver (in the sender's basis) and the eavesdropper
(in the fixed ancilla coordinate basis) measure jointly. Because every tallied
statistic is a count over the finite outcome alphabet (basis, symbol,
receiver outcome, ancilla coordinate), rounds are drawn as one exact
multinomial per shard over the joint outcome distribution, which is computed
from the state vector without approximation. Shards own counter-based
generator streams keyed by (seed, shard), so results are reproducible and
independent of scheduling.

The eavesdropper's guess is the coordinate index inside her outcome's block
(the sender symbol, by construction of the state layout); her statistics are
tallied on computational-basis rounds only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .attack import AttackParams, build_isometry
from .bases import ProtocolSpec, protocol_bases
from .errors import DomainError, ProtocolError
from .information import guess_probability, i_ab, i_ae
from .optimize import _auto_w, admissible_w_interval

# Amplitude-squared cells below this are exact zeros up to roundoff from the
# basis rotation; dropping them keeps structurally-impossible outcomes at
# probability zero.
CELL_FLOOR = 1e-18

Z_LIMIT = 4.0
MI_ABS_TOL = 5e-3


def resolve_w(spec: ProtocolSpec, disturbance: float, w: float | str) -> float:
    """Resolve the overlap parameter; "auto" gives maximize_w's w: for two bases w_bar,
    which maximises the guess probability (not I_AE); for three, the maximiser of I_AE."""
    if isinstance(w, str):
        if w != "auto":
            raise DomainError(f"w must be a real number or 'auto', got {w!r}")
        return _auto_w(spec, disturbance, *admissible_w_interval(spec, disturbance))
    return float(w)


def outcome_distribution(spec: ProtocolSpec, disturbance: float, w: float) -> np.ndarray:
    """Joint probabilities P[basis, symbol, receiver outcome, ancilla coordinate]."""
    params = AttackParams(spec.dim, spec.bases_count, disturbance, w)
    isometry = build_isometry(params)
    bases = protocol_bases(spec.dim, spec.bases_count)
    d = spec.dim
    table = np.zeros((len(bases), d, d, d * d))
    for b_idx, basis in enumerate(bases):
        for symbol in range(d):
            joint = (isometry.matrix @ basis.vectors[symbol]).reshape(d, d * d)
            amplitudes = basis.vectors.conj() @ joint
            cell = np.abs(amplitudes) ** 2
            cell[cell < CELL_FLOOR] = 0.0
            table[b_idx, symbol] = cell / cell.sum()
    return table / (len(bases) * d)


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulated session."""

    spec: ProtocolSpec
    disturbance: float
    w: float | str = "auto"
    rounds: int = 1_000_000
    seed: int = 0
    shards: int = 1

    def __post_init__(self):
        for name, least in (("rounds", 1), ("shards", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and value >= least):
                raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers do not serialise to JSON


@dataclass(frozen=True)
class SessionStats:
    """Tallies of one session plus the derived empirical estimates."""

    dim: int
    bases_count: int
    disturbance: float
    w: float
    rounds: int
    seed: int
    shards: int
    counts: np.ndarray = field(repr=False)  # (bases, symbol, receiver, ancilla) int64

    # -- raw tallies ---------------------------------------------------------

    @property
    def rounds_per_basis(self) -> np.ndarray:
        return self.counts.sum(axis=(1, 2, 3))

    def symbol_receiver_histogram(self, basis_index: int) -> np.ndarray:
        """(symbol, receiver outcome) counts on rounds of one basis."""
        return self.counts[basis_index].sum(axis=2)

    @property
    def bob_error_rate(self) -> np.ndarray:
        """Receiver error rate per basis."""
        out = np.empty(self.counts.shape[0])
        for b_idx in range(self.counts.shape[0]):
            hist = self.symbol_receiver_histogram(b_idx)
            total = hist.sum()
            out[b_idx] = 1.0 - np.trace(hist) / total if total else 0.0
        return out

    @cached_property
    def _pooled_histogram(self) -> np.ndarray:
        """(symbol, receiver outcome) counts pooled over bases."""
        return _read_only(sum(self.symbol_receiver_histogram(b) for b in range(self.counts.shape[0])))

    @cached_property
    def _comp_guess_histograms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(all, receiver-correct, receiver-error) (symbol, guess) histograms."""
        d = self.dim
        comp = self.counts[0]  # (symbol, receiver, ancilla)
        by_guess = comp.reshape(d, d, d, d).sum(axis=2)  # ancilla -> (block, guess), sum blocks
        correct = by_guess[np.arange(d), np.arange(d)]  # receiver got the symbol
        total = by_guess.sum(axis=1)
        return _read_only(total), _read_only(correct), _read_only(total - correct)

    @property
    def eve_joint_histogram(self) -> np.ndarray:
        """(symbol, guess) counts on computational-basis rounds."""
        return self._comp_guess_histograms[0]

    @property
    def eve_joint_given_bob(self) -> tuple[np.ndarray, np.ndarray]:
        """(symbol, guess) histograms on receiver-correct and receiver-error rounds."""
        _, correct, error = self._comp_guess_histograms
        return correct, error

    # -- derived estimates ----------------------------------------------------

    @property
    def d_hat(self) -> float:
        """Pooled receiver error rate over all bases."""
        return 1.0 - np.trace(self._pooled_histogram) / self.counts.sum()

    @property
    def d_hat_se(self) -> float:
        p = self.d_hat
        return math.sqrt(p * (1.0 - p) / self.counts.sum())

    @property
    def p_eve_correct(self) -> float:
        hist = self.eve_joint_histogram
        return float(np.trace(hist) / hist.sum())

    @property
    def p_eve_correct_se(self) -> float:
        p = self.p_eve_correct
        return math.sqrt(p * (1.0 - p) / self.eve_joint_histogram.sum())

    @property
    def i_ab_hat(self) -> float:
        """Plug-in sender-receiver information, pooled over bases (dits)."""
        return empirical_mutual_information(self._pooled_histogram, self.dim)

    @property
    def i_ab_hat_se(self) -> float:
        return _mi_standard_error([self._pooled_histogram], self.dim)

    @property
    def i_ae_hat(self) -> float:
        """Plug-in sender-eavesdropper information (dits).

        Weighted over the receiver-correct / receiver-error regimes, matching
        the closed form F i_d(g_intact) + D i_d(g_error).
        """
        correct, error = self.eve_joint_given_bob
        total = correct.sum() + error.sum()
        acc = 0.0
        for hist in (correct, error):
            n = hist.sum()
            if n:
                acc += (n / total) * empirical_mutual_information(hist, self.dim)
        return acc

    @property
    def i_ae_hat_se(self) -> float:
        return _mi_standard_error(list(self.eve_joint_given_bob), self.dim)

    def to_dict(self) -> dict:
        correct, error = self.eve_joint_given_bob
        return {
            "dim": self.dim,
            "bases": self.bases_count,
            "disturbance": self.disturbance,
            "w": self.w,
            "rounds": self.rounds,
            "seed": self.seed,
            "shards": self.shards,
            "rounds_per_basis": self.rounds_per_basis.tolist(),
            "bob_error_rate": self.bob_error_rate.tolist(),
            "eve_joint_histogram": self.eve_joint_histogram.tolist(),
            "eve_joint_given_bob_correct": correct.tolist(),
            "eve_joint_given_bob_error": error.tolist(),
            "d_hat": self.d_hat,
            "d_hat_se": self.d_hat_se,
            "p_eve_correct": self.p_eve_correct,
            "p_eve_correct_se": self.p_eve_correct_se,
            "i_ab_dits": self.i_ab_hat,
            "i_ab_se": self.i_ab_hat_se,
            "i_ae_dits": self.i_ae_hat,
            "i_ae_se": self.i_ae_hat_se,
        }


def _read_only(arr: np.ndarray) -> np.ndarray:
    """Freeze a cached histogram: every caller of a SessionStats property shares it."""
    arr.setflags(write=False)
    return arr


def empirical_mutual_information(hist: np.ndarray, base: int) -> float:
    """Plug-in Shannon mutual information of a joint count table, in log base d."""
    hist = np.asarray(hist, dtype=float)
    if hist.sum() <= 0:
        raise DomainError("empty histogram")
    p, log_ratio = _cell_terms(hist)
    return float(np.sum(p * log_ratio) / math.log(base))


def _cell_terms(hist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero cell probabilities of a count table and their log-ratios to its marginals' product."""
    joint = hist / hist.sum()
    row = joint.sum(axis=1, keepdims=True)
    col = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    p = joint[mask]
    return p, np.log(p / (row @ col)[mask])


def _mi_standard_error(hists: list[np.ndarray], base: int) -> float:
    """Delta-method standard error of a (regime-weighted) plug-in information."""
    total = sum(int(h.sum()) for h in hists)
    if total <= 1:
        return 0.0
    mean = 0.0
    second = 0.0
    for hist in hists:
        hist = np.asarray(hist, dtype=float)
        n = hist.sum()
        if n == 0:
            continue
        p, log_ratio = _cell_terms(hist)
        scores = log_ratio / math.log(base)
        weights = (n / total) * p
        mean += float(np.sum(weights * scores))
        second += float(np.sum(weights * scores**2))
    variance = max(second - mean**2, 0.0)
    return math.sqrt(variance / total)


def plug_in_bias_allowance(d: int, rounds: int) -> float:
    """First-order plug-in bias bound for the d x d mutual information, in dits."""
    return (d - 1) ** 2 / (2.0 * max(rounds, 1) * math.log(d))


def simulate(config: SimConfig) -> SessionStats:
    """Run a session and return its tallies; deterministic given (seed, shards)."""
    spec = config.spec
    w = resolve_w(spec, config.disturbance, config.w)
    table = outcome_distribution(spec, config.disturbance, w)
    flat = table.reshape(-1)
    flat = flat / flat.sum()

    counts = np.zeros(flat.size, dtype=np.int64)
    base_rounds = config.rounds // config.shards
    remainder = config.rounds % config.shards
    for shard in range(config.shards):
        n_shard = base_rounds + (1 if shard < remainder else 0)
        if n_shard == 0:
            continue
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, shard])))
        counts += rng.multinomial(n_shard, flat)

    counts = counts.reshape(table.shape)
    counts.setflags(write=False)
    return SessionStats(
        dim=spec.dim,
        bases_count=spec.bases_count,
        disturbance=config.disturbance,
        w=w,
        rounds=config.rounds,
        seed=config.seed,
        shards=config.shards,
        counts=counts,
    )


@dataclass(frozen=True)
class ComparisonCheck:
    name: str
    empirical: float
    analytic: float
    z: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Agreement verdict between a session and the closed-form predictions."""

    checks: tuple[ComparisonCheck, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "empirical": c.empirical,
                    "analytic": c.analytic,
                    "z": c.z,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def _z_score(empirical: float, target: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if empirical == target else math.inf
    return (empirical - target) / se


def compare_to_analytic(
    stats: SessionStats, spec: ProtocolSpec, disturbance: float, w: float
) -> ComparisonReport:
    """z-scores of the empirical estimates against the closed forms.

    Passing requires |z| <= 4 on every rate and the plug-in informations to
    agree within 5e-3 plus a first-order bias allowance.
    """
    if spec.dim != stats.dim or spec.bases_count != stats.bases_count:
        raise ProtocolError(
            f"stats are for (d={stats.dim}, bases={stats.bases_count}), "
            f"not (d={spec.dim}, bases={spec.bases_count})"
        )
    n_total = int(stats.counts.sum())
    n_comp = int(stats.counts[0].sum())

    checks = []
    se_d = math.sqrt(disturbance * (1.0 - disturbance) / n_total)
    z = float(_z_score(stats.d_hat, disturbance, se_d))
    checks.append(
        ComparisonCheck("disturbance", float(stats.d_hat), disturbance, z, Z_LIMIT, abs(z) <= Z_LIMIT)
    )

    pe = guess_probability(spec, disturbance, w)
    se_pe = math.sqrt(pe * (1.0 - pe) / n_comp)
    z = float(_z_score(stats.p_eve_correct, pe, se_pe))
    checks.append(
        ComparisonCheck("eve_guess_probability", stats.p_eve_correct, pe, z, Z_LIMIT, abs(z) <= Z_LIMIT)
    )

    # Near zero information the delta-method SE collapses while the plug-in
    # estimate sits in its chi-square regime; flooring the denominator by the
    # bias allowance keeps the z-score meaningful there.
    bias = plug_in_bias_allowance(spec.dim, n_comp)
    target = i_ae(spec, disturbance, w)
    z = float(_z_score(stats.i_ae_hat, target, max(stats.i_ae_hat_se, bias)))
    ok = bool(abs(z) <= Z_LIMIT and abs(stats.i_ae_hat - target) <= MI_ABS_TOL + bias)
    checks.append(ComparisonCheck("i_ae_dits", stats.i_ae_hat, target, z, Z_LIMIT, ok))

    bias = plug_in_bias_allowance(spec.dim, n_total)
    target = i_ab(spec.dim, disturbance)
    z = float(_z_score(stats.i_ab_hat, target, max(stats.i_ab_hat_se, bias)))
    ok = bool(abs(z) <= Z_LIMIT and abs(stats.i_ab_hat - target) <= MI_ABS_TOL + bias)
    checks.append(ComparisonCheck("i_ab_dits", stats.i_ab_hat, target, z, Z_LIMIT, ok))

    return ComparisonReport(checks=tuple(checks), passed=all(c.passed for c in checks))
