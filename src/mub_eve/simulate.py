"""Monte Carlo protocol simulator used as an independent check of the closed forms.

Each round: the sender draws a basis and a symbol uniformly, the attack maps
her qudit to receiver x ancilla (the ancilla states weighted by the
disturbance amplitudes), and the receiver (in the sender's basis) and the
eavesdropper (in the fixed ancilla coordinate basis) measure jointly. Her guess
is the ancilla coordinate mod d (the sender symbol, by the state layout), and
every tallied statistic reads only that guess. So each shard draws one exact
multinomial over (basis, symbol, receiver outcome, guess), whose distribution
is computed from the states and summed over the ancilla blocks: a marginal of a
multinomial is the multinomial of the marginal. Shards own counter-based
generator streams keyed by (seed, shard), so results are reproducible and
independent of scheduling. The eavesdropper's statistics are tallied on
computational-basis rounds only.

The attack is Weyl-covariant (Cerf, Bourennane, Karlsson and Gisin, PRL 88,
127902, 2002), so P[k, s, r, g] = P[k, 0, r - s, g - s] mod d. X^s maps symbol
0 to s in the computational and qutrit alpha bases, and shifts the receiver and
the in-block coordinate by s. Z^s does so in the Fourier basis, shifting the
receiver and putting a phase on each ancilla block; X covariance makes the
Fourier rows flat in the guess. ``test_every_symbol_is_an_exact_shift_of_symbol_zero``
pins the shift bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .attack import AttackParams, _isometry_scale, build_eve_states
from .bases import ProtocolSpec, protocol_bases
from .errors import AnalysisError, DomainError
from .information import guess_probability, i_ab, i_ae
from .optimize import optimal_w

# Amplitude-squared cells below this are exact zeros up to roundoff from the
# basis rotation; dropping them keeps structurally-impossible outcomes at
# probability zero.
CELL_FLOOR = 1e-18

# The largest round count a multinomial draw can take: counts are int64.
MAX_ROUNDS = 2**63 - 1

Z_LIMIT = 4.0


def resolve_w(spec: ProtocolSpec, disturbance: float, w: float | str) -> float:
    """Resolve the overlap parameter; "auto" gives optimal_w's w: for two bases w_bar,
    which maximises the guess probability (not I_AE); for three, the maximiser of I_AE."""
    if isinstance(w, str):
        if w != "auto":
            raise DomainError(f"w must be a real number or 'auto', got {w!r}")
        return optimal_w(spec, disturbance)
    return float(w)


def outcome_distribution(spec: ProtocolSpec, disturbance: float, w: float) -> np.ndarray:
    """Joint probabilities P[basis, symbol, receiver outcome, eavesdropper's guess].

    The guess is the ancilla coordinate mod d; each cell sums |amplitude|^2 over the d ancilla
    blocks that share it. Symbol 0's row takes one product per basis; the others are its shifts.
    """
    d = spec.dim
    states = build_eve_states(AttackParams(d, spec.bases_count, disturbance, w)).states
    # Column (b, m d + j) of the weighted states has one nonzero sender a = b - m: E_ab lives in block m.
    # weighted[b, m, j] = scale[a, b] E_ab[m d + j], real, formed as the dense isometry forms it.
    b, m = np.arange(d)[:, None], np.arange(d)
    a = (b - m) % d
    weighted = _isometry_scale(d, disturbance)[a, b][:, :, None] * states.reshape(d, d, d, d)[a, b, m]
    bases = protocol_bases(spec)
    rows = np.empty((len(bases), d, d))
    for b_idx, basis in enumerate(bases):
        joint = (basis.vectors[0][a][:, :, None] * weighted).reshape(d, d * d)  # [receiver b, m d + j]
        cell = np.abs(basis.vectors.conj() @ joint) ** 2
        cell[cell < CELL_FLOOR] = 0.0
        by_guess = cell.reshape(d, d, d).sum(axis=1)  # (receiver, block, guess) -> (receiver, guess)
        rows[b_idx] = by_guess / by_guess.sum()
    shift = a.T  # shift[s, r] = (r - s) mod d: P[k, s, r, g] = rows[k, shift[s, r], shift[s, g]]
    return rows[:, shift[:, :, None], shift[:, None, :]] / (len(bases) * d)


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
            if isinstance(value, bool) or not (isinstance(value, Integral) and value >= least):
                raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers do not serialise to JSON
        if self.rounds > MAX_ROUNDS:
            raise DomainError(f"rounds must be at most {MAX_ROUNDS}, the int64 count limit, got {self.rounds}")


@dataclass(frozen=True)
class SessionStats(SimConfig):
    """A session record: its configuration, with ``w`` resolved to a float, plus its tallies.

    The configuration fields and their checks are ``SimConfig``'s; the record
    adds only ``counts``, the (basis, symbol, receiver, guess) int64 table.
    Passing the record back to ``simulate`` replays its counts. Every estimate
    reads one of two cached marginals of ``counts``: the (basis, symbol,
    receiver) histograms, and the computational-basis (symbol, guess)
    histograms by receiver regime. The informations and their
    standard errors take one cached pass over each count table. With no
    computational-basis round, ``p_eve_correct`` raises ``AnalysisError``.
    """

    counts: np.ndarray = field(kw_only=True, repr=False)

    # -- raw tallies ---------------------------------------------------------

    @cached_property
    def _receiver_histograms(self) -> np.ndarray:
        """(basis, symbol, receiver outcome) counts."""
        return _read_only(self.counts.sum(axis=3))

    @property
    def rounds_per_basis(self) -> np.ndarray:
        return self._receiver_histograms.sum(axis=(1, 2))

    @property
    def bob_error_rate(self) -> np.ndarray:
        """Receiver error rate per basis; 0 for a basis with no rounds."""
        totals = self.rounds_per_basis
        correct = np.trace(self._receiver_histograms, axis1=1, axis2=2)
        return np.where(totals > 0, 1.0 - correct / np.maximum(totals, 1), 0.0)

    @cached_property
    def _pooled_histogram(self) -> np.ndarray:
        """(symbol, receiver outcome) counts pooled over bases."""
        return _read_only(self._receiver_histograms.sum(axis=0))

    @cached_property
    def _comp_guess_histograms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(all, receiver-correct, receiver-error) (symbol, guess) histograms."""
        d = self.spec.dim
        comp = self.counts[0]  # (symbol, receiver, guess)
        correct = comp[np.arange(d), np.arange(d)]  # receiver got the symbol
        total = comp.sum(axis=1)
        return _read_only(total), _read_only(correct), _read_only(total - correct)

    @property
    def eve_joint_histogram(self) -> np.ndarray:
        """(symbol, guess) counts on computational-basis rounds."""
        return self._comp_guess_histograms[0]

    @property
    def eve_joint_given_bob(self) -> tuple[np.ndarray, np.ndarray]:
        """(symbol, guess) histograms on receiver-correct and receiver-error rounds."""
        return self._comp_guess_histograms[1:]

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
        """Eavesdropper's guess rate on computational-basis rounds; AnalysisError if there are none."""
        hist = self.eve_joint_histogram
        if not hist.any():
            raise AnalysisError(f"no computational-basis rounds among {self.rounds}: the guess rate has no sample")
        return float(np.trace(hist) / hist.sum())

    @property
    def p_eve_correct_se(self) -> float:
        p = self.p_eve_correct
        return math.sqrt(p * (1.0 - p) / self.eve_joint_histogram.sum())

    @cached_property
    def _informations(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """(estimate, SE) in dits of I_AB, pooled over bases, and of I_AE, over the receiver regimes."""
        d = self.spec.dim
        return _information([self._pooled_histogram], d), _information(self.eve_joint_given_bob, d)

    @property
    def i_ab_hat(self) -> float:
        """Plug-in sender-receiver information, pooled over bases (dits)."""
        return self._informations[0][0]

    @property
    def i_ab_hat_se(self) -> float:
        return self._informations[0][1]

    @property
    def i_ae_hat(self) -> float:
        """Plug-in sender-eavesdropper information (dits).

        Weighted over the receiver-correct / receiver-error regimes, matching
        the closed form F i_d(g_intact) + D i_d(g_error).
        """
        return self._informations[1][0]

    @property
    def i_ae_hat_se(self) -> float:
        return self._informations[1][1]

    def to_dict(self) -> dict:
        correct, error = self.eve_joint_given_bob
        return {
            "dim": self.spec.dim,
            "bases": self.spec.bases_count,
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
    """Plug-in Shannon mutual information of a joint count table, in log base ``base``.

    DomainError unless the table is 2-D, finite and nonnegative with a
    positive sum, and base >= 2.
    """
    hist = np.asarray(hist, dtype=float)
    if hist.ndim != 2 or not (np.isfinite(hist).all() and (hist >= 0).all() and hist.sum() > 0):
        raise DomainError(f"need a 2-D finite nonnegative count table with a positive sum, got shape {hist.shape}")
    if not base >= 2:
        raise DomainError(f"base must be >= 2, got {base!r}")
    return _information([hist], base)[0]


def _cell_terms(hist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero cell probabilities of a count table and their log-ratios to its marginals' product."""
    joint = hist / hist.sum()
    row = joint.sum(axis=1, keepdims=True)
    col = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    p = joint[mask]
    return p, np.log(p / (row @ col)[mask])


def _information(hists, base: int) -> tuple[float, float]:
    """Plug-in information of regime count tables in log base ``base``, and its delta-method SE.

    A table of n of the N counts weighs n / N. The information is the weighted
    sum of the tables' plug-in informations; the SE is sqrt(Var(score) / N),
    a cell's score being its log-ratio to the product of its table's
    marginals (0 for N <= 1). One pass over each nonempty table gives both.
    """
    total = sum(hist.sum() for hist in hists)
    info = mean = second = 0.0
    for hist in hists:
        n = hist.sum()
        if n:
            p, log_ratio = _cell_terms(hist)
            share = n / total
            info += share * float(np.sum(p * log_ratio) / math.log(base))
            scores = log_ratio / math.log(base)
            mean += float(np.sum(share * p * scores))
            second += float(np.sum(share * p * scores**2))
    return float(info), math.sqrt(max(second - mean**2, 0.0) / total) if total > 1 else 0.0


def plug_in_bias_allowance(hists, d: int) -> float:
    """First-order plug-in bias of ``_information`` over d x d regime count tables, in dits.

    A non-empty table of n of the N counts has bias (d-1)^2 / (2 n ln d) and
    weighs n / N, so each adds (d-1)^2 / (2 N ln d): the share-weighted sum.
    """
    sizes = [int(hist.sum()) for hist in hists]
    total = sum(sizes)
    return sum(n / total * (d - 1) ** 2 / (2.0 * n * math.log(d)) for n in sizes if n)


def simulate(config: SimConfig) -> SessionStats:
    """Run a session and return its tallies; deterministic given (seed, shards).

    A ``SessionStats`` is itself a config: passing one back replays its counts.
    """
    spec = config.spec
    w = resolve_w(spec, config.disturbance, config.w)
    table = outcome_distribution(spec, config.disturbance, w)
    flat = table.reshape(-1)
    flat = flat / flat.sum()

    counts = np.zeros(flat.size, dtype=np.int64)
    base_rounds = config.rounds // config.shards
    remainder = config.rounds % config.shards
    for shard in range(min(config.shards, config.rounds)):  # later shards draw no round
        n_shard = base_rounds + (1 if shard < remainder else 0)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, shard])))
        counts += rng.multinomial(n_shard, flat)

    counts = counts.reshape(table.shape)
    counts.setflags(write=False)
    return SessionStats(spec, config.disturbance, w, config.rounds, config.seed, config.shards, counts=counts)


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

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks]}


def _check(name: str, empirical: float, analytic: float, se: float) -> ComparisonCheck:
    """|z| <= 4 for an estimate with standard error se; with se = 0, z is 0 on the target, inf off it."""
    z = float((empirical - analytic) / se) if se != 0.0 else (0.0 if empirical == analytic else math.inf)
    return ComparisonCheck(name, float(empirical), analytic, z, Z_LIMIT, abs(z) <= Z_LIMIT)


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def compare_to_analytic(stats: SessionStats) -> ComparisonReport:
    """z-scores of the empirical estimates against the closed forms at the session's own spec, D and w.

    Passing requires |z| <= 4 on every check. The rates' SE is binomial. The
    plug-in informations' SE is the delta-method SE floored by their
    first-order bias, one allowance per non-empty regime table: near zero
    information that SE collapses while the estimate sits in its chi-square
    regime. Below about 10^3 rounds the normal approximation behind the
    z-test is itself unreliable, and correct sessions can fail. A session
    without computational-basis rounds raises ``AnalysisError``.
    """
    spec, disturbance, w = stats.spec, stats.disturbance, stats.w
    d, n_total, n_comp = spec.dim, int(stats.counts.sum()), int(stats.counts[0].sum())
    guess = guess_probability(spec, disturbance, w)
    checks = (
        _check("disturbance", stats.d_hat, disturbance, _binomial_se(disturbance, n_total)),
        # p_eve_correct raises AnalysisError before the SE can divide by n_comp = 0
        _check("eve_guess_probability", stats.p_eve_correct, guess, _binomial_se(guess, n_comp)),
        _check("i_ae_dits", stats.i_ae_hat, i_ae(spec, disturbance, w),
               max(stats.i_ae_hat_se, plug_in_bias_allowance(stats.eve_joint_given_bob, d))),
        _check("i_ab_dits", stats.i_ab_hat, i_ab(spec, disturbance),
               max(stats.i_ab_hat_se, plug_in_bias_allowance([stats._pooled_histogram], d))),
    )
    return ComparisonReport(checks)
