"""Construction of the symmetric eavesdropping attack and its constraint checks.

In the Weyl-operator form of Cerf, Bourennane, Karlsson and Gisin (PRL 88,
127902, 2002) the attack applies X^m Z^n to the qudit, correlated with the
ancilla, with weight p_mn. The symmetric attack with equal disturbance D on
every basis of the protocol leaves one overlap w free. The weight z^2 on each
non-identity point of the Z line (m = 0) is

    z^2 = D (1 + (d-1) c w) / (d (d-1)),   c = ProtocolSpec.z_factor,

with c = 1 for two bases (any d), where Z shares its weight with the X line,
and c = -1/2 for three (d = 3), where it shares with the XZ and XZ^2 lines,
whose eigenbases are the other two qutrit bases. That is the only difference
between the protocols. The eavesdropper's d^2 output states are laid out in d
mutually orthogonal coordinate blocks of size d, block m = (receiver - sender)
mod d. Each block's Gram matrix is circulant, so its eigenvalues are d p_mn
over the block's total weight:

* block 0 contains the "no error" states E_ii, with pairwise overlap s and
  eigenvalues 1 - s = d z^2 / (1 - D) (d - 1 times) and 1 + (d-1) s;
* block m (1 <= m <= d-1) contains the d error states E_{i, i+m mod d}, with
  pairwise overlap w and eigenvalues 1 - w and 1 + (d-1) w. Within a block,
  state E_ij takes the major coefficient on coordinate i (the sender symbol),
  which makes the eavesdropper's outcome -> guess map the identity on the
  coordinate index.

Each block's coefficients are read from its two eigenvalues, so no gap is
formed by cancellation as s nears 1. Placing the blocks on disjoint coordinate
ranges realises all the required vanishing scalar products exactly instead of
solving Gram constraints numerically.

The blocks are the data format: ``EveStateSet.blocks[m, i]`` holds the block-m
coordinates of E_{i, i+m}, d^3 entries in all, and every coordinate of a state
outside its own block is a structural zero that is not stored. So every overlap
of two states in different blocks, and with it each of the x, y, z and t
groups, is an exact zero of the format, stored and computed nowhere. The set
also holds D, checked once when it is built, so it is the isometry V:
``weights[m]``, sqrt(1 - D) for m = 0 and sqrt(D/(d-1)) otherwise, weighs block
m's states, and no reader takes D again. ``verify`` reads every measured gate
from one pass over the d block Grams (``_read_block_grams``: one batched d^4
product into an array it reduces in place): the unitarity from their diagonals,
s and w from each Gram's first row and its spread off it, and each basis's
disturbance from the Grams read as circulant with two values, two circular
autocorrelations of each state plus a bound that makes the reading sound for any
set. The exact disturbance, |<phi|_B <m, j|_E V|psi>|^2 summed over the d^2
ancilla cells, is read by one kernel for any (sender psi, receiver phi) pairs
(``_block_probabilities``), with at most three arrays of 16 n d^2 bytes live for
n pairs. No command calls it, nor ``isometry_residual``, ``scalar_product_profile``
or the cached ``EveStateSet.block_gram``: with ``disturbance_per_state`` and
``simulate.outcome_distribution``, they are the references the tests hold the
commands to. No command forms the dense (d^3 x d) isometry or the dense
d^2-coordinate states, which the tests build as an oracle."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bases import RADICAND_SLACK, Basis, ProtocolSpec
from .errors import DimensionError, DomainError


def coeff_pair(plus: float, minus: float, d: int) -> tuple[float, float]:
    """Coefficients (major, minor) of d unit vectors with a circulant Gram matrix.

    plus = 1 + (d-1) overlap and minus = 1 - overlap are the Gram eigenvalues,
    checked in overlap units: the overlap must lie in [-1/(d-1), 1] up to
    RADICAND_SLACK. Picks the branch with major >= minor (the eavesdropper's
    best guess probability).
    """
    if not (plus >= -(d - 1) * RADICAND_SLACK and minus >= -RADICAND_SLACK):
        raise DomainError(f"Gram eigenvalues ({plus}, {minus}) of {d} unit vectors must be >= 0")
    a = math.sqrt(max(plus, 0.0))
    b = math.sqrt(max(minus, 0.0))
    return (a + (d - 1) * b) / d, (a - b) / d


@dataclass(frozen=True)
class AttackParams:
    """Full parametrisation of the symmetric attack: (d, bases, D, w) plus deriveds."""

    dim: int
    bases_count: int
    disturbance: float
    w: float

    def __post_init__(self):
        self.spec.check_disturbance(self.disturbance)
        try:
            self.coeff_pairs
        except DomainError as exc:
            raise DomainError(f"no valid attack with D={self.disturbance}, w={self.w}: {exc}") from None

    @cached_property
    def spec(self) -> ProtocolSpec:
        """The checked protocol key, built once per parameter set."""
        return ProtocolSpec(self.dim, self.bases_count)

    def no_error_eigenvalues(self) -> tuple[float, float]:
        """Gram eigenvalues (1 + (d-1) s, 1 - s) of the no-error block, from the Z-line weight z^2."""
        d, disturbance = self.dim, self.disturbance
        c = self.spec.z_factor
        z2 = disturbance * (1.0 + (d - 1) * c * self.w) / (d * (d - 1))
        minus = d * z2 / (1.0 - disturbance)
        return d - (d - 1) * minus, minus

    @property
    def s(self) -> float:
        return 1.0 - self.no_error_eigenvalues()[1]

    @cached_property  # computed by the validation in __post_init__, read by build_eve_states
    def coeff_pairs(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """((u, v) for the no-error block, (r, q) for the error blocks), computed once per parameter set."""
        d, w = self.dim, self.w
        return coeff_pair(*self.no_error_eigenvalues(), d), coeff_pair(1.0 + (d - 1) * w, 1.0 - w, d)


@dataclass(frozen=True)
class EveStateSet:
    """The attack isometry: the d^2 ancilla states as d coordinate blocks, blocks[m, i] = the block-m coordinates
    of E_{i, i+m} (a state's other coordinates are zeros not stored), and the D that weighs them, checked here,
    once; D = 0 serves a set read only for its overlaps."""

    blocks: np.ndarray = field(repr=False)  # (d, d, d), float64 as built; complex sets work too
    disturbance: float = 0.0

    def __post_init__(self):
        shape = np.shape(self.blocks)
        if len(shape) != 3 or len(set(shape)) != 1 or shape[0] < 2:
            raise DimensionError(f"ancilla blocks must be a (d, d, d) array with d >= 2, got shape {shape}")
        ProtocolSpec(shape[0]).check_disturbance(self.disturbance)

    @property
    def dim(self) -> int:
        return self.blocks.shape[0]

    @cached_property
    def weights(self) -> np.ndarray:
        """weights[m], the weight in V of each state of block m: sqrt(1 - D) for m = 0, sqrt(D/(d-1)) otherwise."""
        weights = np.full(self.dim, math.sqrt(self.disturbance / (self.dim - 1)))
        weights[0] = math.sqrt(1.0 - self.disturbance)
        weights.setflags(write=False)
        return weights

    @cached_property
    def block_gram(self) -> np.ndarray:
        """block_gram[m, i, k] = <E_{i, i+m}|E_{k, k+m}>, one batched product: every overlap that can be
        nonzero, each exact to rounding."""
        g = _gram(self.blocks)
        g.setflags(write=False)
        return g


@dataclass(frozen=True)
class ScalarProductProfile:
    """The intra-block overlaps w and s measured from a concrete state set, as means with their maximum
    deviations: the groups a state set can get wrong (x, y, z and t are zeros of the format)."""

    w: float
    s: float
    w_max_dev: float
    s_max_dev: float


def build_eve_states(params: AttackParams) -> EveStateSet:
    """Lay out the ancilla output states in orthogonal coordinate blocks."""
    d = params.dim
    (u, v), (r, q) = params.coeff_pairs
    # E_{i, i+m} fills block m: the minor coefficient, and the major on coordinate i.
    blocks = np.full((d, d, d), q)
    blocks[0] = v
    idx = np.arange(d)
    blocks[:, idx, idx] = np.where(idx == 0, u, r)[:, None]
    blocks.setflags(write=False)
    return EveStateSet(blocks, params.disturbance)


def scalar_product_profile(eve: EveStateSet) -> ScalarProductProfile:
    """Measure s and w from the within-block overlaps ``eve.block_gram`` [m, i, k], k > i: block 0 for s,
    blocks 1..d-1 for w. The pairs of x, y, z and t lie in different blocks, so the format holds them at zero."""
    d = eve.dim
    idx = np.arange(d)
    later_sender = idx[:, None] < idx  # [i, k]: k > i
    within = eve.block_gram
    s_vals, w_vals = within[0][later_sender], within[1:, later_sender]
    s_mean = float(np.mean(s_vals.real))
    w_mean = float(np.mean(w_vals.real))
    return ScalarProductProfile(
        w=w_mean,
        s=s_mean,
        w_max_dev=float(np.max(np.abs(w_vals - w_mean))),
        s_max_dev=float(np.max(np.abs(s_vals - s_mean))),
    )


@dataclass(frozen=True)
class AttackIsometry:
    """The (d * d^2) x d matrix taking the sender's qudit to the Bob x Eve state.

    Rows are indexed Bob-major: row b * d^2 + e is Bob outcome b, ancilla
    coordinate e. No command builds one; the tests build it as the dense oracle, and it
    stays here because the benchmark's tracer wraps ``unitarity_residual`` by name.
    """

    matrix: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def unitarity_residual(self) -> float:
        v = self.matrix
        return float(np.max(np.abs(v.conj().T @ v - np.eye(self.dim))))


def isometry_residual(eve: EveStateSet) -> float:
    """max |V^dagger V - I| of the attack isometry V, read from the states' overlaps without forming V.
    E_ab and E_a'b share a block only for a = a', so V^dagger V is diagonal, and its diagonal is
    (V^dagger V)[a] = sum_m weights[m]^2 <E_{a, a+m}|E_{a, a+m}>: the block Grams' diagonals (``eve.block_gram``)."""
    unitarity = np.square(eve.weights) @ np.diagonal(eve.block_gram, axis1=1, axis2=2)
    return float(np.max(np.abs(unitarity - 1.0)))


def _block_probabilities(eve: EveStateSet, senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
    """p[i, m, j] = |<phi_i|_B <m, j|_E V|psi_i>|^2, read from the blocks without forming V, for sender psi_i =
    ``senders[i]`` (or the one shared row) and receiver phi_i = ``receivers[i]``, on ancilla block m, coordinate
    j. With n pairs, the peak is three arrays of 16 n d^2 bytes (the gathered coefficients, the product and its
    second half); the squares (8 n d^2 bytes) come after."""
    d = eve.dim
    # Block m of the amplitude takes only the E_{a, a+m}, so one gathered array holds every coefficient:
    # c[m, a, i] = psi_i[a] conj(phi_i[a+m]) weights[m], formed in place. The weight is one number per
    # block, and it takes only two values, so each is applied as a scalar, which needs no broadcast buffer.
    c = np.take(receivers.T.conj(), np.arange(d)[:, None] + np.arange(d), axis=0, mode="wrap")
    np.multiply(senders.T, c, out=c)
    c[0] *= eve.weights[0]
    c[1:] *= eve.weights[1]
    # Real blocks (every built set) take c's real view, the parts of each pair interleaved, as the left
    # operand of one real batched product; complex blocks take the complex product. Its d-term sums run
    # in two halves, which keeps their rounding at a dense product's: against long double, at d <= 32,
    # one sequential sum was off by up to 1.5e-15 in a disturbance, the halves by 8.5e-16.
    blocks, h, real = eve.blocks, d // 2, np.isrealobj(eve.blocks)
    lhs = c.view(np.float64).transpose(0, 2, 1) if real else c.transpose(0, 2, 1)
    amp = lhs[..., :h] @ blocks[:, :h]
    amp += lhs[..., h:] @ blocks[:, h:]
    del c, lhs  # |amp|^2 = re^2 + im^2, in place, then into one [i, m, j] array
    parts = amp.view(np.float64)
    np.square(parts, out=parts)
    re2, im2 = (amp[:, 0::2], amp[:, 1::2]) if real else (amp.real, amp.imag)
    p = np.empty((len(receivers), d, d))
    np.add(re2, im2, out=p.transpose(1, 0, 2))
    return p


def disturbance_per_state(eve: EveStateSet, basis: Basis) -> np.ndarray:
    """Disturbance 1 - <psi| rho_B |psi> for each state of the given basis, read from the states;
    rho_B is the receiver's reduced state after the attack (ancilla traced out). Each state's d^2
    probabilities fill one contiguous row, which numpy sums pairwise."""
    d = eve.dim
    if basis.dim != d:
        raise DimensionError(f"basis dimension {basis.dim} != attack dimension {d}")
    p = _block_probabilities(eve, basis.vectors, basis.vectors)
    return 1.0 - p.reshape(d, d * d).sum(axis=1)


def _gram(blocks: np.ndarray) -> np.ndarray:
    """G[m, i, k] = <blocks[m, i]|blocks[m, k]>, the d block Grams, as one batched product into a new array."""
    return blocks @ blocks.transpose(0, 2, 1) if np.isrealobj(blocks) else blocks.conj() @ blocks.transpose(0, 2, 1)


def _read_block_grams(eve: EveStateSet, bases: Sequence[Basis]) -> tuple:
    """(unitarity, disturbances[k, i], bound, overlaps[m], spreads[m]), every measured gate of ``verify``: the d
    block Grams, formed once in the reader's own array and reduced in place. unitarity is ``isometry_residual``.

    Block m's model is its Gram's norm n_m = Re G_m[0, 0] and overlap o_m = Re G_m[0, 1] = overlaps[m]; every
    built set's Grams are circulant with these two values. spreads[m] = max_{a != b} |G_m[a, b] - o_m|, so
    |o_m - x| + spreads[m] bounds |G_m[a, b] - x| on every off-diagonal pair. Under the model, state i of basis
    k, psi, stays put with probability
    sum_m weights[m]^2 [(n_m - o_m) sum_a |psi[a]|^2 |psi[a+m]|^2 + o_m |sum_a psi[a] conj(psi[a+m])|^2]: two
    circular autocorrelations, of psi and of |psi|^2, which one fft/ifft pair gives for every state at once.
    Block m adds weights[m]^2 c^dagger G_m c, c[a] = psi[a] conj(psi[a+m]), to the exact probability, and
    sum_a |c[a]| <= ||psi||^2 = 1, so each reading is within bound = sum_m weights[m]^2 max_ab |G_m[a, b] -
    (o_m + (n_m - o_m) delta_ab)| of the exact disturbance, whatever the Grams (Cauchy-Schwarz).
    """
    d, w2 = eve.dim, np.square(eve.weights)
    vectors = np.concatenate([basis.vectors for basis in bases])  # [k d, d]: each row a state
    spectra = np.fft.fft(np.concatenate((vectors, np.square(np.abs(vectors)))))
    corr = np.fft.ifft(np.square(np.abs(spectra)))  # row i, shift m: its autocorrelation, up to conjugation
    # Only the two (k d, d) autocorrelations outlive the FFT buffers, which go before the Gram is formed. The
    # |psi|^2 half stays complex and its real part a strided view, whose product numpy sums without BLAS.
    coherent, incoherent = np.square(np.abs(corr[:len(vectors)])), corr[len(vectors):].copy()
    del vectors, spectra, corr
    gram = _gram(eve.blocks)
    unitarity = float(np.max(np.abs(w2 @ np.diagonal(gram, axis1=1, axis2=2) - 1.0)))
    overlap = gram[:, 0, 1].real.copy()
    gap = gram[:, 0, 0].real - overlap  # n_m - o_m
    stay = coherent @ (w2 * overlap) + incoherent.real @ (w2 * gap)
    # The deviations from the model, in place for real blocks (a complex modulus takes an array of its own);
    # the diagonals' maxima are read, then zeroed for the off-diagonal ones.
    gram -= overlap[:, None, None]
    dev = gram.reshape(d, d * d)
    dev[:, :: d + 1] -= gap[:, None]
    dev = np.abs(dev, out=dev) if np.isrealobj(dev) else np.abs(dev)
    diagonal = dev[:, :: d + 1].max(axis=1)
    dev[:, :: d + 1] = 0.0
    spreads = dev.max(axis=1)
    bound = float(w2 @ np.maximum(diagonal, spreads))
    return unitarity, (1.0 - stay).reshape(len(bases), d), bound, overlap, spreads
