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

Every constraint check reads the states. ``EveStateSet.block_layout`` tests,
exactly and once per set, that every nonzero entry lies on its own block's
coordinates, as it does for every set ``build_eve_states`` returns. Then every
cross-block overlap is an exact zero, and the checks read the d block Grams
(``EveStateSet.block_gram``, one batched d^4 product). Any other set takes the
dense route: its Gram over every state pair (``EveStateSet.gram``, d^6/2
multiply-adds), which is also the reference the block route is tested against.
The Monte Carlo simulator reads the states too; no command forms the dense
(d^3 x d) isometry, which the tests build as an oracle."""

from __future__ import annotations

import math
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
            self.coeff_pairs()
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

    def coeff_pairs(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """((u, v) for the no-error block, (r, q) for the error blocks)."""
        d, w = self.dim, self.w
        return coeff_pair(*self.no_error_eigenvalues(), d), coeff_pair(1.0 + (d - 1) * w, 1.0 - w, d)


@dataclass(frozen=True)
class EveStateSet:
    """The d^2 ancilla output states, indexed as states[i, j] = E_ij, with their overlaps formed once."""

    states: np.ndarray = field(repr=False)  # (d, d, d^2), float64 as built; complex sets work too

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @cached_property
    def _own_blocks(self) -> np.ndarray:
        """own[m, i] = the block-m coordinates of E_{i, i+m}: d^3 entries, gathered in block order."""
        d = self.dim
        idx = np.arange(d)
        return self.states.reshape(d, d, d, d)[idx, (idx[:, None] + idx) % d, idx[:, None]]

    @cached_property
    def block_layout(self) -> bool:
        """Whether every nonzero entry of the states lies on its own block's coordinates (E_{i, i+m} on
        block m), so that every overlap of two states in different blocks is an exact zero. Exact, with
        no tolerance: it counts the nonzero entries among the own-block ones and among all d^4."""
        return bool(np.count_nonzero(self._own_blocks) == np.count_nonzero(self.states))

    @cached_property
    def block_gram(self) -> np.ndarray:
        """block_gram[m, i, k] = <E_{i, i+m}|E_{k, k+m}> over block m's coordinates, one batched product.
        Under ``block_layout`` these are all the overlaps that can be nonzero, each exact to rounding."""
        own = self._own_blocks
        g = own @ own.transpose(0, 2, 1) if np.isrealobj(own) else own.conj() @ own.transpose(0, 2, 1)
        g.setflags(write=False)
        return g

    @cached_property
    def gram(self) -> np.ndarray:
        """gram[m, i, m', k] = <E_{i, i+m}|E_{k, k+m'}>, every state pair, from one BLAS product of the
        block-ordered states b; for real states numpy sends b @ b.T to syrk, which forms one triangle in
        d^6/2 multiply-adds. The checks read it only for sets that fail ``block_layout``."""
        d = self.dim
        idx = np.arange(d)
        b = self.states[idx, (idx[:, None] + idx) % d].reshape(d * d, d * d)  # row m d + k is E_{k, k+m}
        g = (b @ b.T if np.isrealobj(b) else b.conj() @ b.T).reshape(d, d, d, d)
        g.setflags(write=False)
        return g


@dataclass(frozen=True)
class ScalarProductProfile:
    """The six scalar-product group values measured from a concrete state set.

    x, y, z, t are the groups that must vanish for a valid symmetric attack
    (each reported as its first member of largest modulus in the profile's
    listing); w and s are the common intra-block overlaps, reported as means
    with their maximum deviations.
    """

    x: complex
    y: complex
    z: complex
    t: complex
    w: float
    s: float
    w_max_dev: float
    s_max_dev: float


def build_eve_states(params: AttackParams) -> EveStateSet:
    """Lay out the ancilla output states in orthogonal coordinate blocks."""
    d = params.dim
    (u, v), (r, q) = params.coeff_pairs()
    states = np.zeros((d, d, d * d))
    # E_{i, i+m} fills block m of the coordinates: the minor coefficient, and the major on coordinate i.
    i, m = np.arange(d)[:, None], np.arange(d)
    blocks = states.reshape(d, d, d, d)  # [sender, receiver, block, coordinate in block]
    blocks[i, (i + m) % d, m] = np.where(m == 0, v, q)[:, None]
    blocks[i, (i + m) % d, m, i] = np.where(m == 0, u, r)
    states.setflags(write=False)
    return EveStateSet(states)


def scalar_product_profile(eve: EveStateSet) -> ScalarProductProfile:
    """Measure the six scalar-product groups from the constructed states.

    Every one of the d^2 (d^2 - 1)/2 state pairs is measured from the concrete
    states. s and w are read from the within-block overlaps [m, i, k], k > i:
    block 0 for s, blocks 1..d-1 for w. Under ``eve.block_layout`` the pairs
    of x, y, z and t lie in different blocks, so each is an exact zero, and s
    and w come from ``eve.block_gram``. Otherwise every group is sliced from
    the block-order upper triangle of ``eve.gram`` [m, i, m', k]: the diagonal
    blocks m = m' for s and w, x and y from block row m = 0, and z (k = i)
    and t (k != i) from the block pairs 1 <= m < m', listed pair by pair.
    """
    d = eve.dim
    idx = np.arange(d)
    if eve.block_layout:
        within, groups = eve.block_gram, (0j,) * 4
    else:
        g = eve.gram
        within = g[idx, :, idx]  # [m, i, k]
        i, n, k = np.ix_(idx, idx[1:], idx)
        on_pair = (i == k) | (i == (k + n) % d)  # [i, m' - 1, k]: E_ii against an error state E_ij or E_ji
        first, second = np.triu_indices(d - 1, 1)
        pairs = g[first + 1, :, second + 1, :].reshape(-1, d * d)  # [block pair, i d + k]
        # Views, no copies: the k = i entries are every (d+1)-th; after each, d entries with k != i.
        same_sender, other_sender = pairs[:, :: d + 1], pairs[:, 1:].reshape(-1, d - 1, d + 1)[:, :, :d]
        groups = tuple(
            complex(v.flat[np.argmax(np.abs(v))]) if v.size else 0j
            for v in (g[0, :, 1:][on_pair], g[0, :, 1:][~on_pair], same_sender, other_sender)
        )
    later_sender = idx[:, None] < idx  # [i, k]: k > i
    s_vals, w_vals = within[0][later_sender], within[1:, later_sender]
    s_mean = float(np.mean(s_vals.real))
    w_mean = float(np.mean(w_vals.real))
    return ScalarProductProfile(
        *groups,  # x, y, z, t
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


def _isometry_scale(d: int, disturbance: float) -> np.ndarray:
    """scale[a, b], the weight of E_ab in the isometry: sqrt(1 - D) for b = a, sqrt(D/(d-1)) otherwise."""
    return np.where(np.eye(d, dtype=bool), math.sqrt(1.0 - disturbance), math.sqrt(disturbance / (d - 1)))


def isometry_residual(eve: EveStateSet, disturbance: float) -> float:
    """max |V^dagger V - I| of the attack isometry V, read from the states' overlaps without forming V:
    (V^dagger V)[a, a'] = sum_b scale[a, b] scale[a', b] <E_ab|E_a'b>. Under ``eve.block_layout``, E_ab
    and E_a'b share a block only for a = a', so V^dagger V is diagonal and read from ``eve.block_gram``."""
    d = eve.dim
    scale = _isometry_scale(d, disturbance)
    if eve.block_layout:
        a, b = np.ix_(np.arange(d), np.arange(d))
        norms = eve.block_gram[(b - a) % d, a, a]  # [a, b] = <E_ab|E_ab>
        return float(np.max(np.abs(np.einsum("ab,ab,ab->a", scale, scale, norms) - 1.0)))
    a, a2, b = np.ix_(np.arange(d), np.arange(d), np.arange(d))
    overlaps = eve.gram[(b - a) % d, a, (b - a2) % d, a2]  # [a, a', b] = <E_ab|E_a'b>
    return float(np.max(np.abs(np.einsum("ab,cb,acb->ac", scale, scale, overlaps) - np.eye(d))))


def disturbance_per_state(eve: EveStateSet, disturbance: float, basis: Basis) -> np.ndarray:
    """Disturbance 1 - <psi| rho_B |psi> for each state of the given basis, read from the states;
    rho_B is the receiver's reduced state after the attack (ancilla traced out)."""
    d = eve.dim
    if basis.dim != d:
        raise DimensionError(f"basis dimension {basis.dim} != attack dimension {d}")
    # ||amp||^2, amp = sum_{a, b} psi[a] conj(psi[b]) scale[a, b] E_ab: real states stay real in the product.
    psi = basis.vectors
    coeff = psi[:, :, None] * psi[:, None, :].conj() * _isometry_scale(d, disturbance)  # [k, a, b]
    if eve.block_layout:
        # Block m of amp takes only the E_{a, a+m}: one (2d x d)(d x d) product per block. Its d-term
        # sums run in two halves, which keeps their rounding at the dense product's: against long double,
        # at d <= 32, one sequential sum was off by up to 1.5e-15 in a disturbance, the halves by 8.2e-16.
        idx = np.arange(d)
        coeff = coeff[:, idx, (idx[:, None] + idx) % d].transpose(1, 0, 2)  # [m, k, a]
        lhs, own, h = np.concatenate((coeff.real, coeff.imag), axis=1), eve._own_blocks, d // 2
        parts = lhs[:, :, :h] @ own[:, :h] + lhs[:, :, h:] @ own[:, h:]
        amp = (parts[:, :d] + 1j * parts[:, d:]).transpose(1, 0, 2).reshape(d, d * d)  # [k, m d + coordinate]
    else:
        coeff = coeff.reshape(d, d * d)
        parts = np.concatenate((coeff.real, coeff.imag)) @ eve.states.reshape(d * d, d * d)
        amp = parts[:d] + 1j * parts[d:]
    return 1.0 - np.sum(amp.real**2 + amp.imag**2, axis=1)
