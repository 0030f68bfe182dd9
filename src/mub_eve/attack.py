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

* block 0 holds the "no error" states E_ii, with pairwise overlap s and
  eigenvalues 1 - s = d z^2 / (1 - D) (d - 1 times) and 1 + (d-1) s;
* block m (1 <= m <= d-1) holds the d error states E_{i, i+m mod d}, with
  pairwise overlap w and eigenvalues 1 - w and 1 + (d-1) w. Within a block,
  state E_ij takes the major coefficient on coordinate i (the sender symbol),
  which makes the eavesdropper's outcome -> guess map the identity on the
  coordinate index.

Each block's coefficients are read from its two eigenvalues, so no gap is
formed by cancellation as s nears 1. Placing the blocks on disjoint coordinate
ranges realises all the required vanishing scalar products exactly instead of
solving Gram constraints numerically.

Every constraint check reads the states and their Gram matrix, formed once
(``EveStateSet.gram``), and the Monte Carlo simulator reads the states too; no
command forms the dense (d^3 x d) isometry, which the tests build as an oracle."""

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
    """The d^2 ancilla output states, indexed as states[i, j] = E_ij, with their Gram matrix formed once."""

    states: np.ndarray = field(repr=False)  # (d, d, d^2), float64 as built; complex sets work too

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @cached_property
    def gram(self) -> np.ndarray:
        """gram[m, i, m', k] = <E_{i, i+m}|E_{k, k+m'}>, from one BLAS product of the block-ordered states b;
        for real states numpy sends b @ b.T to syrk, which forms one triangle in d^6/2 multiply-adds."""
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
    states; no group is assumed to vanish because of the block layout. Each
    group is sliced from the block-order upper triangle of ``eve.gram``
    [m, i, m', k]: s and w from the diagonal blocks m = m' (k > i), x and y
    from block row m = 0, and z (k = i) and t (k != i) from the block pairs
    1 <= m < m', listed pair by pair.
    """
    d, g = eve.dim, eve.gram
    idx = np.arange(d)
    later_sender = idx[:, None] < idx  # [i, k]: k > i
    diagonal = g[idx, :, idx]  # [m, i, k]
    s_vals, w_vals = diagonal[0][later_sender], diagonal[1:, later_sender]
    i, n, k = np.ix_(idx, idx[1:], idx)
    on_pair = (i == k) | (i == (k + n) % d)  # [i, m' - 1, k]: E_ii against an error state E_ij or E_ji
    first, second = np.triu_indices(d - 1, 1)
    pairs = g[first + 1, :, second + 1, :].reshape(-1, d * d)  # [block pair, i d + k]
    # Views, no copies: the k = i entries are every (d+1)-th; after each, d entries with k != i.
    same_sender, other_sender = pairs[:, :: d + 1], pairs[:, 1:].reshape(-1, d - 1, d + 1)[:, :, :d]
    groups = (g[0, :, 1:][on_pair], g[0, :, 1:][~on_pair], same_sender, other_sender)
    s_mean = float(np.mean(s_vals.real))
    w_mean = float(np.mean(w_vals.real))
    return ScalarProductProfile(
        *(complex(v.flat[np.argmax(np.abs(v))]) if v.size else 0j for v in groups),  # x, y, z, t
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
    """max |V^dagger V - I| of the attack isometry V, read from ``eve.gram`` without forming V:
    (V^dagger V)[a, a'] = sum_b scale[a, b] scale[a', b] <E_ab|E_a'b>."""
    d = eve.dim
    a, a2, b = np.ix_(np.arange(d), np.arange(d), np.arange(d))
    overlaps = eve.gram[(b - a) % d, a, (b - a2) % d, a2]  # [a, a', b] = <E_ab|E_a'b>
    scale = _isometry_scale(d, disturbance)
    return float(np.max(np.abs(np.einsum("ab,cb,acb->ac", scale, scale, overlaps) - np.eye(d))))


def disturbance_per_state(eve: EveStateSet, disturbance: float, basis: Basis) -> np.ndarray:
    """Disturbance 1 - <psi| rho_B |psi> for each state of the given basis, read from the states;
    rho_B is the receiver's reduced state after the attack (ancilla traced out)."""
    d = eve.dim
    if basis.dim != d:
        raise DimensionError(f"basis dimension {basis.dim} != attack dimension {d}")
    # ||amp||^2, amp = sum_{a, b} psi[a] conj(psi[b]) scale[a, b] E_ab: real states stay real in the product.
    psi = basis.vectors
    coeff = (psi[:, :, None] * psi[:, None, :].conj() * _isometry_scale(d, disturbance)).reshape(d, d * d)
    parts = np.concatenate((coeff.real, coeff.imag)) @ eve.states.reshape(d * d, d * d)
    amp = parts[:d] + 1j * parts[d:]
    return 1.0 - np.sum(amp.real**2 + amp.imag**2, axis=1)
