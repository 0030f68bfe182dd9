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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bases import Basis, ProtocolSpec
from .errors import DimensionError, DomainError

# Round-off guard for radicands that are exact zeros at domain endpoints.
RADICAND_SLACK = 1e-14


def error_set_partition(d: int) -> dict[tuple[int, int], int]:
    """Assign each off-diagonal pair (i, j) to its orthogonal block (j - i) mod d.

    The d(d-1) error states split into d-1 blocks of d states; block m collects
    the states where the receiver's symbol is shifted by m from the sender's.
    """
    d = ProtocolSpec(d).dim
    return {(i, (i + m) % d): m for m in range(1, d) for i in range(d)}


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
        ProtocolSpec(self.dim, self.bases_count).check_disturbance(self.disturbance)
        try:
            self.coeff_pairs()
        except DomainError as exc:
            raise DomainError(f"no valid attack with D={self.disturbance}, w={self.w}: {exc}") from None

    def no_error_eigenvalues(self) -> tuple[float, float]:
        """Gram eigenvalues (1 + (d-1) s, 1 - s) of the no-error block, from the Z-line weight z^2."""
        d, disturbance = self.dim, self.disturbance
        c = ProtocolSpec(d, self.bases_count).z_factor
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
    """The d^2 ancilla output states, indexed as states[i, j] = E_ij."""

    dim: int
    states: np.ndarray = field(repr=False)  # (d, d, d^2), float64 as built; complex sets work too


@dataclass(frozen=True)
class ScalarProductProfile:
    """The six scalar-product group values measured from a concrete state set.

    x, y, z, t are the groups that must vanish for a valid symmetric attack
    (reported as the maximum-modulus member of each group); w and s are the
    common intra-block overlaps, reported as means with their maximum
    deviations.
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
    return EveStateSet(dim=d, states=states)


def _first_max_abs(values: np.ndarray, best: complex = 0j) -> complex:
    """The first member of largest modulus among ``best`` and ``values``, ``best`` first."""
    if values.size:
        top = values.flat[np.argmax(np.abs(values))]
        if abs(top) > abs(best):
            return complex(top)
    return best


def scalar_product_profile(eve: EveStateSet) -> ScalarProductProfile:
    """Measure the six scalar-product groups from the constructed states.

    Every one of the d^2 (d^2 - 1)/2 state pairs is measured from the concrete
    states; no group is assumed to vanish because of the block layout. The
    states are gathered once in block order, and for each block m of the
    layout the d states E_{i, i+m} are taken against the states of blocks
    m..d-1 in one BLAS product: about d^6/2 multiply-adds over the d blocks,
    real for the built (real) states and complex for a complex set. Each
    group is selected from the product by the indices (i, m', k) of the pair
    <E_{i, i+m}|E_{k, k+m'}>. Extra memory is one block-ordered copy of the
    states (d^4 entries) plus O(d^3): one product at a time, with running
    maxima for z and t.
    """
    d = eve.dim
    idx = np.arange(d)
    receiver = (idx[:, None] + idx) % d  # receiver[m, k] = k + m mod d
    by_block = eve.states[idx, receiver]  # by_block[m, k] = E_{k, k+m}
    i, k = idx[:, None, None], idx[None, None, :]
    later_sender = idx[:, None] < idx  # [i, k]: k > i
    other_sender = np.broadcast_to(i != k, (d, d - 1, d))  # [i, n, k]: k != i, sliced per block

    def block_gram(m: int) -> np.ndarray:
        """g[i, n, k] = <E_{i, i+m}|E_{k, k+m+n}> for every later block m + n."""
        return (by_block[m].conj() @ by_block[m:].reshape(-1, d * d).T).reshape(d, d - m, d)

    g = block_gram(0)
    s_vals = g[:, 0][later_sender]
    on_pair = (i == k) | (i == receiver[1:])  # E_ii against an error state E_ij or E_ji
    x = _first_max_abs(g[:, 1:][on_pair])
    y = _first_max_abs(g[:, 1:][~on_pair])

    w_vals, z, t = [], 0j, 0j
    for m in range(1, d):
        g = block_gram(m)
        w_vals.append(g[:, 0][later_sender])
        later = g[:, 1:]
        z = _first_max_abs(later[idx, :, idx], z)  # [i, n]: the same sender i
        t = _first_max_abs(later[other_sender[:, : d - 1 - m]], t)
    w_vals = np.concatenate(w_vals)

    s_mean = float(np.mean(s_vals.real))
    w_mean = float(np.mean(w_vals.real))
    return ScalarProductProfile(
        x=x,
        y=y,
        z=z,
        t=t,
        w=w_mean,
        s=s_mean,
        w_max_dev=float(np.max(np.abs(w_vals - w_mean))),
        s_max_dev=float(np.max(np.abs(s_vals - s_mean))),
    )


@dataclass(frozen=True)
class AttackIsometry:
    """The (d * d^2) x d matrix taking the sender's qudit to the Bob x Eve state.

    Rows are indexed Bob-major: row b * d^2 + e is Bob outcome b, ancilla
    coordinate e.
    """

    dim: int
    matrix: np.ndarray = field(repr=False)

    def unitarity_residual(self) -> float:
        v = self.matrix
        return float(np.max(np.abs(v.conj().T @ v - np.eye(self.dim))))


def isometry_from_states(eve: EveStateSet, disturbance: float) -> AttackIsometry:
    """Assemble the attack isometry from an explicit ancilla state set."""
    d = eve.dim
    scale = np.full((d, d), math.sqrt(disturbance / (d - 1)))
    np.fill_diagonal(scale, math.sqrt(1.0 - disturbance))
    # V[b d^2 + e, a] = scale[a, b] E_ab[e], written straight into (receiver, ancilla, sender) order.
    v = np.empty((d, d * d, d), dtype=complex)
    np.multiply(scale.T[:, None, :], eve.states.transpose(1, 2, 0), out=v)
    v = v.reshape(d * d * d, d)
    v.setflags(write=False)
    return AttackIsometry(dim=d, matrix=v)


def build_isometry(params: AttackParams) -> AttackIsometry:
    """Assemble the attack isometry for the given parameters."""
    return isometry_from_states(build_eve_states(params), params.disturbance)


def disturbance_per_state(isometry: AttackIsometry, basis: Basis) -> np.ndarray:
    """Disturbance 1 - <psi| rho_B |psi> for each state of the given basis.

    rho_B is the receiver's reduced state after the attack (ancilla traced out).
    """
    d = isometry.dim
    if basis.dim != d:
        raise DimensionError(f"basis dimension {basis.dim} != attack dimension {d}")
    # <psi|rho_B|psi> = ||psi^dagger J||^2 with rho_B = J J^dagger, J = (V psi) as (d, d^2):
    # amp[n, e] = sum_{b, a} conj(psi_n[b]) V[b d^2 + e, a] psi_n[a]. One product contracts
    # the receiver index b; contracting the sender index a then needs no BLAS call.
    projected = (basis.vectors.conj() @ isometry.matrix.reshape(d, -1)).reshape(d, d * d, d)
    amp = np.einsum("nea,na->ne", projected, basis.vectors)
    return 1.0 - np.sum(amp.real**2 + amp.imag**2, axis=1)
