"""Construction of the symmetric eavesdropping attack and its constraint checks.

The eavesdropper couples a d-dimensional ancilla pair (dimension d^2) to the
qudit in transit. Her d^2 output states are laid out in d mutually orthogonal
coordinate blocks of size d:

* block 0 holds the "no error" states E_ii, with pairwise overlap s;
* block m (1 <= m <= d-1) holds the d error states E_{i, i+m mod d}, with
  pairwise overlap w. Within a block, state E_ij takes the major coefficient
  on coordinate i (the sender symbol), which makes the eavesdropper's
  outcome -> guess map the identity on the coordinate index.

Placing the blocks on disjoint coordinate ranges realises all the required
vanishing scalar products exactly instead of solving Gram constraints
numerically.
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


def s_from_dw(d: int, bases_count: int, disturbance: float, w: float) -> float:
    """Overlap s of the no-error states implied by equal disturbance on all bases.

    Two-basis protocol (any d):   s = (1 - w D)/(1 - D) - [d/(d-1)] D/(1 - D).
    Three-basis qutrit protocol:  s = (w D + 2 - 3 D) / (2 (1 - D)).
    """
    if not disturbance < 1.0:
        raise DomainError("disturbance must be < 1 (the relation is singular at D = 1)")
    if ProtocolSpec(d, bases_count).bases_count == 2:  # validates (d, bases_count)
        return (1.0 - w * disturbance) / (1.0 - disturbance) - (
            d / (d - 1.0)
        ) * disturbance / (1.0 - disturbance)
    return (w * disturbance + 2.0 - 3.0 * disturbance) / (2.0 * (1.0 - disturbance))


def solve_coeff_pair(overlap: float, d: int) -> tuple[float, float]:
    """Coefficients (major, minor) of a unit vector set with common pairwise overlap.

    Solves major^2 + (d-1) minor^2 = 1 and 2 major minor + (d-2) minor^2 =
    overlap, picking the branch with major >= minor (the eavesdropper's best
    guess probability).
    """
    lo = -1.0 / (d - 1)
    if not lo - RADICAND_SLACK <= overlap <= 1.0 + RADICAND_SLACK:
        raise DomainError(f"overlap {overlap} outside [{lo}, 1] for d={d}")
    a = math.sqrt(max(1.0 + (d - 1) * overlap, 0.0))
    b = math.sqrt(max(1.0 - overlap, 0.0))
    return (a + (d - 1) * b) / d, (a - b) / d


@dataclass(frozen=True)
class AttackParams:
    """Full parametrisation of the symmetric attack: (d, bases, D, w) plus deriveds."""

    dim: int
    bases_count: int
    disturbance: float
    w: float

    def __post_init__(self):
        spec = ProtocolSpec(self.dim, self.bases_count)
        spec.check_disturbance(self.disturbance)
        w_lo = -1.0 / (spec.dim - 1)
        if not w_lo - RADICAND_SLACK <= self.w <= 1.0 + RADICAND_SLACK:
            raise DomainError(f"w must lie in [{w_lo}, 1], got {self.w}")
        s = self.s
        if not w_lo - RADICAND_SLACK <= s <= 1.0 + RADICAND_SLACK:
            raise DomainError(
                f"(D={self.disturbance}, w={self.w}) gives s={s} outside [{w_lo}, 1]; "
                "no valid attack with these overlaps"
            )

    @property
    def fidelity(self) -> float:
        return 1.0 - self.disturbance

    @property
    def s(self) -> float:
        return s_from_dw(self.dim, self.bases_count, self.disturbance, self.w)

    def coeff_pairs(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """((u, v) for the no-error block, (r, q) for the error blocks)."""
        return solve_coeff_pair(self.s, self.dim), solve_coeff_pair(self.w, self.dim)


@dataclass(frozen=True)
class EveStateSet:
    """The d^2 ancilla output states, indexed as states[i, j] = E_ij."""

    dim: int
    states: np.ndarray = field(repr=False)  # (d, d, d^2) complex
    block_of: dict[tuple[int, int], int] = field(repr=False)
    coeffs: tuple[float, float, float, float]  # (u, v, r, q)


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
    blocks = error_set_partition(d)
    states = np.zeros((d, d, d * d), dtype=complex)
    for i in range(d):
        states[i, i, :d] = v
        states[i, i, i] = u
    for (i, j), m in blocks.items():
        states[i, j, m * d : (m + 1) * d] = q
        states[i, j, m * d + i] = r
    states.setflags(write=False)
    return EveStateSet(dim=d, states=states, block_of=blocks, coeffs=(u, v, r, q))


def scalar_product_profile(eve: EveStateSet) -> ScalarProductProfile:
    """Measure the six scalar-product groups from the constructed states."""
    d = eve.dim
    st = eve.states
    blocks = eve.block_of

    def max_abs(values: list[complex]) -> complex:
        if not values:
            return 0.0 + 0.0j
        return max(values, key=abs)

    x_vals, y_vals, z_vals, t_vals = [], [], [], []
    w_vals, s_vals = [], []
    pairs = list(blocks)
    for i in range(d):
        for j in range(d):
            if j == i:
                continue
            ov = np.vdot(st[i, i], st[i, j])
            x_vals += [ov, np.vdot(st[j, j], st[i, j])]
            for k in range(d):
                if k not in (i, j):
                    y_vals.append(np.vdot(st[k, k], st[i, j]))
            if j > i:
                s_vals.append(np.vdot(st[i, i], st[j, j]))
    for a_idx, pa in enumerate(pairs):
        for pb in pairs[a_idx + 1 :]:
            ov = np.vdot(st[pa], st[pb])
            if blocks[pa] == blocks[pb]:
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
    keep = math.sqrt(1.0 - disturbance)
    err = math.sqrt(disturbance / (d - 1))
    v = np.zeros((d * d * d, d), dtype=complex)
    for i in range(d):
        col = np.zeros((d, d * d), dtype=complex)
        col[i] = keep * eve.states[i, i]
        for j in range(d):
            if j != i:
                col[j] = err * eve.states[i, j]
        v[:, i] = col.reshape(-1)
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
    out = np.empty(d)
    for idx in range(d):
        psi = basis.vectors[idx]
        joint = (isometry.matrix @ psi).reshape(d, d * d)
        # <psi|rho_B|psi> = ||psi^dagger J||^2 with rho_B = J J^dagger
        amp = psi.conj() @ joint
        out[idx] = 1.0 - float(np.real(np.vdot(amp, amp)))
    return out
