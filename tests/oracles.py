"""Independent routes the tests compare the program against; no command calls them.

- ``guess_probability_constructive``: the guess probabilities from the attack's
  Gram eigenvalues and coefficients, a second route to the closed forms;
- ``optimality_witnesses``: finite-difference evidence that w_bar maximises
  the two-basis guess probability;
- ``is_mutually_unbiased``: the overlap test between two bases;
- the dense (d^3 x d) attack isometry, ``build_isometry`` and
  ``isometry_from_states``, with a column-by-column reference assembly, and the
  disturbance and outcome table read from it: a second route to everything
  ``verify`` and ``simulate`` read from the ancilla states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mub_eve import (
    AttackParams,
    Basis,
    DimensionError,
    DomainError,
    EveStateSet,
    ProtocolSpec,
    admissible_w_interval,
    build_eve_states,
    guess_probability,
    i_ae,
    lambda_d,
    phi_d,
    protocol_bases,
)
from mub_eve.attack import AttackIsometry, _isometry_scale
from mub_eve.bases import ORTHONORMALITY_TOL
from mub_eve.optimize import EDGE_SHRINK, _central_difference, _fd_step, _second_difference, _w_bar
from mub_eve.simulate import CELL_FLOOR


def guess_probability_constructive(spec: ProtocolSpec, disturbance: float, w: float) -> tuple[float, float]:
    """(major^2 for the no-error block, major^2 for the error blocks) via the Gram route.

    Independent of the closed forms: goes through the attack's Gram eigenvalues
    and coefficients. phi_d (at the overlap z_factor * w) and lambda_d must match these squares.
    """
    (major_s, _), (major_w, _) = AttackParams(spec.dim, spec.bases_count, disturbance, w).coeff_pairs()
    return major_s**2, major_w**2


def is_mutually_unbiased(a: Basis, b: Basis) -> bool:
    """True iff every cross overlap magnitude is within ORTHONORMALITY_TOL of 1/sqrt(d)."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    mags = np.abs(a.vectors.conj() @ b.vectors.T)
    return bool(np.max(np.abs(mags - 1.0 / np.sqrt(a.dim))) <= ORTHONORMALITY_TOL)


def _worst_grid_second_difference(f, lo: float, hi: float) -> float:
    """Largest second difference of f over 100 interior grid points, half-step each; f maps arrays."""
    n = 100
    h = (hi - lo) / (n + 1)
    return float(np.max(_second_difference(f, lo + np.arange(1, n + 1) * h, 0.5 * h)))


@dataclass(frozen=True)
class OptimalityWitnesses:
    """Numeric evidence that w_bar maximises the two-basis guess probability.

    The guess probability G = (1-D) phi + D lambda is stationary at w_bar
    (phi'/lambda' = D/(D-1)) and concave on the admissible interval, so w_bar
    is its global maximiser; there phi = lambda, where i_ae meets its lower
    bound i_d(G). G is affine in w plus square roots of quadratics in w that
    are concave on the interval, so it is concave for every d.

    phi_equals_lambda: |phi(D, w_bar) - lambda(w_bar)|.
    derivative_ratio: |d_w phi / d_w lambda at w_bar - D/(D-1)| by finite differences.
    guess_concavity: max second difference of G over an interior w-grid; the
        optimality witness (< 0 for every D in (0, (d-1)/d)).
    concavity: max second difference of I_AE over the same grid; a shape
        diagnostic only, positive for d = 3 and D <= 0.30 because I_AE is not
        concave near the w = 1 radical boundary.
    """

    phi_equals_lambda: float
    derivative_ratio: float
    guess_concavity: float
    concavity: float


def optimality_witnesses(disturbance: float, d: int = 3) -> OptimalityWitnesses:
    """Finite-difference checks of the two-basis optimum structure in dimension d.

    The step shrinks below 1e-5 where w_bar = (d/(d-1)) ((d-1)/d - D) nears the w = 1 radical zero.
    """
    spec = ProtocolSpec(dim=d, bases_count=2)
    if not 0.0 < disturbance < spec.max_disturbance:
        raise DomainError(f"disturbance must lie in (0, {spec.max_disturbance}), got {disturbance}")
    d = spec.dim
    wb = _w_bar(spec, disturbance)
    equality = abs(phi_d(disturbance, wb, d) - lambda_d(wb, d))

    lo, hi = admissible_w_interval(spec, disturbance)
    step = _fd_step(wb, lo - EDGE_SHRINK, hi + EDGE_SHRINK)
    dphi = _central_difference(lambda w: phi_d(disturbance, w, d), wb, step)
    dlam = _central_difference(lambda w: lambda_d(w, d), wb, step)
    ratio_residual = abs(dphi / dlam - disturbance / (disturbance - 1.0))

    return OptimalityWitnesses(
        phi_equals_lambda=equality,
        derivative_ratio=ratio_residual,
        guess_concavity=_worst_grid_second_difference(
            lambda w: guess_probability(spec, disturbance, w), lo, hi
        ),
        concavity=_worst_grid_second_difference(lambda w: i_ae(spec, disturbance, w), lo, hi),
    )


def isometry_from_states(eve: EveStateSet, disturbance: float) -> AttackIsometry:
    """Assemble the attack isometry from an explicit ancilla state set."""
    d = eve.dim
    # V[b d^2 + e, a] = scale[a, b] E_ab[e], written straight into (receiver, ancilla, sender) order.
    v = np.empty((d, d * d, d), dtype=complex)
    np.multiply(_isometry_scale(d, disturbance).T[:, None, :], eve.states.transpose(1, 2, 0), out=v)
    v = v.reshape(d * d * d, d)
    v.setflags(write=False)
    return AttackIsometry(v)


def build_isometry(params: AttackParams) -> AttackIsometry:
    """Assemble the attack isometry for the given parameters."""
    return isometry_from_states(build_eve_states(params), params.disturbance)


def isometry_by_columns(eve: EveStateSet, disturbance: float) -> np.ndarray:
    """Reference assembly: column i stacks sqrt(1-D) E_ii and sqrt(D/(d-1)) E_ij, receiver-major."""
    d = eve.dim
    keep, err = math.sqrt(1.0 - disturbance), math.sqrt(disturbance / (d - 1))
    v = np.zeros((d * d * d, d), dtype=complex)
    for i in range(d):
        col = np.zeros((d, d * d), dtype=complex)
        for j in range(d):
            col[j] = (keep if j == i else err) * eve.states[i, j]
        v[:, i] = col.reshape(-1)
    return v


def disturbance_by_isometry(isometry: AttackIsometry, basis) -> np.ndarray:
    """Oracle for `disturbance_per_state`: 1 - <psi| rho_B |psi> from the dense isometry.

    <psi|rho_B|psi> = ||psi^dagger J||^2 with rho_B = J J^dagger, J = (V psi) as (d, d^2):
    amp[n, e] = sum_{b, a} conj(psi_n[b]) V[b d^2 + e, a] psi_n[a].
    """
    d = isometry.dim
    projected = (basis.vectors.conj() @ isometry.matrix.reshape(d, -1)).reshape(d, d * d, d)
    amp = np.einsum("nea,na->ne", projected, basis.vectors)
    return 1.0 - np.sum(amp.real**2 + amp.imag**2, axis=1)


def outcome_distribution_by_ancilla(spec: ProtocolSpec, disturbance: float, w: float) -> np.ndarray:
    """Oracle: P[basis, symbol, receiver outcome, ancilla coordinate], every ancilla cell apart."""
    isometry = build_isometry(AttackParams(spec.dim, spec.bases_count, disturbance, w))
    bases = protocol_bases(spec)
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
