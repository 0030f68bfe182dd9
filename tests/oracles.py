"""Independent routes the tests compare the program against; no command calls them.

- ``guess_probability_constructive``: the guess probabilities from the attack's
  Gram eigenvalues and coefficients, a second route to the closed forms;
- ``optimality_witnesses``: finite-difference evidence that w_bar maximises
  the two-basis guess probability;
- ``golden_section_maximize``: a derivative-free maximiser, a second route to
  the three-basis w that ``optimize.optimal_w`` finds as a root of the slope;
- ``is_mutually_unbiased``: the overlap test between two bases;
- ``dense_states``: the ancilla states as d^2-coordinate vectors, the blocks of
  an ``EveStateSet`` scattered onto their coordinate ranges with every
  cross-block zero written out;
- ``dense_gram``, the Gram matrix over every pair of those states (d^6/2
  multiply-adds), with the scalar-product profile and the unitarity residual
  read from it (``dense_profile``, ``dense_isometry_residual``), and the
  disturbance from one product with the dense states (``dense_disturbance``):
  the references the block route of ``verify`` is held to;
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
    ScalarProductProfile,
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


INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Bracket width at which the golden-section search stops.
GOLDEN_TOL = 1e-10


def golden_section_maximize(f, lo: float, hi: float) -> float:
    """Locate the maximum of a unimodal function on [lo, hi] to width GOLDEN_TOL.

    The search also stops once a step leaves the bracket no narrower, as it
    does where the float spacing of the bounds exceeds GOLDEN_TOL. The
    bracket must be finite with lo <= hi.
    """
    if not (-math.inf < lo <= hi < math.inf):
        raise DomainError(f"need a finite bracket lo <= hi, got lo={lo}, hi={hi}")
    a, b = lo, hi
    c = b - INV_GOLDEN * (b - a)
    d = a + INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    width = math.inf
    while GOLDEN_TOL < b - a < width:
        width = b - a
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + INV_GOLDEN * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - INV_GOLDEN * (b - a)
            fc = f(c)
    return 0.5 * (a + b)


def _worst_grid_second_difference(f, lo: float, hi: float) -> float:
    """Largest second difference of f over 100 interior grid points, half-step each."""
    n = 100
    h = (hi - lo) / (n + 1)
    return max(_second_difference(f, lo + k * h, 0.5 * h) for k in range(1, n + 1))


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


def dense_states(eve: EveStateSet) -> np.ndarray:
    """states[i, j] = E_ij as a d^2-coordinate vector: E_{i, i+m} holds blocks[m, i] on block m, zeros elsewhere."""
    d = eve.dim
    states = np.zeros((d, d, d, d), dtype=eve.blocks.dtype)  # [sender, receiver, block, coordinate in block]
    i, m = np.arange(d)[:, None], np.arange(d)
    states[i, (i + m) % d, m] = eve.blocks[m, i]
    return states.reshape(d, d, d * d)


def dense_gram(eve: EveStateSet) -> np.ndarray:
    """gram[m, i, m', k] = <E_{i, i+m}|E_{k, k+m'}>, every state pair, from one BLAS product of the
    block-ordered dense states b; for real states numpy sends b @ b.T to syrk, which forms one triangle in
    d^6/2 multiply-adds."""
    d = eve.dim
    idx = np.arange(d)
    b = dense_states(eve)[idx, (idx[:, None] + idx) % d].reshape(d * d, d * d)  # row m d + k is E_{k, k+m}
    return (b @ b.T if np.isrealobj(b) else b.conj() @ b.T).reshape(d, d, d, d)


def dense_profile(eve: EveStateSet) -> ScalarProductProfile:
    """The scalar-product profile sliced from the block-order upper triangle of ``dense_gram``
    [m, i, m', k]: the diagonal blocks m = m' for s and w, x and y from block row m = 0, and z (k = i)
    and t (k != i) from the block pairs 1 <= m < m', listed pair by pair."""
    d = eve.dim
    idx = np.arange(d)
    g = dense_gram(eve)
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


def dense_isometry_residual(eve: EveStateSet, disturbance: float) -> float:
    """max |V^dagger V - I| from ``dense_gram``: (V^dagger V)[a, a'] = sum_b scale[a, b] scale[a', b] <E_ab|E_a'b>.

    The dense isometry's ``unitarity_residual`` is a second reference, but it differs from the block
    route by 1.8e-15 at d = 25, D = 0.3; this one stays within 4.5e-16 of it for every d <= 32.
    """
    d = eve.dim
    scale = _isometry_scale(d, disturbance)
    a, a2, b = np.ix_(np.arange(d), np.arange(d), np.arange(d))
    overlaps = dense_gram(eve)[(b - a) % d, a, (b - a2) % d, a2]  # [a, a', b] = <E_ab|E_a'b>
    return float(np.max(np.abs(np.einsum("ab,cb,acb->ac", scale, scale, overlaps) - np.eye(d))))


def dense_disturbance(eve: EveStateSet, disturbance: float, basis: Basis) -> np.ndarray:
    """1 - <psi| rho_B |psi> per basis state from one product with the dense states:
    amp = sum_{a, b} psi[a] conj(psi[b]) scale[a, b] E_ab.

    ``disturbance_by_isometry`` is a second reference, but it differs from the block route by
    1.1e-15 at d = 21; this one holds it to 1e-15 for every d <= 32.
    """
    d = eve.dim
    psi = basis.vectors
    coeff = (psi[:, :, None] * psi[:, None, :].conj() * _isometry_scale(d, disturbance)).reshape(d, d * d)
    parts = np.concatenate((coeff.real, coeff.imag)) @ dense_states(eve).reshape(d * d, d * d)
    amp = parts[:d] + 1j * parts[d:]
    return 1.0 - np.sum(amp.real**2 + amp.imag**2, axis=1)


def isometry_from_states(eve: EveStateSet, disturbance: float) -> AttackIsometry:
    """Assemble the attack isometry from an explicit ancilla state set."""
    d = eve.dim
    # V[b d^2 + e, a] = scale[a, b] E_ab[e], written straight into (receiver, ancilla, sender) order.
    v = np.empty((d, d * d, d), dtype=complex)
    np.multiply(_isometry_scale(d, disturbance).T[:, None, :], dense_states(eve).transpose(1, 2, 0), out=v)
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
    states = dense_states(eve)
    v = np.zeros((d * d * d, d), dtype=complex)
    for i in range(d):
        col = np.zeros((d, d * d), dtype=complex)
        for j in range(d):
            col[j] = (keep if j == i else err) * states[i, j]
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
