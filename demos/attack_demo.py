"""Anatomy of the symmetric attack.

Builds the eavesdropper's ancilla states for a qutrit protocol at a chosen
disturbance, stored as their d coordinate blocks. The state set is the attack
isometry: it carries D, and with it the weight of each block's states, so the
checks below take the set alone. It then verifies the structural constraints
numerically: column orthonormality of the attack isometry, equal disturbance
on every basis state of both protocol bases, and the no-error/error overlap
values s and w. The cross-block scalar products x, y, z and t are exact zeros
of the block format, which stores no coordinate outside a state's own block,
so the demo states them rather than measures them.
"""

import numpy as np

from mub_eve import (
    AttackParams,
    ProtocolSpec,
    build_eve_states,
    disturbance_per_state,
    isometry_residual,
    protocol_bases,
    scalar_product_profile,
    w_bar,
)

D = 0.1
params = AttackParams(dim=3, bases_count=2, disturbance=D, w=w_bar(3, D))
print(f"attack parameters: d=3, two bases, D={D}, w={params.w:.4f} -> s={params.s:.4f}")
(u, v), (r, q) = params.coeff_pairs
print(f"state coefficients: u={u:.6f} v={v:.6f} (no-error block), r={r:.6f} q={q:.6f} (error blocks)")

print("\nerror-state blocks (receiver shift mod d):")
for m in range(1, 3):
    print(f"  block {m}: {[(i, j) for i in range(3) for j in range(3) if j != i and (j - i) % 3 == m]}")

eve = build_eve_states(params)
profile = scalar_product_profile(eve)
print("\nscalar-product groups:")
print("  x = y = z = t = 0 (cross-block overlaps: zeros of the block format, not stored)")
print(f"  s={profile.s:.12f} (expected {params.s:.12f})")
print(f"  w={profile.w:.12f} (expected {params.w:.12f})")

print(f"\nisometry weights of blocks 0..2 at D={eve.disturbance}: {np.array_str(eve.weights, precision=6)}"
      " (sqrt(1-D), then sqrt(D/(d-1)))")
print(f"block array shape {eve.blocks.shape}, unitarity residual {isometry_residual(eve):.2e}")
for basis in protocol_bases(ProtocolSpec(3, 2)):
    dist = disturbance_per_state(eve, basis)
    print(f"per-state disturbance in {basis.label:13s} basis: {np.array_str(dist, precision=12)}")
