"""Monte Carlo cross-check of the closed forms.

Simulates full protocol rounds (state preparation, attack isometry, joint
projective measurement for receiver and eavesdropper) and compares the
empirical disturbance, guess probability and mutual informations against the
analytic predictions. Everything is deterministic for a fixed seed.
"""

from mub_eve import ProtocolSpec, SimConfig, compare_to_analytic, simulate

for dim, bases, D in ((3, 2, 0.1), (3, 3, 0.15), (4, 2, 0.25)):
    stats = simulate(SimConfig(spec=ProtocolSpec(dim, bases), disturbance=D, rounds=2_000_000, seed=1, shards=4))
    verdict = compare_to_analytic(stats)
    print(f"\n=== d={dim}, {bases} bases, D={D}, w={stats.w:.4f}, {stats.rounds:,} rounds ===")
    print(f"{'check':>22} {'empirical':>12} {'analytic':>12} {'z':>7}")
    for check in verdict.checks:
        print(f"{check.name:>22} {check.empirical:12.6f} {check.analytic:12.6f} {check.z:7.2f}")
    print(f"verdict: {'pass' if verdict.passed else 'FAIL'}")
