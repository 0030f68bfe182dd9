"""Information trade-off curves and their crossings.

Tabulates the receiver's information I_AB and the eavesdropper's optimised
information I_AE against the disturbance for the qutrit protocols (two and
three bases) and the two-basis ququart protocol, and brackets the crossing
that defines the critical disturbance. Values are in dits (log base d).
"""

from mub_eve import ProtocolSpec, i_ab, i_ae, optimal_w

for dim, bases in ((3, 2), (3, 3), (4, 2)):
    spec = ProtocolSpec(dim, bases)
    print(f"\n=== d={dim}, {bases} bases ===")
    print(f"{'D':>6} {'w_opt':>9} {'I_AB':>10} {'I_AE':>10}")
    rows = []
    for k in range(26):
        D = 0.02 * k
        w = optimal_w(spec, D)
        rows.append((D, w, i_ab(spec, D), i_ae(spec, D, w)))
    for D, w, ab, ae in rows:
        print(f"{D:6.2f} {w:9.4f} {ab:10.6f} {ae:10.6f}")
    gaps = [ae - ab for _, _, ab, ae in rows]
    for k in range(len(gaps) - 1):
        if gaps[k] < 0 <= gaps[k + 1]:
            print(f"crossing between D={rows[k][0]:.2f} and D={rows[k+1][0]:.2f}")
