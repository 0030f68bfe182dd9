"""Critical disturbance versus dimension.

Locates the crossing of the information curves with Brent's zero finder for
d = 2..10 and compares with the closed form (1 - 1/sqrt(d))/2; also shows the
three-basis qutrit protocol tolerating more disturbance than the two-basis one.
"""

from mub_eve import ProtocolSpec, critical_disturbance, d_c_closed_form

print(f"{'d':>3} {'D_c zero finder':>15} {'closed form':>15} {'diff':>10}")
for d in range(2, 11):
    point = critical_disturbance(ProtocolSpec(d, 2))
    closed = d_c_closed_form(d)
    print(f"{d:3d} {point.d_c:15.9f} {closed:15.9f} {abs(point.d_c - closed):10.2e}")

two = critical_disturbance(ProtocolSpec(3, 2))
three = critical_disturbance(ProtocolSpec(3, 3))
print(f"\nqutrit, two bases:   D_c = {two.d_c:.6f}")
print(f"qutrit, three bases: D_c = {three.d_c:.6f}  (higher -> more robust, at 1/3 the key rate)")
