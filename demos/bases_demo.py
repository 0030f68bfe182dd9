"""Protocol bases and mutual unbiasedness.

Builds the computational/Fourier pair in a few dimensions and the three-basis
qutrit set, and prints the cross-basis overlap magnitudes (all 1/sqrt(d) for
mutually unbiased bases).
"""

import numpy as np

from mub_eve import computational_basis, fourier_basis, qutrit_three_basis_set

TOL = 1e-12  # largest deviation from 1/sqrt(d) that still counts as unbiased

for d in (2, 3, 4, 5):
    comp = computational_basis(d)
    four = fourier_basis(d)
    mags = np.abs(comp.vectors.conj() @ four.vectors.T)
    unbiased = np.max(np.abs(mags - 1 / np.sqrt(d))) <= TOL
    print(f"d={d}: computational vs fourier unbiased: {unbiased}")
    print(f"   overlap magnitudes (target 1/sqrt({d}) = {1/np.sqrt(d):.6f}):")
    print(np.array_str(mags, precision=6, suppress_small=True))

print("\nThree-basis qutrit set:")
bases = qutrit_three_basis_set()
for i in range(3):
    for j in range(i + 1, 3):
        a, b = bases[i], bases[j]
        mags = np.abs(a.vectors.conj() @ b.vectors.T)
        dev = np.max(np.abs(mags - 1 / np.sqrt(3)))
        verdict = "unbiased" if dev <= TOL else "NOT unbiased"
        print(f"  {a.label:13s} vs {b.label:13s}: {verdict}, max deviation from 1/sqrt(3) = {dev:.2e}")
