#!/usr/bin/env python3
"""Tour of the width-4 spin chain: spectrum, Jordan cell, and the coupling b.

Walks through the smallest nontrivial case end to end: build the Hamiltonian
on the zero-magnetization sector, show that its fourth level is a double
eigenvalue carried by a single eigenvector, extract the 2x2 cell, and combine
it with the trousers state into the coupling b, which at this width has the
closed form -sqrt(3) pi / 4.
"""

import numpy as np

from loopcells import fixtures, models, observables, spectral

np.set_printoptions(precision=6, suppress=True, linewidth=120)

H = models.build_xxz(4)[0].toarray()
print("Hamiltonian on the six up-down configurations with two up spins:")
print(H.real)
print()

clusters = spectral.full_spectrum(H)
print("distinct levels (cluster mean, multiplicity):")
for c in clusters:
    print(f"  {c.value.real:+.12f}   x{c.size}")
level = spectral.level_cluster(clusters, 3)
values, vectors = np.linalg.eig(H)
pair = np.argsort(np.abs(values - level.value))[: level.size]  # the cluster's eigenvectors
form = np.eye(6)  # H is complex symmetric, so the identity is its invariant form
gm, nilpotent = spectral.cell_structure(H, level.value, vectors[:, pair], form)
print(f"\nfourth level {level.value.real:+.6f}: algebraic multiplicity {level.size}, "
      f"geometric multiplicity {gm}, nilpotent part {nilpotent:.6f} -> rank-two Jordan cell")
print()

cell = spectral.extract_jordan_cell(H, level.value, vectors[:, pair], form)
print("eigenvector v and minimal-norm partner w of the cell:")
print("  v =", cell.vector)
print("  w =", cell.partner)
print(f"  residuals: |(H-E)v| ~ {cell.residual_v:.1e}, |(H-E)w - v| ~ {cell.residual_w:.1e}")
print(f"  pairing v.w = {np.dot(cell.vector, cell.partner):+.6f}")
print()

trousers = observables.trousers_xxz(4)
print("trousers state (two width-2 ground states side by side):")
print(" ", trousers.vector)
print()

m = observables.b_xxz(4)
exact = fixtures.B_XXZ_L4_EXACT
print(f"b(4) = {m.value:.12f}")
print(f"exact = {exact:.12f}   (-sqrt(3) pi / 4)")
print(f"difference = {abs(m.value - exact):.2e}")
print(f"gauge sensitivity (overlap with the eigenvector direction) = {m.gauge_sensitivity:.1e}")
