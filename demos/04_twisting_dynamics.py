"""One-axis twisting for s = 1: degenerate spectra and convex geometry.

The quadratic Hamiltonian kappa * sz^2 has the degenerate spectrum
(0, kappa, kappa), so the stationary set of the probability flow is a whole
continuum -- the package flags this instead of silently returning isolated
points.  The second part shows state mixing tracing a straight line in
probability space, and that the line stays straight under evolution.
"""

import math
import warnings

import numpy as np

from evspin import (
    DegenerateSpectrumWarning,
    Direction,
    Spin,
    build_generator,
    build_quorum,
    coherent_state,
    convex_mix,
    default_config,
    fixed_points,
    generator_eigenvalues,
    propagate_exact,
    pure_state_density,
    rho_to_pvec,
    spin_operators,
)

spin = Spin(2)  # s = 1
kappa = 0.8
quorum = build_quorum(default_config(spin))
ops = spin_operators(spin)
h_twist = kappa * np.asarray(ops.sz) @ np.asarray(ops.sz)
gen = build_generator(h_twist, quorum)

print("=" * 70)
print(f"Twisting Hamiltonian kappa*sz^2, kappa = {kappa}")
print("=" * 70)
print("H spectrum:", np.round(gen.h_eigenvalues, 6), " (degenerate)")
print("M spectrum imag parts:",
      np.round(np.sort(generator_eigenvalues(gen).imag), 6))
print("(differences of eigenvalues: 0 appears five times, +-kappa twice each)")
print(f"eigenbasis from H certified despite the degeneracy: "
      f"|MV - V Lambda| = {gen.bohr_deviation:.1e}")

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    points = fixed_points(h_twist, quorum)
degenerate = any(issubclass(w.category, DegenerateSpectrumWarning) for w in caught)
print(f"fixed_points returned {len(points)} stationary vectors, "
      f"degeneracy flagged: {degenerate}")
for k, point in enumerate(points):
    print(f"  |M P({k})| = {np.max(np.abs(gen.matrix @ point.values)):.1e}")

print()
print("=" * 70)
print("Convex mixing is a straight line in probability space")
print("=" * 70)
state_a = coherent_state(spin, Direction(math.pi / 3, 0.0))
state_b = coherent_state(spin, Direction(2 * math.pi / 3, 2.0))
pa = rho_to_pvec(pure_state_density(state_a.amplitudes), quorum)
pb = rho_to_pvec(pure_state_density(state_b.amplitudes), quorum)
print(f"{'lambda':>7} {'P_1':>9} {'P_5':>9} {'P_9':>9}   (linear in lambda)")
for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
    mixed = convex_mix(pa, pb, lam)
    print(f"{lam:>7.2f} {mixed.values[0]:>9.5f} {mixed.values[4]:>9.5f} "
          f"{mixed.values[8]:>9.5f}")

t = 1.3
lhs = propagate_exact(gen, convex_mix(pa, pb, 0.5), t)
rhs = convex_mix(propagate_exact(gen, pa, t), propagate_exact(gen, pb, t), 0.5)
print(f"mix-then-evolve vs evolve-then-mix at t = {t}: "
      f"max deviation {np.max(np.abs(lhs.values - rhs.values)):.2e}")
print("(the flow is linear, so the convex structure of state space survives)")
