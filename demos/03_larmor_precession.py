"""Larmor precession without a wavefunction: the probabilities evolve alone.

For H = omega * sz and s = 1/2 the four probabilities obey dP/dt = M P with
a real 4x4 generator whose eigenvalues are the Bohr frequencies
{0, 0, +i omega, -i omega}.  The trajectory returns to its start after one
Larmor period, and the two Hamiltonian eigenstates sit at the flow's fixed
points.  No density matrix is used during the evolution; one is only built
at the end to verify the result independently.
"""

import math

import numpy as np

from evspin import (
    Direction,
    Spin,
    build_generator,
    build_quorum,
    coherent_state,
    default_config,
    fixed_points,
    generator_eigenvalues,
    propagate_grid,
    pure_state_density,
    rho_to_pvec,
    spin_operators,
)

omega = 1.0
spin = Spin(1)
quorum = build_quorum(default_config(spin))
ops = spin_operators(spin)
gen = build_generator(omega * np.asarray(ops.sz), quorum)

print("=" * 70)
print("The generator M (real, 4x4)")
print("=" * 70)
with np.printoptions(precision=4, suppress=True):
    print(gen.matrix)
print()
print("eigenvalues of M (Bohr frequencies times i, taken from H's eigenbasis):")
for z in generator_eigenvalues(gen):
    print(f"  {z.real:+.3e} {z.imag:+.3f}i")
print(f"build self-checks: imaginary residue {gen.imag_residue:.1e}, "
      f"two defining forms agree to {gen.cross_check_deviation:.1e}, "
      f"eigenbasis certified to |MV - V Lambda| = {gen.bohr_deviation:.1e}")

print()
print("=" * 70)
print("One Larmor period of the state |+x>")
print("=" * 70)
state = coherent_state(spin, Direction(math.pi / 2, 0.0))
p0 = rho_to_pvec(pure_state_density(state.amplitudes), quorum)
period = 2 * math.pi / omega
times = np.linspace(0.0, period, 9)
trajectory = propagate_grid(gen, p0, times)
print(f"{'t/T':>6} " + " ".join(f"{f'P_{n + 1}':>8}" for n in range(4)) + f" {'e.P':>10}")
for i, t in enumerate(times):
    row = " ".join(f"{v:8.4f}" for v in trajectory.values[i])
    print(f"{t / period:>6.3f} {row} {trajectory.e_dot_p[i]:>10.6f}")
print(f"return to start after one period: "
      f"{np.max(np.abs(trajectory.values[-1] - p0.values)):.2e}")
print(f"e.P drift along the whole trajectory: {trajectory.normalization_drift:.2e}")

print()
print("=" * 70)
print("Fixed points = images of the Hamiltonian eigenstates")
print("=" * 70)
for k, point in enumerate(fixed_points(gen.hamiltonian, quorum)):
    print(f"P({k}) = {np.round(point.values, 6)}   "
          f"|M P| = {np.max(np.abs(gen.matrix @ point.values)):.1e}")

print()
print("=" * 70)
print("Independent verification against density-matrix propagation")
print("=" * 70)
rho0 = pure_state_density(state.amplitudes)
checked = propagate_grid(gen, p0, np.linspace(0, 3 * period, 100), oracle=rho0)
print(f"max |P_n(t) - <n|rho(t)|n>| over 3 periods, 100 points: "
      f"{np.max(checked.oracle_dev):.2e}")
print("(the linear flow and the von Neumann route agree to rounding)")
