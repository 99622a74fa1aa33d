"""A driven spin: time-dependent generator, fixed-step integration, monitors.

With H(t) = omega*sz + eps*cos(nu t)*sx the generator becomes
M(t) = M_static + cos(nu t) * M_drive -- still exactly linear in the
probabilities.  Exact exponentials no longer apply, so the trajectory is
integrated with fixed-step rk4, weighting the products of M_static and
M_drive with the stage vector by 1 and f(t) at every stage time.  The
conservation law e.P = const holds for every instantaneous Hamiltonian, so
it doubles as an integration-quality monitor.
"""

import math

import numpy as np

from evspin import (
    Direction,
    Drive,
    Envelope,
    HamiltonianSpec,
    Spin,
    build_driven_generator,
    build_quorum,
    coherent_state,
    default_config,
    propagate_grid,
    pure_state_density,
    rho_to_pvec,
)

spin = Spin(1)
omega, eps, nu = 1.0, 0.3, 2.0
quorum = build_quorum(default_config(spin))

spec = HamiltonianSpec(
    linear=(0.0, 0.0, omega),
    drive=Drive(HamiltonianSpec(linear=(eps, 0.0, 0.0)),
                Envelope(shape="cosine", amplitude=1.0, frequency=nu)))
gen = build_driven_generator(spec, quorum)

print("=" * 70)
print(f"H(t) = {omega}*sz + {eps}*cos({nu} t)*sx on s = 1/2")
print("=" * 70)
print("generator at selected times (M(t) = M_static + f(t) M_drive):")
for t in (0.0, math.pi / (2 * nu), math.pi / nu):
    norm = np.linalg.norm(gen.static.matrix + gen.envelope(t) * gen.drive.matrix, 2)
    print(f"  t = {t:6.3f}   f(t) = {gen.envelope(t):+.3f}   |M(t)| = {norm:.3f}")

state = coherent_state(spin, Direction(0.4, 0.0))
p0 = rho_to_pvec(pure_state_density(state.amplitudes), quorum)
periods = 10
times = np.linspace(0.0, periods * 2 * math.pi / nu, 101)
trajectory = propagate_grid(gen, p0, times, method="rk4", substeps=10)

print()
print(f"rk4 over {periods} drive periods, 100 grid intervals, 10 substeps each:")
print(f"{'t':>8} {'minP':>9} {'maxP':>9} {'sumP':>9} {'e.P':>12}")
for i in range(0, len(times), 20):
    print(f"{times[i]:>8.3f} {trajectory.p_min[i]:>9.5f} {trajectory.p_max[i]:>9.5f} "
          f"{trajectory.p_sum[i]:>9.5f} {trajectory.e_dot_p[i]:>12.9f}")
print(f"\nconservation drift over the whole run: {trajectory.normalization_drift:.2e}")
print("(e^T M(t) = 0 holds for every stage Hamiltonian, so the drift is pure")
print(" integrator roundoff, not a physics error)")

print()
print("=" * 70)
print("Piecewise-constant drive: switch the transverse field on and off")
print("=" * 70)
spec_pulse = HamiltonianSpec(
    linear=(0.0, 0.0, omega),
    drive=Drive(HamiltonianSpec(linear=(eps, 0.0, 0.0)),
                Envelope(shape="piecewise", breakpoints=(5.0, 10.0),
                         values=(0.0, 1.0, 0.0))))
gen_pulse = build_driven_generator(spec_pulse, quorum)
times = np.linspace(0.0, 15.0, 151)
trajectory = propagate_grid(gen_pulse, p0, times, method="rk4", substeps=10)
for t_probe in (2.5, 7.5, 12.5):
    i = int(np.argmin(np.abs(times - t_probe)))
    print(f"t = {times[i]:5.2f}  f(t) = {gen_pulse.envelope(times[i]):.1f}  "
          f"P = {np.round(trajectory.values[i], 4)}")
print(f"conservation drift with the pulse: {trajectory.normalization_drift:.2e}")
