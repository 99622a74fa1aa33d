import math

import numpy as np
import pytest

from evspin import (
    DegenerateSpectrumWarning,
    DimensionMismatchError,
    Drive,
    Envelope,
    HamiltonianSpec,
    MethodUnsupportedError,
    Spin,
    bohr_spectrum,
    build_driven_generator,
    build_generator,
    build_hamiltonian,
    convex_mix,
    coherent_state,
    Direction,
    evolve_density_matrix,
    fixed_points,
    generator_eigenvalues,
    maximally_mixed,
    propagate_exact,
    propagate_grid,
    pure_state_density,
    random_density_matrix,
    random_hermitian,
    rho_to_pvec,
    spin_operators,
)
from evspin.dynamics import _lexsorted


def larmor_setup(quorum_for, omega=1.0):
    q = quorum_for(1)
    ops = spin_operators(Spin(1))
    gen = build_generator(omega * ops.sz, q)
    plus_x = pure_state_density(coherent_state(Spin(1), Direction(math.pi / 2, 0.0)).amplitudes)
    return q, gen, plus_x


class TestBuildGenerator:
    def test_zero_hamiltonian(self, quorum_for):
        q = quorum_for(2)
        gen = build_generator(np.zeros((3, 3)), q)
        assert np.max(np.abs(gen.matrix)) < 1e-14

    def test_identity_hamiltonian(self, quorum_for):
        q = quorum_for(2)
        gen = build_generator(2.7 * np.eye(3), q)
        assert np.max(np.abs(gen.matrix)) < 1e-12

    def test_larmor_spectrum(self, quorum_for):
        omega = 1.3
        _, gen, _ = larmor_setup(quorum_for, omega)
        eigs = _lexsorted(np.linalg.eigvals(gen.matrix))
        expected = np.array([-1j * omega, 0.0, 0.0, 1j * omega])
        np.testing.assert_allclose(eigs, expected, atol=1e-10)

    @pytest.mark.parametrize("two_s", [1, 2, 4])
    def test_build_self_checks(self, quorum_for, two_s):
        q = quorum_for(two_s)
        rng = np.random.default_rng(two_s + 40)
        for _ in range(10):
            gen = build_generator(random_hermitian(q.dim, rng), q)
            assert gen.imag_residue < 1e-10
            assert gen.cross_check_deviation < 1e-10
            assert gen.conservation_residual < 1e-9
            assert gen.bohr_deviation < 1e-8
            assert np.isrealobj(gen.matrix)

    def test_conserved_functional_is_left_null_vector(self, quorum_for):
        q = quorum_for(2)
        rng = np.random.default_rng(43)
        gen = build_generator(random_hermitian(q.dim, rng), q)
        raw = q.dual_traces * q.dim
        assert np.max(np.abs(raw @ gen.matrix)) < 1e-9

    def test_bohr_spectrum_multiset(self, quorum_for):
        q = quorum_for(2)
        ops = spin_operators(Spin(2))
        h = build_hamiltonian(HamiltonianSpec(linear=(0.4, 0.0, 1.0)), ops)
        gen = build_generator(h, q)
        diffs = bohr_spectrum(gen.h_eigenvalues)
        np.testing.assert_allclose(_lexsorted(np.linalg.eigvals(gen.matrix)), diffs, atol=1e-8)
        np.testing.assert_allclose(generator_eigenvalues(gen), diffs, atol=1e-12)

    def test_non_hermitian_rejected(self, quorum_for):
        from evspin import NotHermitianError
        with pytest.raises(NotHermitianError):
            build_generator(np.array([[0.0, 1.0], [0.0, 0.0]]), quorum_for(1))

    def test_dimension_mismatch(self, quorum_for):
        with pytest.raises(DimensionMismatchError):
            build_generator(np.zeros((3, 3)), quorum_for(1))


class TestPropagateExact:
    def test_zero_time(self, quorum_for):
        q, gen, rho = larmor_setup(quorum_for)
        p0 = rho_to_pvec(rho, q)
        np.testing.assert_array_equal(propagate_exact(gen, p0, 0.0).values, p0.values)

    def test_eigenstate_is_fixed(self, quorum_for):
        q = quorum_for(2)
        ops = spin_operators(Spin(2))
        gen = build_generator(1.7 * ops.sz, q)
        rho = np.zeros((3, 3), dtype=complex)
        rho[1, 1] = 1.0  # mu = 0 eigenstate
        p0 = rho_to_pvec(rho, q)
        for t in (0.7, 5.0, 40.0):
            assert np.max(np.abs(propagate_exact(gen, p0, t).values - p0.values)) < 1e-10

    def test_larmor_period(self, quorum_for):
        omega = 0.8
        q, gen, plus_x = larmor_setup(quorum_for, omega)
        p0 = rho_to_pvec(plus_x, q)
        p_final = propagate_exact(gen, p0, 2 * math.pi / omega)
        assert np.max(np.abs(p_final.values - p0.values)) < 1e-8

    def test_no_overflow_at_long_times(self, quorum_for):
        # |t M|_1 is about 1.4e3 here; exp(t M) stays bounded because the
        # spectrum of M is purely imaginary.
        q = quorum_for(4)
        ops = spin_operators(Spin(4))
        h = np.asarray(ops.sz) + 0.3 * np.asarray(ops.sx)
        gen = build_generator(h, q)
        rho0 = pure_state_density(coherent_state(Spin(4), Direction(1.0, 0.4)).amplitudes)
        p0 = rho_to_pvec(rho0, q)
        pt = propagate_exact(gen, p0, 50.0)
        reference = rho_to_pvec(evolve_density_matrix(rho0, h, 50.0), q)
        assert np.max(np.abs(pt.values - reference.values)) < 1e-7
        assert abs(pt.normalization - p0.normalization) < 1e-8

    def test_normalization_conserved(self, quorum_for):
        q = quorum_for(3)
        rng = np.random.default_rng(50)
        gen = build_generator(random_hermitian(q.dim, rng), q)
        p0 = rho_to_pvec(random_density_matrix(q.dim, rng), q)
        for t in (0.3, 3.0, 12.0):
            pt = propagate_exact(gen, p0, t)
            assert abs(pt.normalization - p0.normalization) < 1e-9


class TestPropagateGrid:
    def test_frozen_dynamics(self, quorum_for):
        q = quorum_for(2)
        gen = build_generator(np.zeros((3, 3)), q)
        rng = np.random.default_rng(51)
        p0 = rho_to_pvec(random_density_matrix(3, rng), q)
        traj = propagate_grid(gen, p0, np.linspace(0, 5, 11))
        assert np.max(np.abs(traj.values - p0.values)) < 1e-14

    def test_rk4_matches_exact(self, quorum_for):
        q = quorum_for(2)
        rng = np.random.default_rng(52)
        gen = build_generator(random_hermitian(q.dim, rng), q)
        p0 = rho_to_pvec(random_density_matrix(q.dim, rng), q)
        times = np.linspace(0.0, 2.0, 21)
        # keep ||M|| h <= 0.1: h = (min gap = 0.1) / substeps
        substeps = max(10, math.ceil(np.linalg.norm(gen.matrix, 2)))
        exact = propagate_grid(gen, p0, times, method="exact-expm")
        rk4 = propagate_grid(gen, p0, times, method="rk4", substeps=substeps)
        assert np.max(np.abs(exact.values - rk4.values)) < 1e-6

    def test_monitors(self, quorum_for):
        q = quorum_for(1)
        rng = np.random.default_rng(53)
        gen = build_generator(random_hermitian(2, rng), q)
        p0 = rho_to_pvec(random_density_matrix(2, rng), q)
        traj = propagate_grid(gen, p0, np.linspace(0, 6, 61))
        assert traj.normalization_drift < 1e-10
        np.testing.assert_allclose(traj.p_sum, traj.values.sum(axis=1))
        assert np.all(traj.p_min >= -1e-8)
        assert np.all(traj.p_max <= 1 + 1e-8)

    def test_positivity_along_flow(self, quorum_for):
        q = quorum_for(4)
        rng = np.random.default_rng(54)
        gen = build_generator(random_hermitian(q.dim, rng), q)
        p0 = rho_to_pvec(random_density_matrix(q.dim, rng), q)
        traj = propagate_grid(gen, p0, np.linspace(0, 20, 100))
        assert traj.p_min.min() >= -1e-8
        assert traj.p_max.max() <= 1 + 1e-8

    def test_driven_requires_rk4(self, quorum_for):
        q = quorum_for(1)
        ops = spin_operators(Spin(1))
        spec = HamiltonianSpec(
            linear=(0, 0, 1.0),
            drive=Drive(HamiltonianSpec(linear=(0.2, 0, 0)),
                        Envelope(shape="cosine", amplitude=1.0, frequency=2.0)))
        dgen = build_driven_generator(spec, ops, q)
        p0 = rho_to_pvec(maximally_mixed(2), q)
        with pytest.raises(MethodUnsupportedError):
            propagate_grid(dgen, p0, np.linspace(0, 1, 5), method="exact-expm")
        with pytest.raises(MethodUnsupportedError):
            propagate_grid(dgen, p0, np.linspace(0, 1, 5), method="rk4",
                           oracle=maximally_mixed(2))

    def test_driven_conserves_normalization(self, quorum_for):
        # drive ~ cos(nu t) sx on top of a sz precession, ten periods
        q = quorum_for(1)
        ops = spin_operators(Spin(1))
        nu = 2.0
        spec = HamiltonianSpec(
            linear=(0, 0, 1.0),
            drive=Drive(HamiltonianSpec(linear=(0.3, 0, 0)),
                        Envelope(shape="cosine", amplitude=1.0, frequency=nu)))
        dgen = build_driven_generator(spec, ops, q)
        state = coherent_state(Spin(1), Direction(1.0, 0.3))
        p0 = rho_to_pvec(pure_state_density(state.amplitudes), q)
        times = np.linspace(0.0, 10 * 2 * math.pi / nu, 200)
        traj = propagate_grid(dgen, p0, times, method="rk4")
        assert traj.normalization_drift < 1e-7

    def test_rk4_convergence_order(self, quorum_for):
        q, gen, plus_x = larmor_setup(quorum_for)
        p0 = rho_to_pvec(plus_x, q)
        t_end = 2.0
        reference = propagate_exact(gen, p0, t_end).values
        errors = []
        for substeps in (8, 16, 32, 64):
            traj = propagate_grid(gen, p0, np.array([0.0, t_end]),
                                  method="rk4", substeps=substeps)
            errors.append(np.max(np.abs(traj.values[-1] - reference)))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
        assert min(orders) > 3.8

    def test_times_validation(self, quorum_for):
        q, gen, plus_x = larmor_setup(quorum_for)
        p0 = rho_to_pvec(plus_x, q)
        with pytest.raises(ValueError):
            propagate_grid(gen, p0, [0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            propagate_grid(gen, p0, [])

    def test_flow_commutes_with_mixing(self, quorum_for):
        q = quorum_for(2)
        rng = np.random.default_rng(55)
        gen = build_generator(random_hermitian(q.dim, rng), q)
        pa = rho_to_pvec(random_density_matrix(q.dim, rng), q)
        pb = rho_to_pvec(random_density_matrix(q.dim, rng), q)
        lam = 0.37
        t = 1.9
        mixed_then_flowed = propagate_exact(gen, convex_mix(pa, pb, lam), t)
        flowed_then_mixed = convex_mix(propagate_exact(gen, pa, t),
                                       propagate_exact(gen, pb, t), lam)
        assert np.max(np.abs(mixed_then_flowed.values - flowed_then_mixed.values)) < 1e-9


class TestFixedPoints:
    def test_larmor_fixed_points(self, quorum_for):
        q = quorum_for(1)
        ops = spin_operators(Spin(1))
        h = 1.1 * np.asarray(ops.sz)
        points = fixed_points(h, q)
        assert len(points) == 2
        gen = build_generator(h, q)
        for p in points:
            assert np.max(np.abs(gen.matrix @ p.values)) < 1e-9
        up = np.zeros((2, 2), dtype=complex)
        up[0, 0] = 1.0
        down = np.zeros((2, 2), dtype=complex)
        down[1, 1] = 1.0
        expected = {tuple(np.round(rho_to_pvec(r, q).values, 10)) for r in (up, down)}
        got = {tuple(np.round(p.values, 10)) for p in points}
        assert got == expected

    def test_count_matches_dimension(self, quorum_for):
        for two_s in (1, 2, 4):
            q = quorum_for(two_s)
            rng = np.random.default_rng(two_s + 60)
            h = random_hermitian(q.dim, rng)
            points = fixed_points(h, q)
            assert len(points) == two_s + 1

    def test_zero_hamiltonian_degenerate(self, quorum_for):
        q = quorum_for(1)
        with pytest.warns(DegenerateSpectrumWarning):
            points = fixed_points(np.zeros((2, 2)), q)
        assert len(points) == 2

    def test_twisting_degenerate(self, quorum_for):
        # kappa sz^2 on s = 1 has spectrum (0, kappa, kappa)
        q = quorum_for(2)
        ops = spin_operators(Spin(2))
        kappa = 0.9
        h = kappa * np.asarray(ops.sz) @ np.asarray(ops.sz)
        with pytest.warns(DegenerateSpectrumWarning):
            points = fixed_points(h, q)
        assert len(points) == 3
        from evspin import hermitian_eigendecomposition
        eigs, _ = hermitian_eigendecomposition(h)
        np.testing.assert_allclose(eigs, [0.0, kappa, kappa], atol=1e-12)
        gen = build_generator(h, q)
        for p in points:
            assert np.max(np.abs(gen.matrix @ p.values)) < 1e-9


class TestOracleComparison:
    def test_eigenstate_constant(self, quorum_for):
        q = quorum_for(2)
        ops = spin_operators(Spin(2))
        h = 1.7 * np.asarray(ops.sz)
        gen = build_generator(h, q)
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        traj = propagate_grid(gen, rho_to_pvec(rho, q), np.linspace(0, 8, 30), oracle=rho)
        assert float(np.max(traj.oracle_dev)) < 1e-10

    def test_larmor_three_periods(self, quorum_for):
        omega = 1.0
        q, gen, plus_x = larmor_setup(quorum_for, omega)
        times = np.linspace(0.0, 3 * 2 * math.pi / omega, 100)
        traj = propagate_grid(gen, rho_to_pvec(plus_x, q), times, oracle=plus_x)
        assert float(np.max(traj.oracle_dev)) < 1e-8

    def test_random_spin_two(self, quorum_for):
        q = quorum_for(4)
        rng = np.random.default_rng(61)
        h = random_hermitian(q.dim, rng)
        rho0 = random_density_matrix(q.dim, rng)
        gen = build_generator(h, q)
        traj = propagate_grid(gen, rho_to_pvec(rho0, q), np.linspace(0.0, 10.0, 100),
                              oracle=rho0)
        assert float(np.max(traj.oracle_dev)) < 1e-7

    def test_non_hermitian_oracle_rejected(self, quorum_for):
        from evspin import NotHermitianError
        q, gen, plus_x = larmor_setup(quorum_for)
        skewed = plus_x + np.array([[0.0, 0.1], [0.0, 0.0]])
        with pytest.raises(NotHermitianError):
            propagate_grid(gen, rho_to_pvec(plus_x, q), np.linspace(0, 1, 5), oracle=skewed)

    def test_oracle_monitor_column(self, quorum_for):
        q, gen, plus_x = larmor_setup(quorum_for)
        p0 = rho_to_pvec(plus_x, q)
        traj = propagate_grid(gen, p0, np.linspace(0, 6, 25), oracle=plus_x)
        assert traj.oracle_dev is not None
        assert float(np.max(traj.oracle_dev)) < 1e-10
