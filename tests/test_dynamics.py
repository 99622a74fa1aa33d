import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evspin import (
    DegenerateSpectrumWarning,
    DimensionMismatchError,
    Drive,
    DrivenGenerator,
    Envelope,
    HamiltonianSpec,
    InvariantViolationError,
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


def einsum_trace_form(hmat, q):
    """M from i/(2s+1) Tr[H [Q_n, dual_m]] by einsum, with the conservation projection."""
    d = q.dim
    hq = np.matmul(hmat, q.projectors)
    hd = np.matmul(hmat, q.duals)
    t1 = np.einsum("nik,mki->nm", hq, q.duals)
    t2 = np.einsum("mik,nki->nm", hd, q.projectors)
    m = (1j * (t1 - t2) / d).real
    e = q.dual_traces * d
    return m - np.outer(e, e @ m) / (e @ e)


def textbook_rk4(matrix_at, p0, times, substeps):
    """Textbook rk4, k_i = M(t_i) @ x_i, with the stage times and h of propagate_grid."""
    h_target = float(np.min(np.diff(times))) / substeps
    p = p0.copy()
    rows = [p]
    for i in range(1, len(times)):
        gap = times[i] - times[i - 1]
        nsub = max(1, math.ceil(gap / h_target - 1e-9))
        h = gap / nsub
        t = times[i - 1]
        for _ in range(nsub):
            k1 = matrix_at(t) @ p
            k2 = matrix_at(t + h / 2.0) @ (p + (h / 2.0) * k1)
            k3 = matrix_at(t + h / 2.0) @ (p + (h / 2.0) * k2)
            k4 = matrix_at(t + h) @ (p + h * k3)
            p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        rows.append(p)
    return np.array(rows)


def rk4_assembling_matrix_at(dgen, p0, times, substeps):
    """rk4 forming M(t) = M_static + f(t) M_drive at every stage time, h as in propagate_grid."""
    return textbook_rk4(lambda t: dgen.static.matrix + dgen.envelope(t) * dgen.drive.matrix,
                        p0, times, substeps)


DRIVE_ENVELOPES = {
    "cosine": Envelope(shape="cosine", amplitude=0.7, frequency=1.7, phase=0.3),
    "constant": Envelope(shape="constant", amplitude=0.4),
    # breakpoints on grid points, where the stage time decides the piece
    "piecewise": Envelope(shape="piecewise", breakpoints=(0.5, 1.0), values=(0.0, 0.8, -0.3)),
}


def driven_setup(quorum_for, envelope):
    q = quorum_for(2)
    spec = HamiltonianSpec(linear=(0.1, 0.0, 1.0), quadratic=((0, 0, 0), (0, 0, 0), (0, 0, 0.3)),
                           drive=Drive(HamiltonianSpec(linear=(0.5, -0.2, 0.0)), envelope))
    dgen = build_driven_generator(spec, q)
    p0 = rho_to_pvec(random_density_matrix(q.dim, np.random.default_rng(57)), q)
    return dgen, p0


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

    @pytest.mark.parametrize("two_s", range(1, 9))
    def test_matches_einsum_trace_form(self, quorum_for, two_s):
        q = quorum_for(two_s)
        rng = np.random.default_rng(two_s + 70)
        for _ in range(3):
            h = random_hermitian(q.dim, rng)
            gen = build_generator(h, q)
            scale = max(1.0, float(np.max(np.abs(gen.matrix))))
            assert np.max(np.abs(gen.matrix - einsum_trace_form(h, q))) < 1e-13 * scale

    def test_quorum_matrix_and_sandwich_forms_are_separate_contractions(self, quorum_for):
        q = quorum_for(2)
        h = random_hermitian(q.dim, np.random.default_rng(44))
        # Two different contractions round differently; one computed twice would not.
        assert 0.0 < build_generator(h, q).cross_check_deviation < 1e-10
        # The kept form reads the quorum matrix and the sandwich form the
        # amplitudes, so a quorum matrix out of step with the amplitudes is caught.
        order = [1, 0] + list(range(2, q.size))
        swapped = dataclasses.replace(q, matrix=q.matrix[order])
        with pytest.raises(InvariantViolationError, match="quorum-matrix and sandwich"):
            build_generator(h, swapped)

    def test_non_hermitian_rejected(self, quorum_for):
        from evspin import NotHermitianError
        with pytest.raises(NotHermitianError):
            build_generator(np.array([[0.0, 1.0], [0.0, 0.0]]), quorum_for(1))

    def test_dimension_mismatch(self, quorum_for):
        with pytest.raises(DimensionMismatchError):
            build_generator(np.zeros((3, 3)), quorum_for(1))

    def test_overflowing_hamiltonian_fails_checks(self, quorum_for):
        # |H| = 2e307 at 2s = 4: the commutators overflow and every residue
        # is NaN, which a check written as "residual > bound" would pass; the
        # check reports it, so numpy warns of nothing
        h = 1e307 * np.asarray(spin_operators(Spin(4)).sz)
        q = quorum_for(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolationError, match="residue nan exceeds"):
                build_generator(h, q)

    @pytest.mark.parametrize("fields", [(1e308, 0.0), (1.1e308, 1.1e308)])
    def test_overflowing_spectrum_named(self, quorum_for, fields):
        # At 2s = 4, 1e308 sx has finite entries (at most 1.22e308) but
        # eigenvalues +-4e308, so |H| and every bound scaled by it are inf.
        # 1.1e308 (sx + sy) has finite real and imaginary parts, but its
        # entries' moduli (1.35e308) overflow: the message must not take them.
        ops = spin_operators(Spin(4))
        h = fields[0] * np.asarray(ops.sx) + fields[1] * np.asarray(ops.sy)
        assert np.all(np.isfinite(h))
        q = quorum_for(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolationError,
                               match=r"spectrum overflows: \|H\| = max \|eps_j\| is (inf|nan)$"):
                build_generator(h, q)


class TestModalCoefficients:
    @pytest.mark.filterwarnings("ignore::evspin.IllConditionedQuorumWarning")
    @pytest.mark.parametrize("two_s", range(13))
    def test_reproduce_p0(self, quorum_for, two_s):
        # The exact flow's coordinates of P0 in M's eigenbasis are
        # c = U^dagger X U with X = operator(P0), T^{-1} P0 scattered, and
        # V c = T (T^{-1} P0) = P0 in exact arithmetic.  The product T^{-1} P0
        # sums N terms and is off by at most N eps |T^{-1}| max|P0|; T maps
        # that error back with |T| = |T|_2, so V c misses P0 by at most
        # N kappa(T) eps max|P0|.  The two rotations by U and the product
        # with V (entries at most 1) add rounding of the size of c itself,
        # d eps |X| and N eps |c|, which stays below that for max|P0| >= 1;
        # max(1, .) covers smaller P0.  kappa(T) = sqrt(kappa(G)).
        q = quorum_for(two_s)
        rng = np.random.default_rng(two_s + 90)
        gen = build_generator(random_hermitian(q.dim, rng), q)
        physical = rho_to_pvec(random_density_matrix(q.dim, rng), q).values
        unphysical = rng.uniform(-3.0, 3.0, q.size)
        kappa = math.sqrt(q.condition_number)
        u = gen.h_eigenvectors
        for p0 in (physical, unphysical):
            c = (u.conj().T @ q.operator(p0) @ u).reshape(-1)
            bound = q.size * kappa * np.finfo(float).eps * max(1.0, np.max(np.abs(p0)))
            assert np.max(np.abs(gen.eigenvectors @ c - p0)) <= bound


class TestTimeUnit:
    @pytest.mark.parametrize("lam", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("two_s", [2, 8, 10])
    def test_scaled_hamiltonian_and_time_give_the_same_rows(self, quorum_for, two_s, lam):
        # (H, t) and (lam H, t / lam) are the same physics.  Each run is the
        # exact flow up to two errors.  eigh is backward stable: U and eps
        # are exact for H + E with |E| <= d eps |H| (|H| = max|eps_j|, and
        # E scales with H), and a perturbation E moves rho(t) by at most
        # 2 t |E| in trace norm, so every P_n by 2 d eps |H| t.  The modal
        # coefficients reproduce P0 within N kappa(T) eps max(1, max|P0|)
        # (TestModalCoefficients), and V (entries at most 1) carries that
        # error into each row at most twice, for c and for expm1(t Lambda) c.
        # The two runs therefore differ by at most
        # 2 N eps (2 kappa(T) max(1, max|P0|) + 2 d |H| t).
        q = quorum_for(two_s)
        rng = np.random.default_rng(two_s + 95)
        h = random_hermitian(q.dim, rng)
        p0 = rho_to_pvec(random_density_matrix(q.dim, rng), q)
        times = np.linspace(0.0, 2.0, 6)
        rows = propagate_grid(build_generator(h, q), p0, times).values
        scaled = propagate_grid(build_generator(lam * h, q), p0, times / lam).values
        h_norm = float(np.max(np.abs(np.linalg.eigvalsh(h))))
        kappa = math.sqrt(q.condition_number)
        bound = 4 * q.size * np.finfo(float).eps * (
            kappa * max(1.0, np.max(np.abs(p0.values))) + q.dim * h_norm * times[-1])
        assert np.max(np.abs(rows - scaled)) <= bound


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
        spec = HamiltonianSpec(
            linear=(0, 0, 1.0),
            drive=Drive(HamiltonianSpec(linear=(0.2, 0, 0)),
                        Envelope(shape="cosine", amplitude=1.0, frequency=2.0)))
        dgen = build_driven_generator(spec, q)
        p0 = rho_to_pvec(maximally_mixed(2), q)
        with pytest.raises(MethodUnsupportedError):
            propagate_grid(dgen, p0, np.linspace(0, 1, 5), method="exact-expm")
        with pytest.raises(MethodUnsupportedError):
            propagate_grid(dgen, p0, np.linspace(0, 1, 5), method="rk4",
                           oracle=maximally_mixed(2))

    def test_driven_conserves_normalization(self, quorum_for):
        # drive ~ cos(nu t) sx on top of a sz precession, ten periods
        q = quorum_for(1)
        nu = 2.0
        spec = HamiltonianSpec(
            linear=(0, 0, 1.0),
            drive=Drive(HamiltonianSpec(linear=(0.3, 0, 0)),
                        Envelope(shape="cosine", amplitude=1.0, frequency=nu)))
        dgen = build_driven_generator(spec, q)
        state = coherent_state(Spin(1), Direction(1.0, 0.3))
        p0 = rho_to_pvec(pure_state_density(state.amplitudes), q)
        times = np.linspace(0.0, 10 * 2 * math.pi / nu, 200)
        traj = propagate_grid(dgen, p0, times, method="rk4")
        assert traj.normalization_drift < 1e-7

    @pytest.mark.parametrize("shape", sorted(DRIVE_ENVELOPES))
    def test_driven_rk4_matches_per_stage_matrices(self, quorum_for, shape):
        dgen, p0 = driven_setup(quorum_for, DRIVE_ENVELOPES[shape])
        for times in (np.linspace(0.0, 1.5, 16), np.array([0.0, 0.1, 0.25, 0.5, 0.7, 1.0, 1.3])):
            traj = propagate_grid(dgen, p0, times, method="rk4", substeps=4)
            reference = rk4_assembling_matrix_at(dgen, p0.values, times, 4)
            assert np.max(np.abs(traj.values - reference)) < 1e-13

    @pytest.mark.parametrize("two_s", [2, 8])
    def test_autonomous_rk4_is_textbook_rk4(self, quorum_for, two_s):
        q = quorum_for(two_s)
        rng = np.random.default_rng(60 + two_s)
        gen = build_generator(random_hermitian(q.dim, rng), q)
        p0 = rho_to_pvec(random_density_matrix(q.dim, rng), q)
        times = np.concatenate([[-0.4], -0.4 + np.cumsum(rng.uniform(0.05, 0.4, 12))])
        traj = propagate_grid(gen, p0, times, method="rk4", substeps=3)
        reference = textbook_rk4(lambda _t: gen.matrix, p0.values, times, 3)
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(traj.values - reference)) < 1e-13 * scale

    def test_driven_rk4_never_forms_the_matrix(self, quorum_for, monkeypatch):
        dgen, p0 = driven_setup(quorum_for, DRIVE_ENVELOPES["cosine"])
        calls = []
        original = Envelope.__call__

        def counted(self, t):
            calls.append(t)
            return original(self, t)

        monkeypatch.setattr(Envelope, "__call__", counted)
        propagate_grid(dgen, p0, np.linspace(0.0, 1.0, 11), method="rk4", substeps=3)
        # one value per distinct stage time: the start of each of the 10
        # intervals, then the midpoint and the end of each of its 3 steps
        assert len(calls) == 10 * (1 + 2 * 3)

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

    @pytest.mark.parametrize("method", ["exact-expm", "rk4"])
    @pytest.mark.parametrize("times", [
        [0.0, math.nan], [0.0, math.inf], [math.nan, 1.0], [-1e308, 1e308],
    ], ids=["nan-end", "inf-end", "nan-start", "span-overflows"])
    def test_non_finite_times_rejected(self, quorum_for, method, times):
        q, gen, plus_x = larmor_setup(quorum_for)
        p0 = rho_to_pvec(plus_x, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="times must be finite"):
                propagate_grid(gen, p0, times, method=method)

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


@st.composite
def driven_rk4_cases(draw):
    """Random H0, H1, envelope, uneven grid and substeps at 2s <= 4."""
    two_s = draw(st.integers(0, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    t0 = draw(st.floats(-1.0, 1.0))
    gaps = draw(st.lists(st.floats(0.05, 0.5), min_size=1, max_size=6))
    times = t0 + np.concatenate([[0.0], np.cumsum(gaps)])
    substeps = draw(st.integers(1, 5))
    amplitudes = st.floats(-2.0, 2.0)
    shape = draw(st.sampled_from(["constant", "cosine", "piecewise"]))
    if shape == "constant":
        envelope = Envelope(shape="constant", amplitude=draw(amplitudes))
    elif shape == "cosine":
        envelope = Envelope(shape="cosine", amplitude=draw(amplitudes),
                            frequency=draw(st.floats(0.0, 5.0)),
                            phase=draw(st.floats(0.0, 2 * math.pi)))
    else:
        # breakpoints on grid points, where a stage time lands exactly, and between them
        on_grid = st.sampled_from(times.tolist())
        between = st.floats(float(times[0]) - 0.5, float(times[-1]) + 0.5)
        breakpoints = sorted(set(draw(st.lists(st.one_of(on_grid, between), max_size=4))))
        values = draw(st.lists(amplitudes, min_size=len(breakpoints) + 1,
                               max_size=len(breakpoints) + 1))
        envelope = Envelope(shape="piecewise", breakpoints=breakpoints, values=values)
    return two_s, seed, envelope, times, substeps


@settings(max_examples=100, deadline=None)
@given(case=driven_rk4_cases())
def test_driven_rk4_property(quorum_for, case):
    """Driven rk4 equals rk4 assembling M(t) at every stage time.

    H0 and H1 are scaled to spectral radius at most 1/2 and |f| <= 2, so
    omega <= 1 + 2 * 1 = 3 and every step (at most 0.5) has h * omega <= 1.5,
    inside rk4's stability limit 2 sqrt(2).
    """
    two_s, seed, envelope, times, substeps = case
    q = quorum_for(two_s)
    rng = np.random.default_rng(seed)

    def unit_hermitian():
        h = random_hermitian(q.dim, rng)
        return 0.5 * h / max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(h)))))

    static = build_generator(unit_hermitian(), q)
    dgen = DrivenGenerator(static, build_generator(unit_hermitian(), q), envelope)
    p0 = rho_to_pvec(random_density_matrix(q.dim, rng), q)
    traj = propagate_grid(dgen, p0, times, method="rk4", substeps=substeps)
    reference = rk4_assembling_matrix_at(dgen, p0.values, times, substeps)
    scale = max(1.0, float(np.max(np.abs(reference))))
    assert np.max(np.abs(traj.values - reference)) < 1e-13 * scale


class TestRk4StabilityGuard:
    """rk4 is refused before its first step when h * omega > 2 sqrt(2)."""

    def test_suggested_substeps_is_the_smallest(self, quorum_for):
        # uneven gaps: the shortest one sets the longest step
        q, gen, plus_x = larmor_setup(quorum_for, omega=37.0)
        p0 = rho_to_pvec(plus_x, q)
        times = np.array([0.0, 0.3, 0.55, 1.0, 1.2])
        with pytest.raises(InvariantViolationError) as info:
            propagate_grid(gen, p0, times, method="rk4", substeps=1)
        needed = int(str(info.value).split("substeps >= ")[1].split(" ")[0])
        with pytest.raises(InvariantViolationError):
            propagate_grid(gen, p0, times, method="rk4", substeps=needed - 1)
        propagate_grid(gen, p0, times, method="rk4", substeps=needed)

    @pytest.mark.parametrize("envelope, max_abs", [
        (Envelope(shape="constant", amplitude=-2.5), 2.5),
        (Envelope(shape="cosine", amplitude=-2.5, frequency=3.0), 2.5),
        # the largest value lies beyond the grid: the bound covers all of f
        (Envelope(shape="piecewise", breakpoints=(0.5, 9.0), values=(1.0, -0.5, 2.5)), 2.5),
    ], ids=["constant", "cosine", "piecewise"])
    def test_driven_bound_is_weyl(self, quorum_for, envelope, max_abs):
        # omega = spread(sz) + max|f| spread(sx) = 1 + 2.5 = 3.5 at 2s = 1
        q = quorum_for(1)
        spec = HamiltonianSpec(linear=(0, 0, 1.0),
                               drive=Drive(HamiltonianSpec(linear=(1.0, 0, 0)), envelope))
        dgen = build_driven_generator(spec, q)
        p0 = rho_to_pvec(maximally_mixed(2), q)
        assert envelope.max_abs == max_abs
        times = np.array([0.0, 1.0])
        with pytest.raises(InvariantViolationError, match=r"omega = 3.5 .*substeps >= 2 "):
            propagate_grid(dgen, p0, times, method="rk4", substeps=1)
        propagate_grid(dgen, p0, times, method="rk4", substeps=2)

    def test_non_finite_rows_still_caught(self, quorum_for):
        # an infinite drive leaves omega without a finite bound; the rows
        # then overflow and are caught after the steps
        q = quorum_for(1)
        spec = HamiltonianSpec(
            linear=(0, 0, 1.0),
            drive=Drive(HamiltonianSpec(linear=(1.0, 0, 0)),
                        Envelope(shape="constant", amplitude=math.inf)))
        dgen = build_driven_generator(spec, q)
        p0 = rho_to_pvec(maximally_mixed(2), q)
        with pytest.raises(InvariantViolationError, match="non-finite values at t = 1"):
            propagate_grid(dgen, p0, np.array([0.0, 1.0]), method="rk4", substeps=3)


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
        broken = np.array([[math.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NotHermitianError, match="non-finite"):
            propagate_grid(gen, rho_to_pvec(plus_x, q), np.linspace(0, 1, 5), oracle=broken)

    def test_oracle_monitor_column(self, quorum_for):
        q, gen, plus_x = larmor_setup(quorum_for)
        p0 = rho_to_pvec(plus_x, q)
        traj = propagate_grid(gen, p0, np.linspace(0, 6, 25), oracle=plus_x)
        assert traj.oracle_dev is not None
        assert float(np.max(traj.oracle_dev)) < 1e-10
