import bisect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evspin import (
    Direction,
    NonSymmetricCouplingError,
    HamiltonianSpec,
    Spin,
    basis_state,
    build_hamiltonian,
    coherent_amplitudes,
    coherent_state,
    evolve_density_matrix,
    hermitian_eigendecomposition,
    maximally_mixed,
    pure_state_density,
    random_density_matrix,
    spin_operators,
)
from evspin.spin import Drive, Envelope


class TestSpin:
    def test_basic(self):
        s = Spin(3)
        assert s.s == 1.5
        assert s.dim == 4
        assert s.quorum_size == 16
        np.testing.assert_allclose(s.m_values, [1.5, 0.5, -0.5, -1.5])

    def test_from_s(self):
        assert Spin.from_s(0.5).two_s == 1
        assert Spin.from_s(2).two_s == 4
        with pytest.raises(ValueError):
            Spin.from_s(0.3)
        with pytest.raises(ValueError):
            Spin.from_s(-1)

    def test_two_s_must_be_int(self):
        with pytest.raises(TypeError):
            Spin(1.5)
        with pytest.raises(ValueError):
            Spin(-2)


class TestSpinOperators:
    def test_spin_half_is_pauli_over_two(self):
        ops = spin_operators(Spin(1))
        np.testing.assert_allclose(ops.sz, np.diag([0.5, -0.5]))
        np.testing.assert_allclose(ops.sx, [[0, 0.5], [0.5, 0]])
        np.testing.assert_allclose(ops.sy, [[0, -0.5j], [0.5j, 0]])

    def test_spin_one_sz_diagonal(self):
        ops = spin_operators(Spin(2))
        np.testing.assert_allclose(ops.sz, np.diag([1.0, 0.0, -1.0]))

    def test_spin_two_casimir(self):
        ops = spin_operators(Spin(4))
        casimir = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
        np.testing.assert_allclose(casimir, 6 * np.eye(5), atol=1e-12)

    @pytest.mark.parametrize("two_s", list(range(0, 21, 2)) + [1, 3, 7, 13, 19])
    def test_casimir_and_commutators(self, two_s):
        spin = Spin(two_s)
        ops = spin_operators(spin)
        s = spin.s
        eye = np.eye(spin.dim)
        casimir = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
        assert np.max(np.abs(casimir - s * (s + 1) * eye)) < 1e-12
        for a, b, c in [(ops.sx, ops.sy, ops.sz),
                        (ops.sy, ops.sz, ops.sx),
                        (ops.sz, ops.sx, ops.sy)]:
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12

    def test_ladder_elements_real_nonnegative(self):
        ops = spin_operators(Spin(5))
        raising = ops.sx + 1j * ops.sy
        assert np.max(np.abs(raising.imag)) < 1e-15
        assert np.min(raising.real) >= 0.0


class TestDirection:
    def test_unit_vector(self):
        d = Direction(math.pi / 2, 0.0)
        np.testing.assert_allclose(d.unit_vector, [1, 0, 0], atol=1e-15)

    def test_ranges(self):
        with pytest.raises(ValueError):
            Direction(-0.1, 0.0)
        with pytest.raises(ValueError):
            Direction(0.5, 7.0)

    def test_angle_to(self):
        a = Direction(0.0, 0.0)
        b = Direction(math.pi / 2, 1.3)
        assert abs(a.angle_to(b) - math.pi / 2) < 1e-14


def rotated_highest_weight(spin, theta, phi):
    """exp(-i theta m(phi).s)|s,s>, m(phi) = (-sin phi, cos phi, 0), through eigh of m.s.

    The rotation is built from the eigendecomposition of the axis operator,
    independently of the closed form that ``coherent_amplitudes`` evaluates.
    """
    ops = spin_operators(spin)
    w, v = hermitian_eigendecomposition(-math.sin(phi) * ops.sx + math.cos(phi) * ops.sy)
    return v @ (np.exp(-1j * theta * w) * v[0, :].conj())


class TestCoherentState:
    def test_north_pole(self):
        for two_s in (0, 1, 2, 5):
            st = coherent_state(Spin(two_s), Direction(0.0, 1.1))
            expected = np.zeros(two_s + 1)
            expected[0] = 1.0
            np.testing.assert_allclose(st.amplitudes, expected, atol=1e-12)

    def test_spin_half_flip(self):
        # exp(-i pi sy) on (1, 0): closed 2x2 form gives (0, 1)
        st = coherent_state(Spin(1), Direction(math.pi, 0.0))
        np.testing.assert_allclose(st.amplitudes, [0.0, 1.0], atol=1e-12)

    def test_spin_half_equator(self):
        st = coherent_state(Spin(1), Direction(math.pi / 2, 0.0))
        np.testing.assert_allclose(st.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)],
                                   atol=1e-12)

    @pytest.mark.parametrize("two_s", [1, 2, 5])
    def test_eigenvector_property_on_grid(self, two_s):
        spin = Spin(two_s)
        ops = spin_operators(spin)
        rng = np.random.default_rng(two_s)
        for _ in range(100):
            theta = math.acos(1 - 2 * rng.random())
            phi = 2 * math.pi * rng.random()
            d = Direction(theta, phi)
            st = coherent_state(spin, d)
            n = d.unit_vector
            n_dot_s = n[0] * ops.sx + n[1] * ops.sy + n[2] * ops.sz
            residual = n_dot_s @ st.amplitudes - spin.s * st.amplitudes
            assert np.linalg.norm(residual) < 1e-10
            assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize("two_s", range(15))
    def test_amplitudes_match_rotation_by_eigendecomposition(self, two_s):
        # full complex amplitudes, phases included, poles included
        spin = Spin(two_s)
        rng = np.random.default_rng(100 + two_s)
        thetas = [0.0, math.pi, 0.0, math.pi] + list(np.arccos(1 - 2 * rng.random(10)))
        phis = [0.0, 0.0, 2.0, 4.5] + list(2 * math.pi * rng.random(10))
        amplitudes = coherent_amplitudes(spin, thetas, phis)
        for row, theta, phi in zip(amplitudes, thetas, phis):
            assert np.max(np.abs(row - rotated_highest_weight(spin, theta, phi))) < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(two_s=st.integers(min_value=0, max_value=12),
           theta=st.floats(min_value=0.0, max_value=math.pi),
           phi=st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True))
    def test_amplitudes_property(self, two_s, theta, phi):
        spin = Spin(two_s)
        row = coherent_state(spin, Direction(theta, phi)).amplitudes
        assert np.max(np.abs(row - rotated_highest_weight(spin, theta, phi))) < 1e-14

    @pytest.mark.parametrize("two_s", [0, 1, 4, 10])
    def test_stacked_amplitudes_match_single_states(self, two_s):
        spin = Spin(two_s)
        rng = np.random.default_rng(60 + two_s)
        thetas = np.arccos(1 - 2 * rng.random(9))
        phis = 2 * math.pi * rng.random(9)
        amplitudes = coherent_amplitudes(spin, thetas, phis)
        assert amplitudes.shape == (9, spin.dim)
        for k in range(9):
            single = coherent_state(spin, Direction(thetas[k], phis[k])).amplitudes
            assert np.array_equal(amplitudes[k], single)


class TestCoherentOverlap:
    # <a|b> is the inner product of the amplitude rows.
    @staticmethod
    def _overlap(spin, da, db):
        rows = coherent_amplitudes(spin, [da.theta, db.theta], [da.phi, db.phi])
        return complex(np.vdot(rows[0], rows[1]))

    def test_self_overlap(self):
        direction = Direction(1.0, 2.0)
        assert abs(self._overlap(Spin(3), direction, direction) - 1.0) < 1e-12

    def test_antipodal_qubit(self):
        up = Direction(0.3, 1.0)
        down = Direction(math.pi - 0.3, 1.0 + math.pi)
        assert abs(self._overlap(Spin(1), up, down)) < 1e-12

    def test_right_angle_spin_one(self):
        overlap = self._overlap(Spin(2), Direction(0.0, 0.0), Direction(math.pi / 2, 0.0))
        assert abs(abs(overlap) ** 2 - 0.25) < 1e-10

    @pytest.mark.parametrize("two_s", [1, 2, 4])
    def test_overlap_law(self, two_s):
        spin = Spin(two_s)
        rng = np.random.default_rng(two_s + 7)
        for _ in range(20):
            da = Direction(math.acos(1 - 2 * rng.random()), 2 * math.pi * rng.random())
            db = Direction(math.acos(1 - 2 * rng.random()), 2 * math.pi * rng.random())
            overlap = self._overlap(spin, da, db)
            expected = ((1 + math.cos(da.angle_to(db))) / 2) ** two_s
            assert abs(abs(overlap) ** 2 - expected) < 1e-10


class TestHamiltonian:
    def test_linear_z(self):
        ops = spin_operators(Spin(2))
        h = build_hamiltonian(HamiltonianSpec(linear=(0, 0, 2.5)), ops)
        np.testing.assert_allclose(h, 2.5 * ops.sz)

    def test_quadratic_zz_spin_one(self):
        ops = spin_operators(Spin(2))
        quad = [[0, 0, 0], [0, 0, 0], [0, 0, 0.7]]
        h = build_hamiltonian(HamiltonianSpec(quadratic=quad), ops)
        np.testing.assert_allclose(h, 0.7 * np.diag([1.0, 0.0, 1.0]), atol=1e-15)

    def test_linear_x_spin_half(self):
        ops = spin_operators(Spin(1))
        h = build_hamiltonian(HamiltonianSpec(linear=(3.0, 0, 0)), ops)
        np.testing.assert_allclose(h, [[0, 1.5], [1.5, 0]])

    def test_asymmetric_quadratic_rejected(self):
        ops = spin_operators(Spin(2))
        quad = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
        with pytest.raises(NonSymmetricCouplingError):
            build_hamiltonian(HamiltonianSpec(quadratic=quad), ops)

    def test_non_finite_quadratic_rejected(self):
        ops = spin_operators(Spin(2))
        quad = [[math.nan, 0, 0], [0, 0, 0], [0, 0, 0]]
        with pytest.raises(NonSymmetricCouplingError):
            build_hamiltonian(HamiltonianSpec(quadratic=quad), ops)

    @pytest.mark.parametrize("spec", [HamiltonianSpec(linear=(0, 0, 1e308)),
                                      HamiltonianSpec(quadratic=[[1e308, 0, 0], [0, 0, 0],
                                                                 [0, 0, 0]])])
    def test_overflowing_hamiltonian_rejected(self, spec):
        # finite coefficients, but entries of H beyond the double range at 2s = 4
        ops = spin_operators(Spin(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Hamiltonian has non-finite entries"):
                build_hamiltonian(spec, ops)

    def test_driven_at_time(self):
        ops = spin_operators(Spin(1))
        spec = HamiltonianSpec(
            linear=(0, 0, 1.0),
            drive=Drive(HamiltonianSpec(linear=(0.5, 0, 0)),
                        Envelope(shape="cosine", amplitude=1.0, frequency=2.0)))
        static = build_hamiltonian(spec, ops)
        drive = build_hamiltonian(spec.drive.term, ops)
        np.testing.assert_allclose(static, ops.sz)
        h0 = static + spec.drive.envelope(0.0) * drive
        np.testing.assert_allclose(h0, ops.sz + 0.5 * ops.sx)
        quarter = math.pi / 4
        h_quarter = static + spec.drive.envelope(quarter) * drive
        np.testing.assert_allclose(h_quarter, ops.sz, atol=1e-15)

    def test_piecewise_envelope(self):
        env = Envelope(shape="piecewise", breakpoints=(1.0, 2.0), values=(0.0, 5.0, 1.0))
        assert env(0.5) == 0.0
        assert env(1.5) == 5.0
        assert env(3.0) == 1.0


@st.composite
def envelopes_and_times(draw):
    """An envelope of any shape and times, on, before and after its breakpoints."""
    numbers = st.floats(-1e3, 1e3)
    shape = draw(st.sampled_from(["constant", "cosine", "piecewise"]))
    if shape == "constant":
        envelope = Envelope(shape="constant", amplitude=draw(numbers))
    elif shape == "cosine":
        envelope = Envelope(shape="cosine", amplitude=draw(numbers), frequency=draw(numbers),
                            phase=draw(numbers))
    else:
        breakpoints = sorted(set(draw(st.lists(numbers, max_size=5))))
        envelope = Envelope(shape="piecewise", breakpoints=breakpoints,
                            values=draw(st.lists(numbers, min_size=len(breakpoints) + 1,
                                                 max_size=len(breakpoints) + 1)))
    times = draw(st.lists(numbers, max_size=20))
    if envelope.breakpoints:
        edges = envelope.breakpoints
        times += list(edges) + [edges[0] - 1.0, edges[-1] + 1.0]
    return envelope, draw(st.permutations(times))


@settings(max_examples=300, deadline=None)
@given(case=envelopes_and_times())
def test_envelope_on_arrays_matches_scalar_calls(case):
    envelope, times = case
    scalars = [envelope(t) for t in times]
    assert all(type(f) is float for f in scalars)
    values = envelope(np.array(times))
    assert values.shape == (len(times),)
    assert [f.hex() for f in values.tolist()] == [f.hex() for f in scalars]
    if envelope.shape == "piecewise":
        # a time on a breakpoint takes the value after it
        assert scalars == [envelope.values[bisect.bisect_right(envelope.breakpoints, t)]
                           for t in times]


class TestDensityEvolution:
    def test_zero_time(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(3, rng)
        ops = spin_operators(Spin(2))
        np.testing.assert_allclose(evolve_density_matrix(rho, ops.sz, 0.0), rho, atol=1e-14)

    def test_eigenstate_stationary(self):
        ops = spin_operators(Spin(2))
        rho = pure_state_density(basis_state(Spin(2), 1.0))
        evolved = evolve_density_matrix(rho, 1.3 * ops.sz, 2.7)
        np.testing.assert_allclose(evolved, rho, atol=1e-12)

    def test_larmor_half_period(self):
        # H = w sz sends |+x> to |-x> at t = pi/w (hand-computed 2x2 unitary)
        omega = 1.7
        ops = spin_operators(Spin(1))
        plus_x = pure_state_density(np.array([1.0, 1.0]) / math.sqrt(2))
        minus_x = pure_state_density(np.array([1.0, -1.0]) / math.sqrt(2))
        evolved = evolve_density_matrix(plus_x, omega * ops.sz, math.pi / omega)
        np.testing.assert_allclose(evolved, minus_x, atol=1e-12)

    def test_time_array_matches_scalar_calls(self):
        rng = np.random.default_rng(5)
        ops = spin_operators(Spin(3))
        h = build_hamiltonian(HamiltonianSpec(linear=(0.3, -1.1, 0.8)), ops)
        rho = random_density_matrix(4, rng)
        times = np.array([0.0, 0.4, 3.0, 17.0])
        stacked = evolve_density_matrix(rho, h, times)
        assert stacked.shape == (4, 4, 4)
        for t, evolved in zip(times, stacked):
            np.testing.assert_allclose(evolved, evolve_density_matrix(rho, h, t), atol=1e-13)

    def test_preserves_trace_hermiticity_spectrum(self):
        rng = np.random.default_rng(4)
        ops = spin_operators(Spin(3))
        h = build_hamiltonian(HamiltonianSpec(linear=(0.3, -1.1, 0.8)), ops)
        rho = random_density_matrix(4, rng)
        for t in (0.1, 2.0, 17.0):
            evolved = evolve_density_matrix(rho, h, t)
            assert abs(np.trace(evolved).real - 1.0) < 1e-10
            assert np.max(np.abs(evolved - evolved.conj().T)) < 1e-10
            np.testing.assert_allclose(np.linalg.eigvalsh(evolved),
                                       np.linalg.eigvalsh(rho), atol=1e-10)


def test_maximally_mixed():
    rho = maximally_mixed(4)
    assert abs(np.trace(rho) - 1.0) < 1e-15
    np.testing.assert_allclose(rho, np.eye(4) / 4)


def test_basis_state_validation():
    with pytest.raises(ValueError):
        basis_state(Spin(2), 0.5)
    v = basis_state(Spin(2), -1.0)
    np.testing.assert_allclose(v, [0, 0, 1])


def test_validate_density_matrix():
    from evspin import NotHermitianError, validate_density_matrix
    rng = np.random.default_rng(8)
    rho = random_density_matrix(3, rng)
    assert validate_density_matrix(rho) is rho
    with pytest.raises(NotHermitianError):
        validate_density_matrix(np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(NotHermitianError, match="non-finite"):
        validate_density_matrix(np.array([[math.nan, 0.0], [0.0, 1.0]]))
