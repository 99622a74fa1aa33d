import numpy as np
import pytest

from evspin import (
    DimensionMismatchError,
    NotHermitianError,
    SingularQuorumError,
    Spin,
    build_generator,
    build_quorum,
    default_config,
    hermitian_eigendecomposition,
    hermiticity_deviation,
    propagate_exact,
    random_density_matrix,
    rho_to_pvec,
    spin_operators,
)
from evspin.quorum import QuorumConfig, _hermitian_coordinates, _hermitian_from_coordinates

EPS = np.finfo(float).eps


def random_hermitian(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


class TestHermitianEigendecomposition:
    def test_identity(self):
        w, v = hermitian_eigendecomposition(np.eye(2))
        np.testing.assert_allclose(w, [1.0, 1.0])
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        w, v = hermitian_eigendecomposition(np.diag([-0.5, 0.5]))
        np.testing.assert_allclose(w, [-0.5, 0.5])
        # eigenvectors are permutation of identity columns (up to phase)
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-12)

    def test_pauli_x_like(self):
        # characteristic polynomial of [[0, 1/2], [1/2, 0]] is l^2 - 1/4
        w, _ = hermitian_eigendecomposition(np.array([[0.0, 0.5], [0.5, 0.0]]))
        np.testing.assert_allclose(w, [-0.5, 0.5], atol=1e-14)

    def test_not_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("dim", [1, 2, 5, 13, 21])
    def test_reconstruction_and_unitarity(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            a = random_hermitian(dim, rng)
            w, v = hermitian_eigendecomposition(a)
            assert np.all(np.diff(w) >= 0)
            assert np.max(np.abs(a @ v - v * w)) < 1e-10
            assert np.max(np.abs(a - (v * w) @ v.conj().T)) < 1e-10
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10

    @pytest.mark.parametrize("dim", [1, 3, 11])
    def test_stack_matches_separate_calls_bitwise(self, dim):
        rng = np.random.default_rng(100 + dim)
        stack = np.array([random_hermitian(dim, rng) for _ in range(7)])
        w, v = hermitian_eigendecomposition(stack)
        assert w.shape == (7, dim) and v.shape == (7, dim, dim)
        for k in range(7):
            wk, vk = hermitian_eigendecomposition(stack[k])
            assert np.array_equal(w[k], wk)
            assert np.array_equal(v[k], vk)

    def test_stack_with_one_non_hermitian_member_rejected(self):
        rng = np.random.default_rng(7)
        stack = np.array([random_hermitian(4, rng) for _ in range(5)])
        stack[3, 0, 1] += 1e-9
        with pytest.raises(NotHermitianError):
            hermitian_eigendecomposition(stack)

    def test_stack_with_one_non_finite_member_rejected(self):
        rng = np.random.default_rng(8)
        stack = np.array([random_hermitian(4, rng) for _ in range(5)])
        stack[2, 1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_eigendecomposition(stack)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(DimensionMismatchError):
            hermitian_eigendecomposition(np.zeros(shape))


class TestHermiticityDeviation:
    def test_stack_compares_each_member_with_its_own_adjoint(self):
        # (3, 3, 3): reversing every axis would compare entries of different
        # members; only member 1 is non-Hermitian, off by 0.25 at (0, 2).
        rng = np.random.default_rng(9)
        stack = np.array([random_hermitian(3, rng) for _ in range(3)])
        assert hermiticity_deviation(stack) == 0.0
        stack[1, 0, 2] += 0.25
        assert hermiticity_deviation(stack) == 0.25

    def test_stack_of_other_length(self):
        rng = np.random.default_rng(10)
        stack = np.array([random_hermitian(3, rng) for _ in range(5)])
        assert hermiticity_deviation(stack) == 0.0
        stack[4, 2, 1] += 0.5j
        assert hermiticity_deviation(stack) == 0.5


class TestDualSolve:
    """The duals as the inverse of the square real quorum matrix.

    T[n, a] = Tr[Q_n B_a] in the real orthonormal Hermitian basis B_a; the
    duals' coordinates in the same basis must be (2s+1) T^{-1}.
    """

    def test_real_basis_orthonormal(self):
        for dim in range(1, 12):
            basis = _hermitian_from_coordinates(np.eye(dim * dim), dim)
            assert hermiticity_deviation(basis) == 0.0
            overlaps = np.einsum("aij,bji->ab", basis, basis)
            assert np.max(np.abs(overlaps - np.eye(dim * dim))) <= 2 * EPS, dim

    def test_coordinates_are_traces_against_the_basis(self):
        for dim in (1, 2, 5, 11):
            rng = np.random.default_rng(20 + dim)
            a = np.array([random_hermitian(dim, rng) for _ in range(3)])
            basis = _hermitian_from_coordinates(np.eye(dim * dim), dim)
            traces = np.einsum("kij,aji->ka", a, basis)
            coords = _hermitian_coordinates(a)
            assert coords.dtype == float
            assert np.max(np.abs(coords - traces.real)) <= 8 * EPS * np.max(np.abs(a)), dim
            assert np.max(np.abs(_hermitian_from_coordinates(coords, dim) - a)) \
                <= 4 * EPS * np.max(np.abs(a)), dim

    def test_duals_invert_quorum_matrix(self, quorum_for):
        # A backward-stable inverse X of T leaves |T X - I| <~ N kappa(T) eps
        # (see build_quorum); the duals hold d X.  Duals solved from the Gram
        # matrix instead exceed this bound at 2s = 7, 9 and 10.
        for two_s in range(11):
            q = quorum_for(two_s)
            t = _hermitian_coordinates(q.projectors)
            assert np.max(np.abs(t @ t.T - q.gram)) <= q.size * EPS, two_s
            coefficients = _hermitian_coordinates(q.duals).T
            residual = np.max(np.abs(t @ coefficients - q.dim * np.eye(q.size)))
            assert residual <= q.size * q.dim * np.linalg.cond(t) * EPS, two_s

    def test_duplicated_direction_singular(self):
        # Cone 1 repeats cone 0 at 2s = 4: five directions appear twice.
        base = default_config(Spin(4))
        cones = (base.cone_angles[0],) + base.cone_angles[:1] + base.cone_angles[2:]
        offsets = (base.azimuth_offsets[0],) + base.azimuth_offsets[:1] + base.azimuth_offsets[2:]
        with pytest.raises(SingularQuorumError):
            build_quorum(QuorumConfig(Spin(4), cones, offsets))

    def test_failed_inverse_is_singular_quorum_error(self, monkeypatch):
        def singular(_a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(SingularQuorumError, match="quorum matrix is singular"):
            build_quorum(default_config(Spin(2)))


class TestExpmReal:
    """The real exponential exp(t M) behind method "exact-expm".

    It is applied through the generator's certified eigenbasis by
    ``propagate_exact``; these are its contracts on the flow.
    """

    def test_zero_generator_exact(self, quorum_for):
        q = quorum_for(2)
        gen = build_generator(np.zeros((3, 3)), q)
        p0 = rho_to_pvec(random_density_matrix(3, np.random.default_rng(1)), q)
        assert np.array_equal(propagate_exact(gen, p0, 1.7).values, p0.values)

    def test_zero_time_exact(self, quorum_for):
        q = quorum_for(3)
        rng = np.random.default_rng(1)
        gen = build_generator(random_hermitian(4, rng), q)
        p0 = rho_to_pvec(random_density_matrix(4, rng), q)
        assert np.array_equal(propagate_exact(gen, p0, 0.0).values, p0.values)

    @pytest.mark.parametrize("omega,t", [(1.0, 0.3), (2.5, -1.2), (0.7, 4.0)])
    def test_planar_rotation(self, quorum_for, omega, t):
        # s = 1/2, H = omega sz: the Bloch vector r turns about z by omega t,
        # and P_n = (1 + n . r) / 2 for the unit vector n of direction n.
        q = quorum_for(1)
        gen = build_generator(omega * np.asarray(spin_operators(Spin(1)).sz), q)
        r0 = np.array([0.6, -0.2, 0.3])
        sigma = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                 np.array([[1, 0], [0, -1]])]
        rho0 = (np.eye(2) + sum(r * s for r, s in zip(r0, sigma))) / 2
        c, s = np.cos(omega * t), np.sin(omega * t)
        r_t = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ r0
        units = np.array([d.unit_vector for d in q.directions])
        pt = propagate_exact(gen, rho_to_pvec(rho0, q), t)
        np.testing.assert_allclose(pt.values, (1.0 + units @ r_t) / 2.0, atol=1e-12)

    def test_group_property(self, quorum_for):
        q = quorum_for(4)
        rng = np.random.default_rng(2)
        gen = build_generator(random_hermitian(5, rng), q)
        p0 = rho_to_pvec(random_density_matrix(5, rng), q)
        for t1, t2 in [(0.5, 0.25), (3.0, 7.0), (-4.0, 9.5)]:
            lhs = propagate_exact(gen, p0, t1 + t2)
            rhs = propagate_exact(gen, propagate_exact(gen, p0, t1), t2)
            assert np.max(np.abs(lhs.values - rhs.values)) < 1e-9
