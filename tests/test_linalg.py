import numpy as np
import pytest

from evspin import (
    NotHermitianError,
    SingularMatrixError,
    Spin,
    build_generator,
    hermitian_eigendecomposition,
    propagate_exact,
    random_density_matrix,
    rho_to_pvec,
    solve_spd,
    spin_operators,
)


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


class TestSolveSpd:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(solve_spd(np.eye(2), b), b)

    def test_diagonal(self):
        x = solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_random_spd_residual(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((9, 9))
        g = a @ a.T + 9 * np.eye(9)
        b = rng.standard_normal((9, 4))
        x = solve_spd(g, b)
        assert np.max(np.abs(g @ x - b)) < 1e-10 * np.max(np.abs(b))

    def test_complex_rhs(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((5, 5))
        g = a @ a.T + 5 * np.eye(5)
        b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        x = solve_spd(g, b)
        assert np.max(np.abs(g @ x - b)) < 1e-10 * np.max(np.abs(b))

    def test_not_positive_definite(self):
        with pytest.raises(SingularMatrixError) as info:
            solve_spd(np.diag([1.0, -1.0]), np.ones(2))
        assert info.value.condition_estimate >= 1.0

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_spd(np.ones((3, 3)), np.ones(3))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            solve_spd(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))


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
