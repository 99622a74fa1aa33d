import dataclasses
import math
import warnings

import numpy as np
import pytest

from evspin import (
    DimensionMismatchError,
    Direction,
    InvariantViolationError,
    LambdaOutOfRangeError,
    NotHermitianError,
    PVector,
    Spin,
    build_quorum,
    coherent_state,
    convex_mix,
    expand_operator,
    expectation,
    maximally_mixed,
    pure_state_density,
    pvec_to_rho,
    random_density_matrix,
    random_hermitian,
    rho_to_pvec,
    spin_operators,
)
from evspin.quorum import QuorumConfig


class TestRhoToPvec:
    def test_maximally_mixed(self, quorum_for):
        for two_s in (0, 1, 2, 5):
            q = quorum_for(two_s)
            p = rho_to_pvec(maximally_mixed(q.dim), q)
            np.testing.assert_allclose(p.values, 1.0 / q.dim, atol=1e-14)
            assert abs(p.normalization - 1.0) < 1e-12

    def test_quorum_projector_gives_unit_probability(self, quorum_for):
        q = quorum_for(2)
        n0 = 4
        p = rho_to_pvec(q.projectors[n0], q)
        assert abs(p.values[n0] - 1.0) < 1e-12
        others = np.delete(p.values, n0)
        assert np.all(others < 1.0)
        assert np.all(others > 0.0)

    def test_random_state_bounds(self, quorum_for):
        q = quorum_for(2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rho_to_pvec(random_density_matrix(q.dim, rng), q)
            assert np.all(p.values >= -1e-12)
            assert np.all(p.values <= 1 + 1e-12)
            assert abs(p.normalization - 1.0) < 1e-10
            assert 0.0 < p.values.sum() < q.size

    def test_linearity(self, quorum_for):
        q = quorum_for(3)
        rng = np.random.default_rng(6)
        rho_a = random_density_matrix(q.dim, rng)
        rho_b = random_density_matrix(q.dim, rng)
        mixed = rho_to_pvec(0.3 * rho_a + 1.4 * rho_b, q)
        combo = 0.3 * rho_to_pvec(rho_a, q).values + 1.4 * rho_to_pvec(rho_b, q).values
        np.testing.assert_allclose(mixed.values, combo, atol=1e-13)

    def test_non_hermitian_rejected(self, quorum_for):
        q = quorum_for(1)
        with pytest.raises(NotHermitianError):
            rho_to_pvec(np.array([[0.5, 0.4], [0.1, 0.5]]), q)

    def test_dimension_mismatch(self, quorum_for):
        with pytest.raises(DimensionMismatchError):
            rho_to_pvec(np.eye(3) / 3, quorum_for(1))


class TestPvecToRho:
    def test_flat_vector_gives_maximally_mixed(self, quorum_for):
        q = quorum_for(2)
        p = PVector(np.full(q.size, 1.0 / q.dim), q)
        rho, report = pvec_to_rho(p)
        np.testing.assert_allclose(rho, maximally_mixed(q.dim), atol=1e-12)
        assert report.physical

    @pytest.mark.parametrize("two_s", [0, 1, 2, 4])
    def test_round_trip(self, quorum_for, two_s):
        q = quorum_for(two_s)
        rng = np.random.default_rng(two_s + 11)
        for _ in range(10):
            rho = random_density_matrix(q.dim, rng)
            p = rho_to_pvec(rho, q)
            rho_back, report = pvec_to_rho(p)
            assert np.max(np.abs(rho_back - rho)) < 1e-9
            assert report.physical
            np.testing.assert_allclose(rho_to_pvec(rho_back, q).values, p.values,
                                       atol=1e-9)

    def test_unphysical_input_reported_not_rejected(self, quorum_for):
        q = quorum_for(2)
        rng = np.random.default_rng(12)
        p = rho_to_pvec(random_density_matrix(q.dim, rng), q)
        bumped = p.values.copy()
        bumped[0] += 1.5
        bumped /= float(np.dot(q.dual_traces, bumped))  # restore e . P = 1
        rho, report = pvec_to_rho(PVector(bumped, q))
        assert abs(report.e_dot_p - 1.0) < 1e-12
        assert abs(report.trace - 1.0) < 1e-10
        assert report.min_eigenvalue < -1e-6
        assert not report.physical

    @pytest.mark.filterwarnings("ignore::evspin.IllConditionedQuorumWarning")
    @pytest.mark.parametrize("two_s", range(13))
    def test_hermitian_exactly(self, quorum_for, two_s):
        # the scatter of Quorum.operator writes each entry and its conjugate
        q = quorum_for(two_s)
        rng = np.random.default_rng(two_s + 70)
        rho, _ = pvec_to_rho(rho_to_pvec(random_density_matrix(q.dim, rng), q))
        assert np.max(np.abs(rho - rho.conj().T)) == 0.0

    def test_wrong_length_rejected(self, quorum_for):
        with pytest.raises(DimensionMismatchError):
            PVector(np.ones(5), quorum_for(1))


class TestExpandOperator:
    def test_identity_dual_coefficients(self, quorum_for):
        q = quorum_for(2)
        coeffs = expand_operator(np.eye(q.dim), q)
        np.testing.assert_allclose(coeffs.dual, 1.0, atol=1e-12)

    def test_projector_primal_is_scaled_delta(self, quorum_for):
        q = quorum_for(1)
        n0 = 2
        coeffs = expand_operator(q.projectors[n0], q)
        expected = np.zeros(q.size)
        expected[n0] = q.dim
        np.testing.assert_allclose(coeffs.primal, expected, atol=1e-9)

    def test_sz_dual_coefficients_are_cosines(self, quorum_for):
        # <n|sz|n> = s cos(theta): coherent-state expectation of sz
        q = quorum_for(1)
        ops = spin_operators(Spin(1))
        coeffs = expand_operator(ops.sz, q)
        expected = np.array([0.5 * math.cos(d.theta) for d in q.directions])
        np.testing.assert_allclose(coeffs.dual, expected, atol=1e-12)

    def test_reconstruction_identities(self, quorum_for):
        q = quorum_for(3)
        rng = np.random.default_rng(13)
        a = random_hermitian(q.dim, rng)
        coeffs = expand_operator(a, q)
        recon_primal = np.einsum("n,nij->ij", coeffs.primal, q.projectors) / q.dim
        recon_dual = np.einsum("n,nij->ij", coeffs.dual, q.duals) / q.dim
        assert np.max(np.abs(recon_primal - a)) < 1e-9
        assert np.max(np.abs(recon_dual - a)) < 1e-9

    @pytest.mark.filterwarnings("ignore::evspin.IllConditionedQuorumWarning")
    @pytest.mark.parametrize("two_s", range(13))
    def test_primal_matches_dual_contraction(self, quorum_for, two_s):
        # Reference: Tr[A dual_n] summed over the N = d^2 entries, whose
        # absolute values add to at most N max|A| D_n (D_n = max|dual_n|).
        # expand_operator sums d T^{-1}[a, n] x_a over the N coordinates x of
        # A; |x_a| <= sqrt(2) max|A| and d |T^{-1}[a, n]| <= sqrt(2) D_n, so
        # those add to at most 2 N max|A| D_n.  With rounding growing like the
        # square root of the N terms, each sum is off by about d eps times
        # its magnitude, and the two differ by at most 3 d N eps max|A| D_n.
        q = quorum_for(two_s)
        rng = np.random.default_rng(two_s + 80)
        a = random_density_matrix(q.dim, rng)
        reference = np.einsum("ij,nji->n", a, q.duals)
        bound = (3 * q.dim * q.size * np.finfo(float).eps * np.max(np.abs(a))
                 * np.max(np.abs(q.duals), axis=(1, 2)))
        primal = expand_operator(a, q).primal
        assert np.all(np.abs(primal - reference) <= bound)

    @pytest.mark.parametrize("two_s", [8, 10])
    def test_scaled_operator_accepted(self, quorum_for, two_s):
        # the reconstruction error is linear in A, and so is the bound
        q = quorum_for(two_s)
        big = 1000 * spin_operators(Spin(two_s)).sz
        north = np.zeros((q.dim, q.dim), dtype=complex)
        north[0, 0] = 1.0
        value = expectation(expand_operator(big, q), rho_to_pvec(north, q))
        assert abs(value - 1000 * two_s / 2) < 1e-9 * 1000 * two_s / 2

    @pytest.mark.filterwarnings("ignore::evspin.IllConditionedQuorumWarning")
    @pytest.mark.parametrize("name", ["sx", "sy", "sz"])
    def test_spin_operators_accepted_at_2s_12(self, quorum_for, name):
        # Duals from inverting the whole T failed the unchanged bound
        # 1e-9 max(1, max|A|) here: sx by 5.8e-9 against 3.2e-9 on one BLAS thread.
        expand_operator(np.asarray(getattr(spin_operators(Spin(12)), name)), quorum_for(12))

    def test_perturbed_inverse_fails_reconstruction_check(self, quorum_for):
        q = quorum_for(2)
        perturbed = q.inverse.copy()
        perturbed[0, 0] += 1e-6
        with pytest.raises(InvariantViolationError, match="operator reconstruction error"):
            expand_operator(random_hermitian(q.dim, np.random.default_rng(15)),
                            dataclasses.replace(q, inverse=perturbed))

    def test_non_hermitian_rejected(self, quorum_for):
        with pytest.raises(NotHermitianError):
            expand_operator(np.array([[0.0, 1.0], [0.0, 0.0]]), quorum_for(1))

    def test_overflowing_operator_fails_reconstruction_check(self, quorum_for):
        # A = 1e308 sx is finite, but its primal coefficients overflow and the
        # reconstruction error is NaN, which "err > bound" would pass; the
        # check reports it, so numpy warns of nothing
        a = 1e308 * np.asarray(spin_operators(Spin(1)).sx)
        q = quorum_for(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolationError, match="reconstruction error nan"):
                expand_operator(a, q)


class TestExpectation:
    def test_identity_normalization(self, quorum_for):
        q = quorum_for(2)
        rng = np.random.default_rng(14)
        coeffs = expand_operator(np.eye(q.dim), q)
        p = rho_to_pvec(random_density_matrix(q.dim, rng), q)
        assert abs(expectation(coeffs, p) - 1.0) < 1e-10

    def test_sz_on_north_pole(self, quorum_for):
        q = quorum_for(4)
        ops = spin_operators(Spin(4))
        coeffs = expand_operator(ops.sz, q)
        rho = np.zeros((q.dim, q.dim), dtype=complex)
        rho[0, 0] = 1.0
        p = rho_to_pvec(rho, q)
        assert abs(expectation(coeffs, p) - 2.0) < 1e-10

    def test_sx_on_equatorial_coherent_state(self, quorum_for):
        # <n|s|n> = s n: for s = 1 pointing along x the sx expectation is 1
        q = quorum_for(2)
        ops = spin_operators(Spin(2))
        state = coherent_state(Spin(2), Direction(math.pi / 2, 0.0))
        p = rho_to_pvec(pure_state_density(state.amplitudes), q)
        coeffs = expand_operator(ops.sx, q)
        assert abs(expectation(coeffs, p) - 1.0) < 1e-10

    @pytest.mark.parametrize("two_s", [1, 2, 4])
    def test_matches_trace(self, quorum_for, two_s):
        q = quorum_for(two_s)
        rng = np.random.default_rng(two_s + 21)
        for _ in range(100):
            a = random_hermitian(q.dim, rng)
            rho = random_density_matrix(q.dim, rng)
            value = expectation(expand_operator(a, q), rho_to_pvec(rho, q))
            assert abs(value - np.trace(a @ rho).real) < 1e-10


class TestConvexMix:
    def _two_states(self, q, seed):
        rng = np.random.default_rng(seed)
        rho_a = random_density_matrix(q.dim, rng)
        rho_b = random_density_matrix(q.dim, rng)
        return rho_a, rho_b

    def test_endpoints(self, quorum_for):
        q = quorum_for(2)
        rho_a, rho_b = self._two_states(q, 31)
        pa, pb = rho_to_pvec(rho_a, q), rho_to_pvec(rho_b, q)
        np.testing.assert_array_equal(convex_mix(pa, pb, 0.0).values, pa.values)
        np.testing.assert_array_equal(convex_mix(pa, pb, 1.0).values, pb.values)

    def test_matches_state_mixing(self, quorum_for):
        q = quorum_for(2)
        rho_a, rho_b = self._two_states(q, 32)
        pa, pb = rho_to_pvec(rho_a, q), rho_to_pvec(rho_b, q)
        mixed = convex_mix(pa, pb, 0.5)
        direct = rho_to_pvec((rho_a + rho_b) / 2, q)
        np.testing.assert_allclose(mixed.values, direct.values, atol=1e-12)

    def test_lambda_out_of_range(self, quorum_for):
        q = quorum_for(1)
        rho_a, rho_b = self._two_states(q, 33)
        pa, pb = rho_to_pvec(rho_a, q), rho_to_pvec(rho_b, q)
        with pytest.raises(LambdaOutOfRangeError):
            convex_mix(pa, pb, 1.2)

    def test_different_quorums_rejected(self, quorum_for):
        qa, qb = quorum_for(1), build_quorum(
            QuorumConfig(Spin(1), (0.4, 2.8), (0.0, 1.0)))
        pa = rho_to_pvec(maximally_mixed(2), qa)
        pb = rho_to_pvec(maximally_mixed(2), qb)
        with pytest.raises(DimensionMismatchError):
            convex_mix(pa, pb, 0.5)


class TestSumApproachesUpperBound:
    def test_clustered_directions_push_sum_up(self):
        # all cones squeezed toward the pole: for the north-pole coherent
        # state every P_n approaches 1 and the sum approaches (2s+1)^2
        spin = Spin(2)
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        sums = []
        for spread in (1.2, 0.4):
            cones = tuple(spread * (k + 1) / 3 for k in range(3))
            offsets = tuple(k * math.pi / 3 for k in range(3))
            q = build_quorum(QuorumConfig(spin, cones, offsets))
            sums.append(float(rho_to_pvec(rho, q).values.sum()))
        assert sums[1] > sums[0]
        assert sums[1] > 0.9 * spin.quorum_size
        assert sums[1] < spin.quorum_size
