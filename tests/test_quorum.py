import math
import warnings

import numpy as np
import pytest

from evspin import (
    IllConditionedQuorumWarning,
    InvariantViolationError,
    Spin,
    SingularQuorumError,
    build_quorum,
    coherent_state,
    default_config,
    quorum_from_document,
    quorum_to_document,
    random_hermitian,
)
import evspin.quorum as quorum_module
from evspin.quorum import QuorumConfig


class TestDefaultConfig:
    def test_spin_zero(self):
        cfg = default_config(Spin(0))
        assert cfg.cone_angles == (math.pi / 2,)
        assert cfg.azimuth_offsets == (0.0,)

    def test_spin_half(self):
        cfg = default_config(Spin(1))
        np.testing.assert_allclose(cfg.cone_angles,
                                   (0.34816602127296103, 2.7934266323168324))
        np.testing.assert_allclose(cfg.azimuth_offsets, (0.0, math.pi / 2))

    def test_spin_one(self):
        cfg = default_config(Spin(2))
        np.testing.assert_allclose(
            cfg.cone_angles,
            (0.34816602127296103, math.pi / 2, 2.7934266323168324))
        np.testing.assert_allclose(cfg.azimuth_offsets,
                                   (0.0, math.pi / 3, 2 * math.pi / 3))

    def test_cone_angles_distinct_and_interior(self):
        for two_s in range(11):
            cfg = default_config(Spin(two_s))
            angles = np.asarray(cfg.cone_angles)
            assert np.all(angles > 0) and np.all(angles < math.pi)
            assert np.unique(angles).size == angles.size


class TestConfigValidation:
    def test_wrong_count(self):
        with pytest.raises(ValueError):
            QuorumConfig(Spin(2), (0.3, 0.6), (0.0, 0.0))

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            QuorumConfig(Spin(0), (0.0,), (0.0,))

    def test_offset_range(self):
        with pytest.raises(ValueError):
            QuorumConfig(Spin(0), (1.0,), (7.0,))


class TestBuildQuorum:
    def test_scalar_case(self, quorum_for):
        q = quorum_for(0)
        assert q.size == 1
        np.testing.assert_allclose(q.gram, [[1.0]])
        np.testing.assert_allclose(q.duals[0], [[1.0]])
        np.testing.assert_allclose(q.dual_traces, [1.0])

    def test_layout_cone_major(self, quorum_for):
        q = quorum_for(2)
        d = q.dim
        for n, direction in enumerate(q.directions):
            k, j = divmod(n, d)
            assert direction.theta == q.config.cone_angles[k]
            expected_phi = math.fmod(q.config.azimuth_offsets[k] + 2 * math.pi * j / d,
                                     2 * math.pi)
            assert abs(direction.phi - expected_phi) < 1e-15

    def test_ring_rotation_structure(self, quorum_for):
        # each cone's azimuth set is invariant under a shift by 2*pi/(2s+1):
        # rotating maps point j to point j+1 (cyclically)
        q = quorum_for(3)
        d = q.dim
        step = 2 * math.pi / d
        for k in range(d):
            phis = [q.directions[k * d + j].phi for j in range(d)]
            for j in range(d):
                rotated = math.fmod(phis[j] + step, 2 * math.pi)
                assert abs(rotated - phis[(j + 1) % d]) < 1e-12

    def test_projectors_are_rank_one(self, quorum_for):
        q = quorum_for(3)
        idem = np.max(np.abs(np.matmul(q.projectors, q.projectors) - q.projectors))
        assert idem < 1e-12
        traces = np.einsum("nii->n", q.projectors)
        np.testing.assert_allclose(traces, 1.0, atol=1e-12)

    @pytest.mark.parametrize("two_s", [1, 2, 4])
    def test_gram_closed_form(self, quorum_for, two_s):
        # independent formula: G_{nm} = ((1 + cos Theta_{nm}) / 2)^(2s)
        q = quorum_for(two_s)
        units = np.array([d.unit_vector for d in q.directions])
        cosines = np.clip(units @ units.T, -1.0, 1.0)
        expected = ((1.0 + cosines) / 2.0) ** two_s
        assert np.max(np.abs(q.gram - expected)) < 1e-10

    def test_spin_half_gram_diagonal(self, quorum_for):
        q = quorum_for(1)
        np.testing.assert_allclose(np.diag(q.gram), 1.0, atol=1e-14)
        assert q.min_gram_eigenvalue > 0

    @pytest.mark.parametrize("two_s", range(11))
    def test_duality_and_identity(self, quorum_for, two_s):
        q = quorum_for(two_s)
        d = q.dim
        delta = np.einsum("nij,mji->nm", q.projectors, q.duals) / d
        assert np.max(np.abs(delta - np.eye(q.size))) < 1e-9
        identity = np.einsum("n,nij->ij", q.dual_traces * d, q.projectors)
        assert np.max(np.abs(identity - d * np.eye(d))) < 1e-8

    @pytest.mark.parametrize("two_s", range(11))
    def test_amplitudes_match_per_direction_states(self, quorum_for, two_s):
        # Bit for bit: the duals, and with them the conservation verdicts of
        # build_generator at 2s = 10, follow from these amplitudes.
        q = quorum_for(two_s)
        per_direction = np.array([coherent_state(q.spin, direction).amplitudes
                                  for direction in q.directions])
        assert np.array_equal(q.amplitudes, per_direction)

    @pytest.mark.filterwarnings("ignore::evspin.IllConditionedQuorumWarning")
    @pytest.mark.parametrize("two_s", range(13))
    def test_duals_hermitian(self, quorum_for, two_s):
        # exact by construction of the scatter, so build_quorum checks neither
        q = quorum_for(two_s)
        assert np.max(np.abs(q.duals - q.duals.conj().transpose(0, 2, 1))) == 0.0
        assert np.all(np.einsum("nii->n", q.duals).imag == 0.0)

    @pytest.mark.parametrize("two_s", range(11))
    def test_positive_definite_default(self, quorum_for, two_s):
        q = quorum_for(two_s)
        assert q.min_gram_eigenvalue > 0
        assert q.condition_number < 1e8

    def test_scalar_gram_condition(self, quorum_for):
        q = quorum_for(0)
        assert (q.min_gram_eigenvalue, q.condition_number) == (1.0, 1.0)

    @pytest.mark.filterwarnings("ignore::evspin.IllConditionedQuorumWarning")
    @pytest.mark.parametrize("config", [
        *(default_config(Spin(two_s)) for two_s in range(15)),
        QuorumConfig(Spin(3), (0.3, 1.0, 2.0, 2.9), (0.1, 1.3, 0.2, 4.0)),
        QuorumConfig(Spin(2), (1.0, 1.0001, 2.0), (0.0, 0.5, 1.0))],
        ids=[f"default-{two_s}" for two_s in range(15)] + ["skewed", "near-duplicate"])
    def test_gram_extremes_match_singular_values_of_t(self, config):
        # G's eigenvalues are the squared singular values of T.  Those of the
        # rotation blocks carry a relative error of order eps kappa(T) at the
        # small end, so the extremes must agree with T's within N eps kappa(T);
        # eigenvalues of G itself miss this already at 2s = 10 (4e-10).
        q = build_quorum(config)
        sigma = np.linalg.svd(q.matrix, compute_uv=False)
        bound = q.size * np.finfo(float).eps * sigma[0] / sigma[-1]
        assert abs(q.min_gram_eigenvalue / sigma[-1] ** 2 - 1.0) <= bound
        assert abs(q.condition_number / (sigma[0] / sigma[-1]) ** 2 - 1.0) <= bound

    def test_duplicate_directions_singular(self):
        cfg = QuorumConfig(Spin(1), (1.0, 1.0), (0.5, 0.5))
        with pytest.raises(SingularQuorumError) as info:
            build_quorum(cfg)
        assert info.value.min_eigenvalue < 1e-12

    @pytest.mark.parametrize("value", [0.0, math.nan])
    def test_zero_or_nan_gram_eigenvalue_singular(self, monkeypatch, value):
        # kappa(G) is then inf or NaN: both fail the check, with no numpy warning
        original = np.linalg.svd

        def svd(a, compute_uv=True):
            sigma = original(a, compute_uv=False)
            sigma[0, -1] = value
            return sigma

        monkeypatch.setattr(np.linalg, "svd", svd)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularQuorumError, match="not positive definite") as info:
                build_quorum(default_config(Spin(2)))
        assert not info.value.min_eigenvalue > 0.0

    def test_unnormalized_states_fail_projector_check(self, monkeypatch):
        # |psi|^2 = 1 + 2e-11: Tr Q and Q^2 - Q are off by that much
        original = quorum_module.coherent_amplitudes
        monkeypatch.setattr(quorum_module, "coherent_amplitudes",
                            lambda *args: original(*args) * (1.0 + 1e-11))
        with pytest.raises(InvariantViolationError, match="projector norm deviation"):
            build_quorum(default_config(Spin(2)))

    def test_non_finite_states_fail_projector_check(self, monkeypatch):
        # a NaN norm fails the check as "norm_dev > bound" never would
        original = quorum_module.coherent_amplitudes

        def broken(*args):
            psi = original(*args)
            psi[3, 0] = np.nan
            return psi

        monkeypatch.setattr(quorum_module, "coherent_amplitudes", broken)
        with pytest.raises(InvariantViolationError, match="projector norm deviation"):
            build_quorum(default_config(Spin(2)))

    def test_faulty_scatter_fails_duality_check(self, monkeypatch):
        # the duality check gathers the duals' coordinates from the scattered
        # operators, so a fault in the scatter cannot pass unseen
        original = quorum_module._hermitian_from_coordinates

        def scatter(x, d):
            a = original(x, d)
            a[..., 0, 0] += 1e-6
            return a

        monkeypatch.setattr(quorum_module, "_hermitian_from_coordinates", scatter)
        with pytest.raises(InvariantViolationError, match="duality residual"):
            build_quorum(default_config(Spin(2)))

    def test_perturbed_inverse_fails_identity_check(self, monkeypatch):
        # X -> X + eps v w^T, with sum_{a<d} v_a = 1, moves the traces
        # Tr[dual_n] by d eps w and the identity expansion's coordinates by
        # d eps T^T w, but the duality residual T X - I only by eps (T v) w^T.
        # v = X X^T e / |X^T e|^2, e the identity's coordinates, is the
        # shortest such v under T: |T v| = 1 / |X^T e|.  With w T's leading
        # left singular vector, |T^T w| = sigma_max, the expansion moves
        # about 1400 times as far as duality at 2s = 10.
        original = np.linalg.inv

        def perturbed(t):
            x = original(t)
            d = math.isqrt(t.shape[0])
            e = np.zeros(t.shape[0])
            e[:d] = 1.0
            traces = x.T @ e
            w = np.linalg.svd(t)[0][:, 0]
            return x + 7e-9 * np.outer(x @ traces / (traces @ traces), w)

        monkeypatch.setattr(np.linalg, "inv", perturbed)
        with pytest.raises(InvariantViolationError, match="identity expansion residual"):
            build_quorum(default_config(Spin(10)))

    def test_ill_conditioned_warns(self):
        # two nearly coincident cones: kappa(G) = 9.3e8, above the fixed 1e8
        cfg = QuorumConfig(Spin(2), (1.0, 1.0001, 2.0), (0.0, 0.5, 1.0))
        with pytest.warns(IllConditionedQuorumWarning):
            q = build_quorum(cfg)
        assert q.condition_number > 1e8
        # the default layout at 2s = 10, kappa(G) = 2.7e7, stays below it
        with warnings.catch_warnings():
            warnings.simplefilter("error", IllConditionedQuorumWarning)
            assert build_quorum(default_config(Spin(10))).condition_number < 1e8


class TestProbabilities:
    @pytest.mark.filterwarnings("ignore::evspin.IllConditionedQuorumWarning")
    @pytest.mark.parametrize("two_s", range(13))
    def test_matches_amplitude_sandwich(self, quorum_for, two_s):
        # Both forms add d^2 terms whose absolute values sum to at most
        # d max|X| (the weights |psi_i psi_k| sum to (sum_i |psi_i|)^2 <= d);
        # with rounding growing like the square root of the d^2 terms, each
        # is off by about d eps * d max|X|, and they differ by at most twice that.
        q = quorum_for(two_s)
        d = q.dim
        rng = np.random.default_rng(two_s + 90)
        psi = q.amplitudes
        eps = np.finfo(float).eps
        single = random_hermitian(d, rng)
        stack = np.array([[random_hermitian(d, rng) for _ in range(3)] for _ in range(2)])
        for x in (single, stack):
            p = q.probabilities(x)
            assert p.shape == x.shape[:-2] + (q.size,)
            assert p.dtype == float
            reference = np.einsum("ni,...ij,nj->...n", psi.conj(), x, psi)
            bound = 2 * d * d * eps * float(np.max(np.abs(x)))
            assert np.max(np.abs(p - reference)) <= bound

    @pytest.mark.filterwarnings("ignore::evspin.IllConditionedQuorumWarning")
    @pytest.mark.parametrize("two_s", range(13))
    def test_operator_inverts_probabilities(self, quorum_for, two_s):
        # T's rows are unit vectors (Tr Q_n^2 = 1), so P = T x, with x the
        # coordinates of X and |x| = |X|_F, is off by at most N eps |x| per
        # entry and d N eps |x| in norm.  T^{-1} magnifies that by at most
        # 1 / sigma_min <= kappa(T), as sigma_max >= |T|_F / d = 1; the
        # computed inverse and the product with it add errors of the same
        # order.  So each X returns within 3 kappa(T) d N eps |X|_F.
        q = quorum_for(two_s)
        rng = np.random.default_rng(two_s + 100)
        x = np.array([random_hermitian(q.dim, rng) for _ in range(4)])
        back = q.operator(q.probabilities(x))
        assert back.shape == x.shape
        kappa = math.sqrt(q.condition_number)
        bound = (3 * kappa * q.dim * q.size * np.finfo(float).eps
                 * np.linalg.norm(x, axis=(1, 2)))
        assert np.all(np.max(np.abs(back - x), axis=(1, 2)) <= bound)

    def test_gram_is_t_t_transpose(self, quorum_for):
        q = quorum_for(4)
        assert np.array_equal(q.gram, q.gram.T)
        np.testing.assert_array_equal(q.gram, q.matrix @ q.matrix.T)
        assert not q.matrix.flags.writeable


class TestDocumentRoundTrip:
    def test_round_trip(self, quorum_for):
        q = quorum_for(2)
        doc = quorum_to_document(q)
        rebuilt = quorum_from_document(doc)
        assert rebuilt.config == q.config
        np.testing.assert_allclose(rebuilt.gram, q.gram)
        assert [d.theta for d in rebuilt.directions] == [d.theta for d in q.directions]

    def test_tampered_condition_number_rejected(self, quorum_for):
        import json
        data = json.loads(quorum_to_document(quorum_for(1)))
        data["condition_number"] = 123456.0
        with pytest.raises(ValueError):
            quorum_from_document(json.dumps(data))

    def test_non_finite_directions_rejected(self, quorum_for):
        # NaN fails "not deviation <= 1e-9", where "deviation > 1e-9" passed it
        import json
        data = json.loads(quorum_to_document(quorum_for(2)))
        data["directions"] = [[math.nan, math.nan] for _ in data["directions"]]
        with pytest.raises(ValueError, match="recorded directions do not match"):
            quorum_from_document(json.dumps(data))

    @pytest.mark.parametrize("two_s, value", [(2, 2.9), (2, "2"), (1, True)])
    def test_non_integer_two_s_rejected(self, quorum_for, two_s, value):
        import json
        data = json.loads(quorum_to_document(quorum_for(two_s)))
        data["two_s"] = value
        with pytest.raises(ValueError, match="two_s must be a JSON integer"):
            quorum_from_document(json.dumps(data))

    def test_tampered_directions_rejected(self, quorum_for):
        import json
        data = json.loads(quorum_to_document(quorum_for(1)))
        data["directions"][0][0] += 0.1
        with pytest.raises(ValueError):
            quorum_from_document(json.dumps(data))
