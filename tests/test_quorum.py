import math

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
    settings,
    spin_operators,
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
        ops = spin_operators(q.spin)
        per_direction = np.array([coherent_state(q.spin, direction, ops).amplitudes
                                  for direction in q.directions])
        assert np.array_equal(q.amplitudes, per_direction)

    def test_duals_hermitian(self, quorum_for):
        q = quorum_for(4)
        assert np.max(np.abs(q.duals - q.duals.conj().transpose(0, 2, 1))) == 0.0

    @pytest.mark.parametrize("two_s", range(11))
    def test_positive_definite_default(self, quorum_for, two_s):
        q = quorum_for(two_s)
        assert q.min_gram_eigenvalue > 0
        assert q.condition_number < 1e8

    def test_scalar_gram_condition(self, quorum_for):
        q = quorum_for(0)
        assert (q.min_gram_eigenvalue, q.condition_number) == (1.0, 1.0)

    def test_duplicate_directions_singular(self):
        cfg = QuorumConfig(Spin(1), (1.0, 1.0), (0.5, 0.5))
        with pytest.raises(SingularQuorumError) as info:
            build_quorum(cfg)
        assert info.value.min_eigenvalue < 1e-12

    def test_unnormalized_states_fail_projector_check(self, monkeypatch):
        # |psi|^2 = 1 + 2e-11: Tr Q and Q^2 - Q are off by that much
        original = quorum_module.coherent_amplitudes
        monkeypatch.setattr(quorum_module, "coherent_amplitudes",
                            lambda *args: original(*args) * (1.0 + 1e-11))
        with pytest.raises(InvariantViolationError, match="projector self-check failed"):
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

    def test_ill_conditioned_warns(self, monkeypatch):
        monkeypatch.setattr(settings, "condition_warn_threshold", 10.0)
        with pytest.warns(IllConditionedQuorumWarning):
            build_quorum(default_config(Spin(2)))


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

    def test_tampered_directions_rejected(self, quorum_for):
        import json
        data = json.loads(quorum_to_document(quorum_for(1)))
        data["directions"][0][0] += 0.1
        with pytest.raises(ValueError):
            quorum_from_document(json.dumps(data))
