"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value is either exact, produced by an
independent closed form, or cross-checked against direct density-matrix
propagation; nothing is calibrated against the code under test.
"""

import json
import math
import time

import numpy as np

from evspin import (
    Spin,
    bohr_spectrum,
    build_generator,
    convex_mix,
    coherent_state,
    Direction,
    fixed_points,
    propagate_exact,
    propagate_grid,
    pure_state_density,
    random_density_matrix,
    random_hermitian,
    rho_to_pvec,
    pvec_to_rho,
    spin_operators,
)
from evspin.cli import main
from evspin.dynamics import _lexsorted

HALF_INTEGER_RANGE = list(range(0, 11))  # two_s values for "all s <= 5"

def report(number, name, detail):
    print(f"[criterion {number:02d}] {name}: PASS ({detail})")

class TestAcceptance:
    def test_c01_duality(self, quorum_for):
        started = time.monotonic()
        worst = 0.0
        for two_s in (0, 1, 2, 3, 4, 5, 10):
            q = quorum_for(two_s)
            delta = np.einsum("nij,mji->nm", q.projectors, q.duals) / q.dim
            worst = max(worst, float(np.max(np.abs(delta - np.eye(q.size)))))
        elapsed = time.monotonic() - started
        assert worst < 1e-9
        assert elapsed < 10.0
        report(1, "duality", f"max residual {worst:.2e}, {elapsed:.1f}s")

    def test_c02_round_trip(self, quorum_for):
        worst = 0.0
        for two_s in HALF_INTEGER_RANGE:
            q = quorum_for(two_s)
            rng = np.random.default_rng(200 + two_s)
            for _ in range(100):
                rho = random_density_matrix(q.dim, rng)
                rho_back, _ = pvec_to_rho(rho_to_pvec(rho, q))
                worst = max(worst, float(np.max(np.abs(rho_back - rho))))
        assert worst < 1e-9
        report(2, "round-trip reconstruction", f"max entry deviation {worst:.2e}")

    def test_c03_probability_bounds(self, quorum_for):
        worst_bounds = 0.0
        worst_norm = 0.0
        for two_s in HALF_INTEGER_RANGE:
            q = quorum_for(two_s)
            rng = np.random.default_rng(300 + two_s)
            for _ in range(100):
                p = rho_to_pvec(random_density_matrix(q.dim, rng), q)
                worst_bounds = max(worst_bounds,
                                   float(-p.values.min()), float(p.values.max() - 1.0))
                worst_norm = max(worst_norm, abs(p.normalization - 1.0))
                total = float(p.values.sum())
                if two_s == 0:
                    # single commuting projector: the sum closes the bound
                    assert abs(total - 1.0) < 1e-12
                else:
                    assert 0.0 < total < q.size
        assert worst_bounds <= 1e-10
        assert worst_norm < 1e-10
        report(3, "probability bounds", f"bound excess {worst_bounds:.2e}, "
                                        f"|e.P - 1| max {worst_norm:.2e}")

    def test_c04_generator_realness(self, quorum_for):
        worst = 0.0
        for two_s in HALF_INTEGER_RANGE:
            q = quorum_for(two_s)
            rng = np.random.default_rng(400 + two_s)
            for _ in range(50):
                gen = build_generator(random_hermitian(q.dim, rng), q)
                worst = max(worst, gen.imag_residue)
        assert worst < 1e-10
        report(4, "generator realness", f"max imaginary residue {worst:.2e}")

    def test_c05_conservation(self, quorum_for):
        worst_null = 0.0
        worst_drift = 0.0
        for two_s in HALF_INTEGER_RANGE:
            q = quorum_for(two_s)
            rng = np.random.default_rng(500 + two_s)
            raw = q.dual_traces * q.dim
            for _ in range(10):
                gen = build_generator(random_hermitian(q.dim, rng), q)
                worst_null = max(worst_null, float(np.max(np.abs(raw @ gen.matrix))))
            if two_s == 0:
                continue
            gen = build_generator(random_hermitian(q.dim, rng), q)
            norm = float(np.linalg.norm(gen.matrix, 2))
            times = np.linspace(0.0, 30.0 / norm, 100)
            p0 = rho_to_pvec(random_density_matrix(q.dim, rng), q)
            trajectory = propagate_grid(gen, p0, times)
            worst_drift = max(worst_drift, trajectory.normalization_drift)
        assert worst_null < 1e-9
        assert worst_drift < 1e-8
        report(5, "conservation", f"max |e^T M| {worst_null:.2e}, "
                                  f"max e.P drift {worst_drift:.2e}")

    def test_c06_oracle_equivalence(self, quorum_for):
        started = time.monotonic()
        worst = 0.0
        for two_s in (1, 2, 4):
            q = quorum_for(two_s)
            rng = np.random.default_rng(600 + two_s)
            for _ in range(3):
                h = random_hermitian(q.dim, rng)
                rho0 = random_density_matrix(q.dim, rng)
                gen = build_generator(h, q)
                trajectory = propagate_grid(gen, rho_to_pvec(rho0, q),
                                            np.linspace(0.0, 10.0, 100), oracle=rho0)
                worst = max(worst, float(np.max(trajectory.oracle_dev)))
        elapsed = time.monotonic() - started
        assert worst < 1e-7
        assert elapsed < 30.0
        report(6, "two-route equivalence", f"max deviation {worst:.2e}, {elapsed:.1f}s")

    def test_c07_fixed_points(self, quorum_for):
        import warnings
        worst = 0.0
        for two_s in (1, 2, 3, 4):
            q = quorum_for(two_s)
            rng = np.random.default_rng(700 + two_s)
            h = random_hermitian(q.dim, rng)
            gen = build_generator(h, q)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # degeneracy would be a failure here
                points = fixed_points(h, q)
            assert len(points) == two_s + 1
            for p in points:
                worst = max(worst, float(np.max(np.abs(gen.matrix @ p.values))))
        assert worst < 1e-9
        report(7, "fixed points", f"count 2s+1 verified, max |M P| {worst:.2e}")

    def test_c08_bohr_spectrum(self, quorum_for):
        worst = 0.0
        for two_s in range(0, 7):
            q = quorum_for(two_s)
            rng = np.random.default_rng(800 + two_s)
            for _ in range(5):
                gen = build_generator(random_hermitian(q.dim, rng), q)
                computed = _lexsorted(np.linalg.eigvals(gen.matrix))
                expected = bohr_spectrum(gen.h_eigenvalues)
                worst = max(worst, float(np.max(np.abs(computed - expected))))
        assert worst < 1e-8
        report(8, "Bohr spectrum", f"max multiset deviation {worst:.2e}")

    def test_c09_convexity(self, quorum_for):
        q = quorum_for(2)
        rng = np.random.default_rng(900)
        gen = build_generator(random_hermitian(q.dim, rng), q)
        worst = 0.0
        for _ in range(20):
            pa = rho_to_pvec(random_density_matrix(q.dim, rng), q)
            pb = rho_to_pvec(random_density_matrix(q.dim, rng), q)
            lam = float(rng.random())
            t = float(4.0 * rng.random())
            lhs = propagate_exact(gen, convex_mix(pa, pb, lam), t)
            rhs = convex_mix(propagate_exact(gen, pa, t), propagate_exact(gen, pb, t), lam)
            worst = max(worst, float(np.max(np.abs(lhs.values - rhs.values))))
        assert worst < 1e-9
        report(9, "convexity commutes with flow", f"max deviation {worst:.2e}")

    def test_c10_gram_positive_definite(self, quorum_for):
        worst_cond = 0.0
        for two_s in HALF_INTEGER_RANGE:
            q = quorum_for(two_s)
            min_eig, condition = q.min_gram_eigenvalue, q.condition_number
            assert min_eig > 0.0
            assert condition < 1e8
            worst_cond = max(worst_cond, condition)
        report(10, "Gram positive definiteness",
               f"all s <= 5 positive definite, worst condition {worst_cond:.2e}")

    def test_c11_rk4_order(self, quorum_for):
        q = quorum_for(1)
        omega = 1.0
        gen = build_generator(omega * np.asarray(spin_operators(Spin(1)).sz), q)
        state = coherent_state(Spin(1), Direction(math.pi / 2, 0.0))
        p0 = rho_to_pvec(pure_state_density(state.amplitudes), q)
        t_end = 2.0
        reference = propagate_exact(gen, p0, t_end).values
        errors = []
        for substeps in (8, 16, 32, 64):
            trajectory = propagate_grid(gen, p0, np.array([0.0, t_end]),
                                        method="rk4", substeps=substeps)
            errors.append(float(np.max(np.abs(trajectory.values[-1] - reference))))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        assert min(orders) >= 3.8
        report(11, "rk4 convergence order", f"measured orders {[f'{o:.2f}' for o in orders]}")

    def test_c12_cli_determinism(self, tmp_path):
        cfg = {
            "two_s": 2,
            "hamiltonian": {"linear": [0.4, 0.0, 1.0],
                            "quadratic": [[0, 0, 0], [0, 0, 0], [0, 0, 0.3]]},
            "initial_state": {"random_pure": {"seed": 2024}},
            "time_grid": {"t_start": 0.0, "t_end": 5.0, "steps": 40},
            "method": "exact-expm",
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(cfg), encoding="utf-8")
        outputs = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            assert main(["evolve", "--config", str(config_path),
                         "--oracle", "--out", str(out)]) == 0
            outputs.append((out.read_bytes(),
                            (tmp_path / (name + ".summary.json")).read_bytes()))
        assert outputs[0] == outputs[1]
        report(12, "CLI determinism", "repeated runs byte-identical (table and summary)")
