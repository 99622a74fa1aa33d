import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from evspin.cli import _write_table, main


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "two_s": 1,
        "hamiltonian": {"linear": [0.0, 0.0, 1.0]},
        "initial_state": {"coherent": {"theta": math.pi / 2, "phi": 0.0}},
        "time_grid": {"t_start": 0.0, "t_end": 2 * math.pi, "steps": 20},
        "method": "exact-expm",
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, cfg


def read_table(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return meta, header, np.array(rows)


class TestQuorumCommand:
    def test_report(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["quorum", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# n_points = 4" in out
        assert "duality_residual" in out
        data_lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert data_lines[0] == "n,cone,azimuth,theta,phi"
        assert len(data_lines) == 1 + 4

    def test_duality_residual_small(self, tmp_path):
        path, _ = write_config(tmp_path)
        out = tmp_path / "quorum.csv"
        assert main(["quorum", "--config", str(path), "--out", str(out)]) == 0
        meta, _, rows = read_table(out)
        assert float(meta["duality_residual"]) < 1e-9
        assert float(meta["condition_number"]) < 1e8
        assert rows.shape[0] == 4

    def test_scalar_spin(self, tmp_path):
        path, _ = write_config(tmp_path, two_s=0)
        out = tmp_path / "quorum.csv"
        assert main(["quorum", "--config", str(path), "--out", str(out)]) == 0
        meta, _, rows = read_table(out)
        assert meta["n_points"] == "1"
        assert float(meta["condition_number"]) == 1.0
        assert rows.shape[0] == 1

    def test_degenerate_overrides_exit_3(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path, quorum={"cone_angles": [1.0, 1.0], "azimuth_offsets": [0.0, 0.0]})
        assert main(["quorum", "--config", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_json_lines(self, tmp_path):
        path, _ = write_config(tmp_path)
        out = tmp_path / "quorum.jsonl"
        assert main(["quorum", "--config", str(path), "--format", "json-lines",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        meta = json.loads(lines[0])["meta"]
        assert meta["n_points"] == 4
        assert len(lines) == 5


class TestEvolveCommand:
    def test_header_and_shape(self, tmp_path):
        path, _ = write_config(tmp_path)
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        meta, header, rows = read_table(out)
        assert header == ["t", "P_1", "P_2", "P_3", "P_4", "ePdot", "minP", "maxP", "sumP"]
        assert rows.shape == (21, 9)
        assert meta["two_s"] == "1"
        summary = json.loads((tmp_path / "traj.csv.summary.json").read_text())
        assert summary["n_points"] == 4
        assert summary["normalization"]["max_drift"] < 1e-8

    def test_frozen_dynamics_constant_columns(self, tmp_path):
        path, _ = write_config(tmp_path, hamiltonian={"linear": [0.0, 0.0, 0.0]})
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        _, header, rows = read_table(out)
        for col in range(1, 5):
            assert np.ptp(rows[:, col]) == 0.0

    def test_oracle_column(self, tmp_path):
        path, _ = write_config(tmp_path)
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", str(path), "--oracle", "--out", str(out)]) == 0
        _, header, rows = read_table(out)
        assert header[-1] == "oracle_dev"
        assert rows[:, -1].max() < 1e-8
        summary = json.loads((tmp_path / "traj.csv.summary.json").read_text())
        assert summary["oracle_max_deviation"] < 1e-8

    def test_normalization_column_constant(self, tmp_path):
        path, _ = write_config(tmp_path)
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        _, header, rows = read_table(out)
        eP = rows[:, header.index("ePdot")]
        assert np.max(np.abs(eP - eP[0])) < 1e-8

    def test_determinism(self, tmp_path):
        path, _ = write_config(tmp_path,
                               initial_state={"random_pure": {"seed": 99}})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["evolve", "--config", str(path), "--out", str(a)]) == 0
        assert main(["evolve", "--config", str(path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.summary.json").read_bytes() == \
            (tmp_path / "b.csv.summary.json").read_bytes()

    def test_driven_rk4(self, tmp_path):
        ham = {"linear": [0.0, 0.0, 1.0],
               "drive": {"linear": [0.3, 0.0, 0.0],
                         "envelope": {"shape": "cosine", "amplitude": 1.0, "frequency": 2.0}}}
        path, _ = write_config(tmp_path, hamiltonian=ham, method="rk4")
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        _, header, rows = read_table(out)
        eP = rows[:, header.index("ePdot")]
        assert np.max(np.abs(eP - eP[0])) < 1e-7

    def test_driven_exact_rejected(self, tmp_path, capsys):
        ham = {"linear": [0.0, 0.0, 1.0],
               "drive": {"linear": [0.3, 0.0, 0.0],
                         "envelope": {"shape": "cosine", "frequency": 2.0}}}
        path, _ = write_config(tmp_path, hamiltonian=ham, method="exact-expm")
        assert main(["evolve", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_driven_oracle_rejected(self, tmp_path, capsys):
        ham = {"linear": [0.0, 0.0, 1.0],
               "drive": {"linear": [0.3, 0.0, 0.0],
                         "envelope": {"shape": "cosine", "frequency": 2.0}}}
        path, _ = write_config(tmp_path, hamiltonian=ham, method="rk4")
        assert main(["evolve", "--config", str(path), "--oracle"]) == 2

    def test_rk4_divergence_is_numerical_failure(self, tmp_path, capsys):
        # |h lambda| = 1e4 at 2s = 1, H = 1000 sz, h = 10: far outside
        # rk4's stability region, refused before the first step.
        path, _ = write_config(tmp_path, hamiltonian={"linear": [0.0, 0.0, 1000.0]},
                               time_grid={"t_start": 0.0, "t_end": 400.0, "steps": 40},
                               method="rk4", substeps=1)
        out = tmp_path / "traj.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--config", str(path), "--format", "json-lines",
                         "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: rk4 step h = 10 is outside rk4's "
                              "stability region: h * omega = 10000 exceeds 2 sqrt(2)")
        assert "use substeps >= 3536 (now 1)" in err and err.count("\n") == 1
        assert not out.exists()

    def test_rk4_just_inside_stability_bound(self, tmp_path, capsys):
        # H = 1000 sz, grid gap 0.1: h * omega = 100 / substeps, inside
        # 2 sqrt(2) = 2.828 from substeps = 36 on (h * omega = 2.78).
        def run(substeps):
            path, _ = write_config(tmp_path, hamiltonian={"linear": [0.0, 0.0, 1000.0]},
                                   time_grid={"t_start": 0.0, "t_end": 0.4, "steps": 4},
                                   method="rk4", substeps=substeps)
            out = tmp_path / f"traj{substeps}.csv"
            return main(["evolve", "--config", str(path), "--out", str(out)]), out

        status, out = run(35)
        assert status == 3 and not out.exists()
        assert "use substeps >= 36 (now 35)" in capsys.readouterr().err
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out = run(36)
        assert status == 0
        _, _, rows = read_table(out)
        assert rows.shape[0] == 5 and np.all(np.isfinite(rows))

    def test_field_scaled_with_time_unit_passes(self, tmp_path):
        # H = 1e4 sz over t = 2 pi 1e-4 is H = sz over t = 2 pi in another
        # unit of time; the generator's bounds scale with |H|, so both pass
        for field, t_end in ((1.0, 2 * math.pi), (1e4, 2 * math.pi * 1e-4)):
            path, _ = write_config(tmp_path, two_s=8, hamiltonian={"linear": [0.0, 0.0, field]},
                                   time_grid={"t_start": 0.0, "t_end": t_end, "steps": 20})
            out = tmp_path / "traj.csv"
            assert main(["evolve", "--config", str(path), "--oracle", "--out", str(out)]) == 0
            _, header, rows = read_table(out)
            assert np.max(rows[:, header.index("oracle_dev")]) < 1e-7

    def test_overflowing_field_is_numerical_failure(self, tmp_path, capsys):
        # the generator's residues are NaN at |H| = 2e307, and NaN fails every
        # check; the failure is one line, with no numpy warning before it
        path, _ = write_config(tmp_path, two_s=4, hamiltonian={"linear": [0.0, 0.0, 1e307]})
        out = tmp_path / "traj.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert not out.exists()
        assert not (tmp_path / "traj.csv.summary.json").exists()

    def test_overflowing_hamiltonian_is_config_error(self, tmp_path, capsys):
        # 1e308 sz at 2s = 4 has the entry 2e308, which overflows H itself
        path, _ = write_config(tmp_path, two_s=4, hamiltonian={"linear": [0.0, 0.0, 1e308]})
        out = tmp_path / "traj.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: Hamiltonian has non-finite entries")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("drive", [[1e308, 0.0, 0.0], [1.1e308, 1.1e308, 0.0]])
    def test_overflowing_drive_spectrum_is_numerical_failure(self, tmp_path, capsys, drive):
        # at 2s = 4 both drives have finite entries but an overflowing
        # spectrum (1e308 sx: eigenvalues +-4e308; the second has entries of
        # modulus 1.35e308): the drive's generator names the overflow
        # before any product
        ham = {"linear": [0.0, 0.0, 1.0],
               "drive": {"linear": drive,
                         "envelope": {"shape": "cosine", "amplitude": 0.5, "frequency": 2.0}}}
        path, _ = write_config(tmp_path, two_s=4, hamiltonian=ham, method="rk4")
        out = tmp_path / "traj.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["evolve", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert re.match(r"numerical failure: Hamiltonian spectrum overflows: "
                        r"\|H\| = max \|eps_j\| is (inf|nan)\n", err)
        assert err.count("\n") == 1
        assert not out.exists()

    def test_pvector_initial_state(self, tmp_path):
        path, _ = write_config(tmp_path,
                               initial_state={"pvector": [0.5, 0.5, 0.5, 0.5]})
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        _, header, rows = read_table(out)
        np.testing.assert_allclose(rows[0, 1:5], 0.5)

    def test_json_lines_format(self, tmp_path):
        path, _ = write_config(tmp_path)
        out = tmp_path / "traj.jsonl"
        assert main(["evolve", "--config", str(path), "--format", "json-lines",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert json.loads(lines[0])["meta"]["two_s"] == 1
        record = json.loads(lines[1])
        assert set(record) == {"t", "P", "ePdot", "minP", "maxP", "sumP"}
        assert len(record["P"]) == 4


class TestReconstructCommand:
    def test_maximally_mixed_probabilities(self, tmp_path):
        path, _ = write_config(tmp_path, initial_state={"maximally_mixed": True})
        out = tmp_path / "p.csv"
        assert main(["reconstruct", "--config", str(path), "--out", str(out)]) == 0
        meta, header, rows = read_table(out)
        assert meta["direction"] == "state_to_probabilities"
        np.testing.assert_allclose(rows[:, 1], 0.5, atol=1e-12)

    def test_round_trip_through_cli(self, tmp_path):
        # state -> P via one invocation, P -> state via a second one
        path, _ = write_config(tmp_path, initial_state={"coherent": {"theta": 1.0, "phi": 2.0}})
        pout = tmp_path / "p.csv"
        assert main(["reconstruct", "--config", str(path), "--out", str(pout)]) == 0
        _, _, prows = read_table(pout)
        pvec = prows[:, 1].tolist()
        path2, _ = write_config(tmp_path, name="back.json",
                                initial_state={"pvector": pvec})
        rout = tmp_path / "rho.csv"
        assert main(["reconstruct", "--config", str(path2), "--out", str(rout)]) == 0
        meta, _, rrows = read_table(rout)
        assert meta["physical"] == "true"
        rho = np.zeros((2, 2), dtype=complex)
        for i, j, re, im in rrows:
            rho[int(i), int(j)] = re + 1j * im
        from evspin import Direction, Spin, coherent_state, pure_state_density
        expected = pure_state_density(coherent_state(Spin(1), Direction(1.0, 2.0)).amplitudes)
        assert np.max(np.abs(rho - expected)) < 1e-9

    def test_unphysical_pvector_warns_exit_zero(self, tmp_path, capsys):
        path, _ = write_config(tmp_path,
                               initial_state={"pvector": [1.6, 0.1, 0.1, 0.1]})
        out = tmp_path / "rho.csv"
        assert main(["reconstruct", "--config", str(path), "--out", str(out)]) == 0
        assert "warning" in capsys.readouterr().err
        meta, _, _ = read_table(out)
        assert meta["physical"] == "false"
        assert float(meta["min_eigenvalue"]) < 0


class TestSpectrumCommand:
    def test_driven_config_notes_static_part(self, tmp_path):
        ham = {"linear": [0.0, 0.0, 1.0],
               "drive": {"linear": [0.3, 0.0, 0.0],
                         "envelope": {"shape": "cosine", "frequency": 2.0}}}
        path, _ = write_config(tmp_path, hamiltonian=ham)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
        assert "static part" in out.read_text()

    def test_larmor(self, tmp_path):
        path, _ = write_config(tmp_path)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
        text = out.read_text().splitlines()
        header_idx = next(i for i, l in enumerate(text) if not l.startswith("#"))
        rows = [l.split(",") for l in text[header_idx + 1:]]
        h_rows = [r for r in rows if r[0] == "H"]
        m_rows = [r for r in rows if r[0] == "M"]
        np.testing.assert_allclose(sorted(float(r[2]) for r in h_rows), [-0.5, 0.5])
        m_imag = sorted(float(r[3]) for r in m_rows)
        np.testing.assert_allclose(m_imag, [-1.0, 0.0, 0.0, 1.0], atol=1e-9)


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["quorum", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\n  \"two_s\": ,\n}")
        assert main(["quorum", "--config", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_two_s(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"hamiltonian": {}}))
        assert main(["quorum", "--config", str(path)]) == 2
        assert "two_s" in capsys.readouterr().err

    def test_two_initial_states(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["initial_state"] = {"maximally_mixed": True, "basis": {"mu": 0.5}}
        path.write_text(json.dumps(cfg))
        assert main(["evolve", "--config", str(path)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_random_without_seed(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, initial_state={"random_pure": {}})
        assert main(["evolve", "--config", str(path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_bad_time_grid(self, tmp_path):
        path, _ = write_config(tmp_path, time_grid={"t_start": 1.0, "t_end": 0.0, "steps": 5})
        assert main(["evolve", "--config", str(path)]) == 2
        path, _ = write_config(tmp_path, time_grid={"t_start": 0.0, "t_end": 1.0, "steps": 0})
        assert main(["evolve", "--config", str(path)]) == 2

    def test_time_span_not_finite(self, tmp_path, capsys):
        path, _ = write_config(tmp_path,
                               time_grid={"t_start": -1e308, "t_end": 1e308, "steps": 4})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: time_grid span t_end - t_start must be finite\n")

    def test_bad_method(self, tmp_path):
        path, _ = write_config(tmp_path, method="euler")
        assert main(["evolve", "--config", str(path)]) == 2

    @pytest.mark.parametrize("matrix", [
        {"real": 5},
        {"real": [[0.5, 0.0], [0.0, 0.5]], "imag": 5},
        {"real": [[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]]},
    ], ids=["real-int", "imag-int", "real-three-rows"])
    def test_density_matrix_not_a_matrix(self, tmp_path, capsys, matrix):
        field = "density_matrix.imag" if "imag" in matrix else "density_matrix.real"
        path, _ = write_config(tmp_path, initial_state={"density_matrix": matrix})
        assert main(["evolve", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: field '{field}' must be a 2x2 list of "
                                "lists of numbers\n")

    @pytest.mark.parametrize("command", ["evolve", "reconstruct"])
    @pytest.mark.parametrize("matrix, reason", [
        ({"real": [[2.0, 0.0], [0.0, 0.0]]}, "trace is 2.0, expected 1"),
        ({"real": [[1.5, 0.0], [0.0, -0.5]]}, "negative eigenvalue -5.000e-01"),
        ({"real": [[0.5, 0.0], [0.0, 0.5]], "imag": [[0.0, 0.1], [0.1, 0.0]]},
         "density matrix is not Hermitian"),
    ], ids=["trace-2", "negative-eigenvalue", "not-hermitian"])
    def test_density_matrix_not_a_state(self, tmp_path, capsys, command, matrix, reason):
        path, _ = write_config(tmp_path, initial_state={"density_matrix": matrix})
        out = tmp_path / "table.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"config error: initial_state.density_matrix: {reason}")
        assert not out.exists()

    def test_wrong_pvector_length(self, tmp_path):
        path, _ = write_config(tmp_path, initial_state={"pvector": [1.0, 0.0]})
        assert main(["evolve", "--config", str(path)]) == 2

    @pytest.mark.parametrize("overrides, field", [
        ({"hamiltonian": {"linear": [0.0, 0.0, 1.0],
                          "drive": {"linear": [0.3, 0.0, 0.0],
                                    "envelope": {"shape": "cosine", "amplitude": math.inf,
                                                 "frequency": 2.0}}},
          "method": "rk4"}, "envelope.amplitude"),
        ({"hamiltonian": {"linear": [math.inf, 0.0, 1.0]}}, "hamiltonian.linear[0]"),
        ({"time_grid": {"t_start": 0.0, "t_end": math.nan, "steps": 20}}, "time_grid.t_end"),
        ({"initial_state": {"density_matrix": {"real": [[0.5, 0.0], [0.0, 0.5]],
                                               "imag": [[0.0, -math.inf], [math.inf, 0.0]]}}},
         "density_matrix.imag[1]"),
        # json.load keeps a long integer literal as an int, too large for a float
        ({"hamiltonian": {"linear": [0.0, 0.0, 10**400]}}, "hamiltonian.linear[2]"),
        # and reads a float literal beyond the largest double as inf
        ({"time_grid": {"t_start": 0.0, "t_end": "1e400", "steps": 20}}, "time_grid.t_end"),
    ], ids=["drive-amplitude", "linear", "t_end", "density-matrix", "overflow-int",
            "overflow-float"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, overrides, field):
        path, _ = write_config(tmp_path, **overrides)
        path.write_text(path.read_text().replace('"1e400"', "1e400"))
        out = tmp_path / "traj.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: field '{field}' must be a finite number\n"
        assert not out.exists()


class TestRowFormatting:
    def test_template_matches_format_byte_for_byte(self, tmp_path):
        tiny = np.finfo(float).tiny
        special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, tiny / 3,
                   5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
                   1.0, -1.0, 0.1, 1 / 3, 2.0 ** 52 + 1]
        decades = [sign * 10.0 ** e * m for e in range(-300, 301, 7)
                   for m in (1.0, 1.2345678901234567) for sign in (1.0, -1.0)]
        values = np.array(special + decades).reshape(-1, 2)
        out = tmp_path / "t.csv"
        meta = [(f"v{k}", float(x)) for k, x in enumerate(values.ravel())]
        _write_table(str(out), "csv", meta, [("x", values), ("i", np.arange(len(values)))])
        lines = out.read_text().splitlines()
        assert lines[:len(meta)] == [f"# v{k} = {format(x, '.17e')}"
                                     for k, x in enumerate(values.ravel())]
        assert lines[len(meta)] == "x_1,x_2,i"
        assert lines[len(meta) + 1:] == [f"{format(a, '.17e')},{format(b, '.17e')},{i}"
                                         for i, (a, b) in enumerate(values)]


class TestMiscellaneous:
    def test_scalar_spin_evolve(self, tmp_path):
        # s = 0: one probability, zero generator, everything still works
        path, _ = write_config(tmp_path, two_s=0,
                               initial_state={"maximally_mixed": True})
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", str(path), "--oracle", "--out", str(out)]) == 0
        _, header, rows = read_table(out)
        assert header[1] == "P_1"
        np.testing.assert_allclose(rows[:, 1], 1.0)

    def test_output_paths_from_config(self, tmp_path):
        traj = tmp_path / "from_config.csv"
        summ = tmp_path / "from_config.summary.json"
        path, _ = write_config(tmp_path,
                               output={"trajectory": str(traj), "summary": str(summ)})
        assert main(["evolve", "--config", str(path)]) == 0
        assert traj.exists() and summ.exists()
        assert json.loads(summ.read_text())["method"] == "exact-expm"

    def test_module_entry_point(self, tmp_path):
        path, _ = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "evspin", "quorum", "--config", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "# n_points = 4" in proc.stdout


class TestOutputPaths:
    @pytest.mark.parametrize("command", ["evolve", "quorum"])
    @pytest.mark.parametrize("output, field", [
        ("traj.csv", "field 'output' must be an object"),
        ({"trajectory": 3}, "field 'output.trajectory' must be a path string"),
        ({"summary": ["run.json"]}, "field 'output.summary' must be a path string"),
    ], ids=["not-an-object", "trajectory-not-a-string", "summary-not-a-string"])
    def test_malformed_output_rejected(self, tmp_path, capsys, command, output, field):
        path, _ = write_config(tmp_path, output=output)
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert field in captured.err
        assert captured.out == ""

    def test_out_flag_overrides_config_paths(self, tmp_path):
        traj, summ = tmp_path / "cfg.csv", tmp_path / "cfg.summary.json"
        path, _ = write_config(tmp_path,
                               output={"trajectory": str(traj), "summary": str(summ)})
        out = tmp_path / "flag.csv"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        assert out.exists() and (tmp_path / "flag.csv.summary.json").exists()
        assert not traj.exists() and not summ.exists()

    def test_config_summary_used_as_given(self, tmp_path, capsys):
        summ = tmp_path / "only.summary.json"
        path, _ = write_config(tmp_path, output={"summary": str(summ)})
        assert main(["evolve", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("# config_hash = ")
        assert json.loads(summ.read_text())["n_points"] == 4

    def test_summary_defaults_beside_config_trajectory(self, tmp_path):
        traj = tmp_path / "t.jsonl"
        path, _ = write_config(tmp_path, output={"trajectory": str(traj),
                                                 "format": "json-lines"})
        assert main(["evolve", "--config", str(path)]) == 0
        assert json.loads(traj.read_text().splitlines()[0])["meta"]["n_points"] == 4
        assert (tmp_path / "t.jsonl.summary.json").exists()

    def test_stdout_holds_table_then_summary(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["evolve", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# config_hash = ")
        assert len([l for l in lines[:-1] if not l.startswith("#")]) == 1 + 21
        assert json.loads(lines[-1])["method"] == "exact-expm"

    def test_only_evolve_reads_config_paths(self, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        path, _ = write_config(tmp_path, output={"trajectory": str(traj)})
        assert main(["quorum", "--config", str(path)]) == 0
        assert "# n_points = 4" in capsys.readouterr().out
        assert not traj.exists()


DRIVE = {"linear": [0.3, 0.0, 0.0],
         "envelope": {"shape": "cosine", "amplitude": 1.0, "frequency": 2.0}}
BRANCHES = {
    "quorum-default": ("quorum", {"two_s": 2}, []),
    "quorum-scalar": ("quorum", {"two_s": 0}, []),
    "quorum-override": ("quorum", {"quorum": {"cone_angles": [0.35, 2.79],
                                              "azimuth_offsets": [0.0, 1.57]}}, []),
    "spectrum-static": ("spectrum", {"two_s": 2}, []),
    "spectrum-driven": ("spectrum", {"hamiltonian": {"linear": [0, 0, 1.0], "drive": DRIVE}},
                        []),
    "reconstruct-state": ("reconstruct", {"two_s": 2}, []),
    "reconstruct-physical": ("reconstruct",
                             {"initial_state": {"pvector": [0.5, 0.5, 0.5, 0.5]}}, []),
    "reconstruct-unphysical": ("reconstruct",
                               {"initial_state": {"pvector": [1.6, 0.1, 0.1, 0.1]}}, []),
    "evolve-exact": ("evolve", {"two_s": 2}, []),
    "evolve-oracle": ("evolve", {}, ["--oracle"]),
    "evolve-rk4": ("evolve", {"method": "rk4", "substeps": 3}, []),
    "evolve-driven": ("evolve", {"method": "rk4",
                                 "hamiltonian": {"linear": [0, 0, 1.0], "drive": DRIVE}}, []),
    "evolve-pvector-oracle": ("evolve", {"initial_state": {"pvector": [0.5, 0.5, 0.5, 0.5]}},
                              ["--oracle"]),
}


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


PREAMBLE = ["config_hash", "two_s", "n_points"]
QUORUM_REPORT = ("condition_number", "min_gram_eigenvalue", "duality_residual",
                 "identity_expansion_residual")


class TestCrossFormat:
    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_csv_and_json_lines_hold_one_table(self, tmp_path, branch):
        command, overrides, flags = BRANCHES[branch]
        path, _ = write_config(tmp_path, **overrides)
        text = {}
        for fmt in ("csv", "json-lines"):
            out = tmp_path / f"table.{fmt}"
            assert main([command, "--config", str(path), "--format", fmt,
                         "--out", str(out)] + flags) == 0
            text[fmt] = out.read_text()
        meta, header, rows = parse_csv(text["csv"])
        lines = text["json-lines"].splitlines()
        json_meta = json.loads(lines[0])["meta"]
        assert meta == {key: json.dumps(value) if isinstance(value, list) else str(value)
                        for key, value in json_meta.items()}
        # every table opens with the same preamble, in this order
        assert list(meta)[:3] == PREAMBLE
        if command == "evolve":
            # the summary repeats the preamble, and its quorum block is the
            # one the quorum table reports for the same config
            summary = json.loads((tmp_path / "table.csv.summary.json").read_text())
            assert [summary[key] for key in PREAMBLE] == [json_meta[key] for key in PREAMBLE]
            quorum_out = tmp_path / "quorum.jsonl"
            assert main(["quorum", "--config", str(path), "--format", "json-lines",
                         "--out", str(quorum_out)]) == 0
            quorum_meta = json.loads(quorum_out.read_text().splitlines()[0])["meta"]
            assert sorted(summary["quorum"]) == sorted(QUORUM_REPORT)
            for key in QUORUM_REPORT:
                assert float(quorum_meta[key]).hex() == summary["quorum"][key].hex(), key

        records = [json.loads(line) for line in lines[1:]]
        assert len(records) == len(rows) > 0
        for record, row in zip(records, rows):
            cells = {}
            for key, value in record.items():
                if isinstance(value, list):
                    cells.update((f"{key}_{k}", v) for k, v in enumerate(value, 1))
                else:
                    cells[key] = value
            assert sorted(cells) == sorted(header)
            for name, value in cells.items():
                if isinstance(value, str):
                    assert row[name] == value
                elif isinstance(value, int):
                    assert row[name] == str(value)
                else:
                    assert float(row[name]).hex() == value.hex(), name


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter where any import of scipy raises.
BLOCKED_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None
from evspin.cli import main
print(json.dumps({name: main(argv) for name, argv in json.loads(sys.argv[1]).items()}))
"""


class TestNoScipy:
    def run_python(self, *args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)

    def test_import_loads_no_scipy(self):
        proc = self.run_python("-c", "import sys, evspin.cli; "
                                     "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert proc.stdout.strip() == "[]"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        static, _ = write_config(tmp_path, "static.json", two_s=4)
        driven, _ = write_config(tmp_path, "driven.json", method="rk4",
                                 hamiltonian={"linear": [0, 0, 1.0], "drive": DRIVE})
        runs = {
            "quorum": ["quorum", "--config", str(static)],
            "reconstruct": ["reconstruct", "--config", str(static)],
            "evolve-oracle": ["evolve", "--config", str(static), "--oracle"],
            "evolve-driven": ["evolve", "--config", str(driven)],
        }
        for name, argv in runs.items():
            argv += ["--out", str(tmp_path / f"{name}.csv")]
        proc = self.run_python("-c", BLOCKED_SCIPY_RUN, json.dumps(runs))
        assert json.loads(proc.stdout.splitlines()[-1]) == dict.fromkeys(runs, 0)
