"""Tests of the benchmark harness itself; run with `python -m pytest bench`.

The smoke mode runs every workload at 2s = 1, untraced and traced, with all
output checks, so the harness cannot rot unnoticed.  Nothing here gates on
wall-clock time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_reference_matches_closed_forms():
    reference.self_test()


def test_smoke_runs_every_workload():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    passed = {(r["workload"], r["trace"]) for r in map(json.loads, out.stdout.splitlines())
              if r["passed"]}
    assert passed == {(name, trace) for name in workloads.WORKLOADS for trace in (0, 1)}


def test_spans_count_per_job_and_self_time(tmp_path):
    tracer = spans.Tracer()
    inner = tracer.wrap("linalg.solve_spd", lambda: sum(range(1000)))
    outer = tracer.wrap("quorum.build_quorum", lambda: inner() + inner())
    tracer.begin_job(0)
    outer()
    tracer.end_job()
    inner()  # outside any job, like the host-speed probes
    tracer.save(tmp_path / "spans.npz")
    layers = spans.per_job_layers(tmp_path / "spans.npz", [0])
    assert layers["linalg.solve_spd"]["calls"].tolist() == [2.0]
    assert layers["quorum.build_quorum"]["calls"].tolist() == [1.0]
    outer_layer = layers["quorum.build_quorum"]
    assert outer_layer["self_s"][0] == pytest.approx(
        outer_layer["s"][0] - layers["linalg.solve_spd"]["s"][0], rel=1e-12, abs=1e-15)


def test_metrics_and_workloads_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, _, unit) in run.PER_LAYER.items()}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "larmor-s5",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
