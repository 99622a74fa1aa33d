#!/usr/bin/env python3
"""Benchmark of `evspin evolve`, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload larmor-oracle --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25
    python3 bench/run.py --smoke

One run is a closed loop: a single warm worker process runs one job at a
time, each job a call of ``evspin.cli.main(["evolve", ...])`` on a
configuration generated here from the seed.  BLAS is pinned to one thread
in the worker and in this process.  Jobs run in whole rounds until at least
--seconds of job time and MIN_SAMPLES successful jobs are collected.  Every
successful job's table and summary are checked against ``reference``, which
does not import evspin, while the worker waits.

Job and set-up times are wall times rescaled to a reference host speed
with the probes of hostspeed.py, which run right before and after each
timed operation; the raw wall figures are printed in the provenance line.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate run whose worker records spans around evspin's functions.  The
last line of stdout is the result object; the line before it holds the
provenance.  A full record of the run goes to bench/out/.

--workload all runs every workload, untraced and traced, and prints one
result line for each.  --smoke does the same at 2s = 1 for one round, with
all output checks; it proves the harness works and times nothing.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads, here and in every child

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_SAMPLES = 40      # below 40 samples no percentile above the median has ten beyond it
SETUP_SPAWNS = 7      # fresh interpreters timed per run for setup_s (after one untimed)
WALL_LIMIT_S = 140.0  # the job loop stops here even if MIN_SAMPLES is not reached

END_TO_END = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "values_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Per-layer metric -> (span or source, field, unit).  Times are per-job
# medians, counts exact per-job counts, over the successful jobs of the
# traced run.
PER_LAYER = {
    "cli.self_s": ("cli.main", "self_s", "s"),
    "cli.bytes_out": ("bytes_out", None, "bytes"),
    "quorum.build_quorum.s": ("quorum.build_quorum", "s", "s"),
    "quorum.build_quorum.calls": ("quorum.build_quorum", "calls", "count"),
    "spin.coherent_state.calls": ("spin.coherent_state", "calls", "count"),
    "dynamics.build_generator.s": ("dynamics.build_generator", "s", "s"),
    "dynamics.generator_eigenvalues.s": ("dynamics.generator_eigenvalues", "s", "s"),
    "kernel.m_eig.calls": ("kernel.m_eig", "calls", "count"),
    "dynamics.propagate_grid.self_s": ("dynamics.propagate_grid", "self_s", "s"),
    "dynamics.matrix_at.calls": ("dynamics.matrix_at", "calls", "count"),
    "spin.envelope.calls": ("counter", "spin.envelope", "count"),
    "spin.evolve_density_matrix.calls": ("spin.evolve_density_matrix", "calls", "count"),
    "representation.rho_to_pvec.calls": ("representation.rho_to_pvec", "calls", "count"),
    "representation.rho_to_pvec.s": ("representation.rho_to_pvec", "s", "s"),
    "linalg.hermitian_eigendecomposition.calls":
        ("linalg.hermitian_eigendecomposition", "calls", "count"),
    "linalg.hermitian_eigendecomposition.s": ("linalg.hermitian_eigendecomposition", "s", "s"),
    "linalg.solve_spd.s": ("linalg.solve_spd", "s", "s"),
    "linalg.expm_real.calls": ("linalg.expm_real", "calls", "count"),
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_setup():
    """(wall time, adjusted time) of a fresh interpreter importing evspin.cli."""
    from hostspeed import INTERPRETER_PROBE_REF_S, adjusted

    # No timeout: Popen.wait(timeout) polls, which rounds waits up to 50 ms steps.
    out = subprocess.run([sys.executable, str(BENCH / "setup_time.py")], cwd=ROOT,
                         env=child_env(), check=True, capture_output=True, text=True)
    reply = json.loads(out.stdout)
    return reply["seconds"], adjusted(reply["seconds"], *reply["probe"],
                                      reference=INTERPRETER_PROBE_REF_S)


class Worker:
    """The warm child process that runs the jobs (worker.py)."""

    def __init__(self, traced):
        cmd = [sys.executable, str(BENCH / "worker.py")] + (["--trace"] if traced else [])
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __enter__(self):
        self.hello = self._read()
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, msg):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read()


def tail(times):
    """(value, percentile): the largest sample with at least ten samples above it.

    With fewer than MIN_SAMPLES samples that would be no tail, and the median
    is reported instead.
    """
    n = len(times)
    if n < MIN_SAMPLES:
        return statistics.median(times), 50.0
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def run(workload, seed, seconds, traced, min_samples=MIN_SAMPLES, setup_spawns=SETUP_SPAWNS):
    """One benchmark run; returns (result object, record)."""
    import numpy as np
    import scipy

    import reference
    import workloads
    from hostspeed import adjusted
    from spans import per_job_layers

    reference.self_test()
    work = OUT / "work" / workload.name
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "job.json"
    table_path = work / ("table.csv" if workload.fmt == "csv" else "table.jsonl")
    summary_path = Path(f"{table_path}.summary.json")
    spans_path = OUT / f"{workload.name}.spans.npz"

    setup = []
    if not traced:
        time_setup()  # compiles bytecode and warms the file cache
        setup = [time_setup() for _ in range(setup_spawns)]

    checker = workloads.Checker(workload)
    with Worker(traced) as worker:
        hello = worker.hello
        if not Path(hello["evspin"]).is_relative_to(SRC):
            raise RuntimeError(f"worker imported evspin from {hello['evspin']}, not {SRC}")

        def job(k, trace_id):
            cfg, op = workloads.job_config(workload, seed, k)
            config_path.write_text(json.dumps(cfg), encoding="utf-8")
            table_path.unlink(missing_ok=True)
            summary_path.unlink(missing_ok=True)
            argv = workloads.job_argv(workload, str(config_path), str(table_path))
            reply = worker.call({"cmd": "job", "job": trace_id, "argv": argv})
            out = {"job": k, "op": op, "seconds": reply["seconds"], "counts": reply["counts"],
                   "adjusted": adjusted(reply["seconds"], *reply["probe"])}
            if reply["rc"] != 0:
                out["failure"] = workloads.failure_kind(reply["rc"], reply["stderr"])
                return out
            table, summary = table_path.read_bytes(), summary_path.read_bytes()
            out["bytes_out"] = len(table) + len(summary)
            out["digest"] = hashlib.sha256(table + summary).hexdigest()
            out["values"] = (workload.steps + 1) * (workload.two_s + 1) ** 2
            out["errors"] = checker.check(cfg, table.decode("utf-8"), json.loads(summary))
            return out

        warm = [job(k, -1) for k in range(len(workload.ops))]
        jobs = []
        started = time.monotonic()
        busy = 0.0
        while True:
            for _ in workload.ops:
                jobs.append(job(len(jobs), len(jobs)))
                busy += jobs[-1]["seconds"]
            n_ok = sum("failure" not in j for j in jobs)
            if busy >= seconds and n_ok >= min_samples:
                break
            if time.monotonic() - started > WALL_LIMIT_S:
                break
        done = worker.call({"cmd": "finish", "spans": str(spans_path) if traced else None})

    ok = [j for j in jobs if "failure" not in j]
    failures = {}
    for j in jobs:
        if "failure" in j:
            key = f"{j['op']} {j['failure']}"
            failures[key] = failures.get(key, 0) + 1
    # Each op of the first measured round repeats a warm-up job: the output
    # must be byte-identical, and a failure must fail the same way.
    rerun_mismatch = [k for k, w in enumerate(warm)
                      if (w.get("failure"), w.get("digest")) !=
                         (jobs[k].get("failure"), jobs[k].get("digest"))]
    check_errors = [f"job {j['job']}: {e}" for j in ok for e in j["errors"]]
    check_errors += [f"job {k} differs from its warm-up rerun" for k in rerun_mismatch]
    correct = bool(ok) and not check_errors

    def timings(times, spawns):
        return {
            "setup_s": statistics.median(spawns),
            "job_s.p50": statistics.median(times),
            "job_s.tail": tail(times)[0],
            "values_per_s": sum(j["values"] for j in ok) / sum(times),
        }

    metrics = {}
    raw = {}
    if ok and not traced:
        values = timings([j["adjusted"] for j in ok], [a for _, a in setup])
        values["peak_rss_mb"] = done["peak_rss_mb"]
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        raw = timings([j["seconds"] for j in ok], [w for w, _ in setup])
    elif ok:
        layers = per_job_layers(spans_path, [j["job"] for j in ok])
        for name, (source, field, unit) in PER_LAYER.items():
            if source == "bytes_out":
                value = statistics.median(j["bytes_out"] for j in ok)
            elif source == "counter":
                value = statistics.median(j["counts"][field] for j in ok)
            else:
                value = float(np.median(layers[source][field]))
            metrics[name] = {"value": value, "unit": unit}

    provenance = {
        "workload": workload.name, "two_s": workload.two_s, "seed": seed,
        "job_seeds": f"SeedSequence([{seed}, {workload.number}, job]); fixed ops use "
                     f"SeedSequence([0, {workload.number}])",
        "traced": traced, "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "cpu_count": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "evspin": str(Path(hello["evspin"]).relative_to(ROOT)),
        "calibration_ms": {"before": hello["calibration_ms"], "after": done["calibration_ms"]},
        "jobs": len(jobs), "successful": len(ok), "job_seconds": busy,
        "raw_wall": raw,
        "traced_job_s.p50": statistics.median(j["adjusted"] for j in ok) if ok and traced else None,
        "tail_percentile": tail([j["adjusted"] for j in ok])[1] if ok else None,
        "failures": failures, "check_headroom": checker.worst, "check_errors": check_errors[:20],
    }
    result = {"correct": correct, "attempted": len(jobs), "failed": len(jobs) - len(ok),
              "metrics": metrics}
    record = {"result": result, "provenance": provenance, "setup_s": setup,
              "patched": hello["patched"],
              "jobs": [{k: j[k] for k in ("job", "op", "seconds", "adjusted", "failure", "bytes_out")
                        if k in j} for j in jobs]}
    return result, record


def run_all(seed, seconds, small):
    """Every workload, untraced then traced, one result line each; True if all pass.

    ``small`` runs each workload at 2s = 1 for one round (the smoke mode).
    """
    import workloads

    good = True
    for workload in workloads.WORKLOADS.values():
        for traced in (False, True):
            if small:
                result, record = run(workloads.smoke(workload), seed, seconds, traced,
                                     min_samples=1, setup_spawns=1)
            else:
                result, record = run(workload, seed, seconds, traced)
            expected = PER_LAYER if traced else END_TO_END
            passed = result["correct"] and set(result["metrics"]) == set(expected)
            good &= passed
            print(json.dumps({"workload": workload.name, "trace": int(traced), "passed": passed,
                              **result, "failures": record["provenance"]["failures"],
                              "errors": record["provenance"]["check_errors"]}))
    return good


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "evspin" / "cli.py").is_file():
        print(f"error: no evspin sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return 0 if run_all(0, 0.0, small=True) else 1
    import workloads

    if args.workload == "all" and None not in (args.seed, args.seconds):
        return 0 if run_all(args.seed, args.seconds, small=False) else 1
    if args.workload not in workloads.WORKLOADS or None in (args.seed, args.seconds, args.trace):
        parser.error(f"--workload (one of {', '.join(workloads.WORKLOADS)}, or all), --seed, "
                     "--seconds and --trace are required")
    workload = workloads.WORKLOADS[args.workload]
    result, record = run(workload, args.seed, args.seconds, bool(args.trace))
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
