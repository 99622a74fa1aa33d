"""Host-speed probes and calibration kernel.

On a shared virtual machine the speed of the host changes by up to 1.8x
within seconds (a pure-Python loop on the 2-vCPU host this benchmark was
tuned on ran between 10 and 18 ms from one second to the next), so raw wall
times of one run say more about the neighbours than about the program.
`probe()` is a short fixed workload of the same kinds of work as an evolve
job, in about the same proportions: mostly interpreter arithmetic, float
formatting and numpy calls on small arrays (9 x 9 products, sums and
matrix-vector products at N = 81), and one small LAPACK eigenvalue call.
Compute-bound LAPACK work slows down less than interpreter work when the
host is busy, so a probe dominated by it under-corrects.  It runs right
before and right after every timed job, and `adjusted()`
rescales the job's wall time to a host on which the probe takes
PROBE_REF_S.  The set-up spawn is adjusted the same way with
`interpreter_probe()`, which imports nothing, so that it can run before
evspin's own import.  Raw wall times are kept in each run's record.

`calibration_ms()` is a fixed BLAS kernel timed before and after each
workload; it is printed as a reference for the host and used for nothing.

Only `time` is imported at module level: setup_time.py imports this module
in a fresh interpreter before it times the import of evspin.
"""

import time

# The probes' times on the reference host (about their medians here).
PROBE_REF_S = 0.0035
INTERPRETER_PROBE_REF_S = 0.0025


def _interpreter_work(repeat):
    s = 0.0
    for i in range(3000 * repeat):
        s += i * 0.5
    for i in range(300 * repeat):
        format(i * 0.1, ".17e")


def interpreter_probe():
    """Wall time of a fixed pure-Python workload, in seconds."""
    t0 = time.perf_counter()
    _interpreter_work(5)
    return time.perf_counter() - t0


def probe():
    """Wall time of a fixed workload shaped like an evolve job, in seconds."""
    import numpy as np

    a9 = np.random.default_rng(0).standard_normal((9, 9))
    m81 = np.random.default_rng(1).standard_normal((81, 81))
    t0 = time.perf_counter()
    _interpreter_work(3)
    for _ in range(200):
        a9 @ a9
    for _ in range(100):
        (m81 + 0.5 * m81) @ m81[0]
    np.linalg.eigvals(m81[:40, :40])
    return time.perf_counter() - t0


def adjusted(seconds, before, after, reference=PROBE_REF_S):
    """``seconds`` rescaled to the reference host, from the probes around it."""
    return seconds * reference / ((before + after) / 2.0)


def calibration_ms():
    """Median time of a fixed 256 x 256 matmul, in milliseconds."""
    import statistics

    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)
