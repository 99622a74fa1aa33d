"""Spans around evspin's public functions, installed from outside the program.

The modules bind names with ``from .x import y``, so each function is
replaced where it is looked up (``evspin.cli.build_quorum``,
``evspin.dynamics.rho_to_pvec``, ...), not only where it is defined.  A
span is (name, parent span, job, start, end); spans stay in flat arrays in
memory and are written to one .npz file when the run ends.  Self time is a
span's duration minus the time its child spans cover.

``Envelope.__call__`` is only counted, not spanned: it runs 4 * substeps
times per grid interval inside ``matrix_at``, whose span already covers it.
"""

import functools
import importlib
import time
from array import array

import numpy as np

# Span name -> the (module, attribute) places where the function is looked up.
# spin_operators, build_hamiltonian, pvec_to_rho and build_driven_generator
# report no metric of their own; their spans keep cli.self_s down to
# parsing, formatting and writing.
SPANS = {
    "quorum.build_quorum": [("evspin.cli", "build_quorum")],
    "spin.spin_operators": [("evspin.cli", "spin_operators"), ("evspin.quorum", "spin_operators")],
    "spin.build_hamiltonian": [("evspin.cli", "build_hamiltonian"),
                               ("evspin.spin", "build_hamiltonian")],
    "spin.coherent_state": [("evspin.cli", "coherent_state"), ("evspin.quorum", "coherent_state")],
    "spin.evolve_density_matrix": [("evspin.dynamics", "evolve_density_matrix")],
    "representation.rho_to_pvec": [("evspin.cli", "rho_to_pvec"),
                                   ("evspin.dynamics", "rho_to_pvec")],
    "representation.pvec_to_rho": [("evspin.cli", "pvec_to_rho")],
    "dynamics.build_generator": [("evspin.cli", "build_generator"),
                                 ("evspin.dynamics", "build_generator")],
    "dynamics.build_driven_generator": [("evspin.cli", "build_driven_generator")],
    "dynamics.generator_eigenvalues": [("evspin.cli", "generator_eigenvalues")],
    "dynamics.propagate_grid": [("evspin.cli", "propagate_grid")],
    "dynamics.matrix_at": [("evspin.dynamics.DrivenGenerator", "matrix_at")],
    "linalg.hermitian_eigendecomposition": [("evspin.spin", "hermitian_eigendecomposition"),
                                            ("evspin.dynamics", "hermitian_eigendecomposition")],
    "linalg.solve_spd": [("evspin.quorum", "solve_spd")],
    "linalg.expm_real": [("evspin.dynamics", "expm_real")],
    # numpy eig/eigvals: the program calls them on M only.
    "kernel.m_eig": [("numpy.linalg", "eig"), ("numpy.linalg", "eigvals")],
}
COUNTERS = {"spin.envelope": [("evspin.spin.Envelope", "__call__")]}
ROOT_SPAN = "cli.main"


def _owner(path):
    """Module or class named by a dotted path."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Tracer:
    """Collects spans and counts for one worker process."""

    def __init__(self):
        self.names = [ROOT_SPAN] + list(SPANS)
        self.name = array("h")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.installed = []

    def wrap(self, span, fn):
        nid = self.names.index(span)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.job_of.append(self.job)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                self.start[idx] = t0
                self.stack.pop()
        return wrapper

    def _count(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Patch every lookup site that exists; returns the sites patched.

        A site that a later version of the program no longer has is skipped,
        and its layer then reads zero calls.
        """
        for table, make in ((SPANS, self.wrap), (COUNTERS, self._count)):
            for name, sites in table.items():
                for owner_path, attr in sites:
                    try:
                        owner = _owner(owner_path)
                    except (ImportError, AttributeError):
                        continue
                    if hasattr(owner, attr):
                        setattr(owner, attr, make(name, getattr(owner, attr)))
                        self.installed.append(f"{owner_path}.{attr}")
        return self.installed

    def begin_job(self, job):
        self.job = job
        self.counts = dict.fromkeys(COUNTERS, 0)

    def end_job(self):
        """Counts of the job; later calls (the host-speed probes) belong to no job."""
        self.job = -1
        return self.counts

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), job=np.asarray(self.job_of),
                 start=np.asarray(self.start), end=np.asarray(self.end))


def per_job_layers(path, jobs):
    """{span name: {"s", "self_s", "calls": array over ``jobs``}} from a saved trace.

    ``jobs`` is an ascending list of job numbers; spans of other jobs are
    ignored.
    """
    with np.load(path) as data:
        names = list(data["names"])
        name, parent, job = data["name"], data["parent"], data["job"]
        dur = data["end"] - data["start"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    jobs = np.asarray(jobs)
    keep = np.isin(job, jobs)
    rows = np.searchsorted(jobs, job[keep])
    shape = (len(jobs), len(names))
    out = {key: np.zeros(shape) for key in ("s", "self_s", "calls")}
    np.add.at(out["s"], (rows, name[keep]), dur[keep])
    np.add.at(out["self_s"], (rows, name[keep]), (dur - covered)[keep])
    np.add.at(out["calls"], (rows, name[keep]), 1)
    return {n: {key: out[key][:, k] for key in out} for k, n in enumerate(names)}
