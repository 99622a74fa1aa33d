"""Workloads: seeded `evspin evolve` configurations and the checks on their output.

A workload is a fixed round of operations.  Each operation is one
`evspin evolve` job; every job in a workload has the same size and only its
seed differs.  Job k of a run draws its inputs from
SeedSequence([run seed, workload number, k]), so a seed fixes every input.
Initial states are always passed as explicit density matrices.

Every successful job is checked against `reference` (which does not import
evspin); `Checker.check` documents the error model behind each bound.
"""

import json
import math
import re
from dataclasses import dataclass, replace

import numpy as np

import reference

EPS = np.finfo(float).eps

# Acceptance tolerances of the package (tests/test_acceptance.py).
C05_DRIFT = 1e-8     # e . P drift along a trajectory
C06_ORACLE = 1e-7    # P against direct density-matrix propagation
C08_BOHR = 1e-8      # spectrum of M against the Bohr frequencies of H

# Cap of field directions for the seeded larmor-s5 jobs: angular radius 0.3
# about theta = 1.0, phi = -pi/6, either sign.  At 2s = 10 the conservation
# check of build_generator fails for about half of all directions, as a
# function of the direction alone; inside this cap the residual stays below
# 0.57 of its limit (400 random draws when the cap was chosen), so the
# seeded jobs never fail and the fault is carried by the fixed job instead.
S5_CAP_CENTER = (1.0, -math.pi / 6)
S5_CAP_RADIUS = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    number: int
    two_s: int
    steps: int
    t_end: float
    fmt: str
    oracle: bool
    method: str
    ops: tuple  # one round: "seeded", or "fixed-sz" (inputs independent of the seed)


WORKLOADS = {w.name: w for w in (
    Workload("larmor-oracle", 1, two_s=8, steps=2000, t_end=10.0, fmt="csv",
             oracle=True, method="exact-expm", ops=("seeded",)),
    Workload("driven-rk4", 2, two_s=8, steps=500, t_end=5.0, fmt="json-lines",
             oracle=False, method="rk4", ops=("seeded",)),
    Workload("larmor-s5", 3, two_s=10, steps=20, t_end=3.0, fmt="csv",
             oracle=False, method="exact-expm", ops=("fixed-sz", "seeded")),
)}

SUBSTEPS = 10


def smoke(workload):
    """The same workload at 2s = 1."""
    return replace(workload, two_s=1)


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _cap_direction(rng):
    theta0, phi0 = S5_CAP_CENTER
    c = np.array([math.sin(theta0) * math.cos(phi0), math.sin(theta0) * math.sin(phi0),
                  math.cos(theta0)])
    e1 = np.cross(c, [0.0, 0.0, 1.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(c, e1)
    z = rng.uniform(math.cos(S5_CAP_RADIUS), 1.0)
    a = rng.uniform(0.0, 2 * math.pi)
    v = z * c + math.sqrt(1 - z * z) * (math.cos(a) * e1 + math.sin(a) * e2)
    return v * rng.choice([-1.0, 1.0])


def _density_matrix(rng, dim):
    """Random full-rank state V diag(p) V^dagger with Haar-random V."""
    p = rng.dirichlet(np.ones(dim))
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    rho = (q * p) @ q.conj().T
    return (rho + rho.conj().T) / 2.0


def job_config(workload, seed, index):
    """(config, op) of job ``index``; the config is all the program receives."""
    op = workload.ops[index % len(workload.ops)]
    if op == "fixed-sz":
        rng = np.random.default_rng([0, workload.number])
    else:
        rng = np.random.default_rng([seed, workload.number, index])
    dim = workload.two_s + 1
    if op == "fixed-sz":
        ham = {"linear": [0.0, 0.0, 1.0]}
    elif workload.name == "larmor-oracle":
        c = rng.uniform(-0.3, 0.3, (3, 3))
        ham = {"linear": (rng.uniform(0.5, 1.5) * _unit(rng)).tolist(),
               "quadratic": ((c + c.T) / 2).tolist()}
    elif workload.name == "driven-rk4":
        ham = {"linear": [0.0, 0.0, rng.uniform(0.8, 1.2)],
               "drive": {"linear": _unit(rng).tolist(),
                         "envelope": {"shape": "cosine",
                                      "amplitude": rng.uniform(0.3, 0.7),
                                      "frequency": rng.uniform(0.5, 2.0),
                                      "phase": rng.uniform(0.0, 2 * math.pi)}}}
    else:
        ham = {"linear": (rng.uniform(0.5, 1.5) * _cap_direction(rng)).tolist()}
    rho = _density_matrix(rng, dim)
    cfg = {"two_s": workload.two_s,
           "hamiltonian": ham,
           "initial_state": {"density_matrix": {"real": rho.real.tolist(),
                                                "imag": rho.imag.tolist()}},
           "time_grid": {"t_start": 0.0, "t_end": workload.t_end, "steps": workload.steps},
           "method": workload.method}
    if workload.method == "rk4":
        cfg["substeps"] = SUBSTEPS
    return cfg, op


def job_argv(workload, config_path, table_path):
    argv = ["evolve", "--config", config_path, "--out", table_path, "--format", workload.fmt]
    return argv + ["--oracle"] if workload.oracle else argv


FAILURE_KINDS = (
    ("conservation", re.compile(r"conservation functional violated")),
    ("duality", re.compile(r"duality residual")),
    ("bohr-spectrum", re.compile(r"Bohr frequencies")),
    ("overflow", re.compile(r"overflow guard")),
    ("singular-quorum", re.compile(r"not positive definite")),
)


def failure_kind(exit_code, stderr):
    for kind, pattern in FAILURE_KINDS:
        if pattern.search(stderr):
            return f"exit{exit_code}:{kind}"
    return f"exit{exit_code}:other"


def read_table(text, fmt):
    """(t, P, ePdot, oracle_dev or None) from an evolve table."""
    if fmt == "csv":
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        data = np.array(",".join(lines[1:]).split(","), dtype=float).reshape(len(lines) - 1, -1)
        cols = {name: data[:, k] for k, name in enumerate(header)}
        p = data[:, 1:1 + sum(1 for name in header if name.startswith("P_"))]
        return cols["t"], p, cols["ePdot"], cols.get("oracle_dev")
    records = [json.loads(ln) for ln in text.splitlines()[1:]]
    oracle = [r["oracle_dev"] for r in records if "oracle_dev" in r]
    return (np.array([r["t"] for r in records]), np.array([r["P"] for r in records]),
            np.array([r["ePdot"] for r in records]), np.array(oracle) if oracle else None)


class Checker:
    """Checks a successful job's table and summary against the reference."""

    def __init__(self, workload):
        self.workload = workload
        self.quorum = reference.Quorum(workload.two_s)
        steps = workload.steps
        self.rows = sorted({round(k * steps / 5) for k in range(6)})
        self.worst = {}

    def _note(self, name, value, bound):
        """Record value/bound; returns an error string when the bound is broken."""
        ratio = value / bound
        self.worst[name] = max(self.worst.get(name, 0.0), ratio)
        return None if value <= bound else f"{name} {value:.3e} > bound {bound:.3e}"

    def check(self, cfg, table_text, summary):
        """List of failed checks (empty when the job's output is correct)."""
        w = self.workload
        q = self.quorum
        errors = []
        t, p, ep_column, oracle_dev = read_table(table_text, w.fmt)
        if p.shape != (w.steps + 1, q.dim ** 2):
            return [f"table shape {p.shape}, expected {(w.steps + 1, q.dim ** 2)}"]
        if np.max(np.abs(t - np.linspace(0.0, w.t_end, w.steps + 1))) > 4 * EPS * w.t_end:
            errors.append("time column is not the configured grid")

        ham = cfg["hamiltonian"]
        h0 = reference.hamiltonian(w.two_s, ham["linear"], ham.get("quadratic"))
        block = cfg["initial_state"]["density_matrix"]
        rho0 = np.array(block["real"]) + 1j * np.array(block["imag"])
        times = t[self.rows]
        norm_h = float(np.linalg.norm(h0, 2))
        nu = 0.0
        if "drive" in ham:
            drive = ham["drive"]
            env = drive["envelope"]
            h1 = reference.hamiltonian(w.two_s, drive["linear"])
            rho_t = reference.evolve_driven(
                h0, h1, reference.cosine_envelope(env["amplitude"], env["frequency"], env["phase"]),
                rho0, times)
            norm_h += abs(env["amplitude"]) * float(np.linalg.norm(h1, 2))
            nu = env["frequency"]
        else:
            rho_t = reference.evolve_autonomous(h0, rho0, times)
        dev = float(np.max(np.abs(p[self.rows] - q.probabilities(rho_t))))
        # Error model.  P = T rho with (T rho)_n = <n|rho|n>; T T* = G, so T
        # has condition number kappa(G)^(1/2), and M = T L T^-1 with L the
        # anti-Hermitian von Neumann superoperator.  Exact propagation goes
        # through an eigenbasis of M, which is T times a unitary basis: its
        # rounding reaches P amplified by kappa(G)^(1/2), and the phase error
        # of each mode grows with Omega t, Omega = 2 |H| bounding every Bohr
        # frequency:
        #     64 eps kappa(G)^(1/2) (1 + Omega t).
        # rk4 is invariant under the linear change of variables rho -> P, so
        # its truncation error is that of rk4 on the von Neumann equation:
        # per unit time h^4 Omega^5 / 120 for e^{hL} against its Taylor
        # polynomial, Omega also covering the envelope's frequency nu; taken
        # 8 times for the terms in dL/dt.  The DOP853 reference (rtol 1e-12)
        # adds 1e-10.
        omega = 2.0 * norm_h
        t_max = float(times[-1])
        bound = 64 * EPS * math.sqrt(q.gram_condition) * (1 + omega * t_max)
        if w.method == "rk4":
            h = float(np.min(np.diff(t))) / cfg.get("substeps", 10)
            omega += nu
            bound += 8 * t_max * h ** 4 * omega ** 5 / 120 + 1e-10
        errors.append(self._note("reference_dev", dev, bound))

        e_dot_p = p @ q.e
        errors.append(self._note("e_dot_p_drift", float(np.max(np.abs(e_dot_p - e_dot_p[0]))),
                                 C05_DRIFT))
        errors.append(self._note("ePdot_column_drift",
                                 float(np.max(np.abs(ep_column - ep_column[0]))), C05_DRIFT))
        if w.oracle:
            if oracle_dev is None:
                errors.append("oracle_dev column missing")
            else:
                errors.append(self._note("oracle_dev", float(np.max(oracle_dev)), C06_ORACLE))

        bohr = reference.bohr_frequencies(h0)
        m = np.array(summary["spectrum_m"])
        if m.shape != (q.dim ** 2, 2):
            errors.append(f"summary spectrum_m has shape {m.shape}")
        else:
            # Matching sorted imaginary parts is an optimal pairing on the line.
            spec_dev = max(float(np.max(np.abs(np.sort(m[:, 1]) - np.sort(bohr.imag)))),
                           float(np.max(np.abs(m[:, 0]))))
            errors.append(self._note("spectrum_dev", spec_dev, C08_BOHR))
        return [e for e in errors if e]
