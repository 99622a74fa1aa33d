"""Command-line front end: quorum reports, trajectory runs, reconstruction, spectra.

Every subcommand is one run of ``_run``: it loads the config, resolves the
output paths, parses the spin, builds the quorum and forms the preamble
``config_hash, two_s, n_points`` that opens every table.  The subcommand
(``cmd_*``) then parses its own fields and returns its meta tail, its
columns and, for ``evolve``, its summary body; ``_run`` writes the table,
then the summary.  ``_quorum_report`` is the quorum's residuals in both the
``quorum`` table and the ``evolve`` summary.

The CLI does no arithmetic of its own; every emitted number comes from a
library call and is formatted at full double precision, so identical
configurations produce byte-identical output files.

Configuration is one JSON document.  Exit status: 0 on success, 2 for
configuration errors, 3 for numerical failures (singular quorum, failed
self-check, convergence, rk4 divergence).
"""

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from .dynamics import (
    build_driven_generator,
    build_generator,
    generator_eigenvalues,
    propagate_grid,
)
from .errors import (
    ConvergenceFailureError,
    InvariantViolationError,
    SingularQuorumError,
)
from .quorum import QuorumConfig, build_quorum, default_config
from .representation import PVector, pvec_to_rho, rho_to_pvec
from .spin import (
    Direction,
    Drive,
    Envelope,
    HamiltonianSpec,
    Spin,
    basis_state,
    build_hamiltonian,
    coherent_state,
    maximally_mixed,
    pure_state_density,
    random_pure_state,
    spin_operators,
    validate_density_matrix,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (
    SingularQuorumError,
    ConvergenceFailureError,
    InvariantViolationError,
)


class ConfigError(Exception):
    """Malformed or contradictory run configuration."""


def _config_hash(cfg):
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def _number(value, field):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{field}' must be a number")
    # json.load reads Infinity, NaN and 1e400 as non-finite floats, and a
    # long integer literal may not fit a float; no field accepts either.
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"field '{field}' must be a finite number")
    return number


def _number_list(value, field, length=None):
    if not isinstance(value, list):
        raise ConfigError(f"field '{field}' must be a list of numbers")
    # A finite float passes as it is; only other entries get named and checked.
    out = [v if type(v) is float and math.isfinite(v) else _number(v, f"{field}[{i}]")
           for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise ConfigError(f"field '{field}' must have length {length}, got {len(out)}")
    return out


def _parse_spin(cfg):
    if "two_s" not in cfg:
        raise ConfigError("missing field 'two_s'")
    two_s = cfg["two_s"]
    if isinstance(two_s, bool) or not isinstance(two_s, int) or two_s < 0:
        raise ConfigError("field 'two_s' must be a non-negative integer")
    return Spin(two_s)


def _parse_quorum_config(cfg, spin):
    block = cfg.get("quorum")
    if block is None:
        return default_config(spin)
    if not isinstance(block, dict):
        raise ConfigError("field 'quorum' must be an object")
    base = default_config(spin)
    cones = block.get("cone_angles", list(base.cone_angles))
    offsets = block.get("azimuth_offsets", list(base.azimuth_offsets))
    try:
        return QuorumConfig(spin,
                            tuple(_number_list(cones, "quorum.cone_angles")),
                            tuple(_number_list(offsets, "quorum.azimuth_offsets")))
    except ValueError as exc:
        raise ConfigError(f"field 'quorum': {exc}") from exc


def _parse_envelope(block):
    if not isinstance(block, dict):
        raise ConfigError("field 'hamiltonian.drive.envelope' must be an object")
    shape = block.get("shape", "constant")
    try:
        return Envelope(
            shape=shape,
            amplitude=_number(block.get("amplitude", 1.0), "envelope.amplitude"),
            frequency=_number(block.get("frequency", 0.0), "envelope.frequency"),
            phase=_number(block.get("phase", 0.0), "envelope.phase"),
            breakpoints=tuple(_number_list(block.get("breakpoints", []), "envelope.breakpoints")),
            values=tuple(_number_list(block.get("values", []), "envelope.values")),
        )
    except ValueError as exc:
        raise ConfigError(f"field 'hamiltonian.drive.envelope': {exc}") from exc


def _parse_hamiltonian(cfg):
    block = cfg.get("hamiltonian")
    if block is None:
        raise ConfigError("missing field 'hamiltonian'")
    if not isinstance(block, dict):
        raise ConfigError("field 'hamiltonian' must be an object")

    def static_part(b, prefix):
        linear = _number_list(b.get("linear", [0.0, 0.0, 0.0]), f"{prefix}.linear", 3)
        quadratic = b.get("quadratic")
        if quadratic is not None:
            if not isinstance(quadratic, list) or len(quadratic) != 3:
                raise ConfigError(f"field '{prefix}.quadratic' must be a 3x3 matrix")
            quadratic = [_number_list(row, f"{prefix}.quadratic[{i}]", 3)
                         for i, row in enumerate(quadratic)]
        return linear, quadratic

    linear, quadratic = static_part(block, "hamiltonian")
    drive = None
    if block.get("drive") is not None:
        dblock = block["drive"]
        if not isinstance(dblock, dict):
            raise ConfigError("field 'hamiltonian.drive' must be an object")
        dlin, dquad = static_part(dblock, "hamiltonian.drive")
        envelope = _parse_envelope(dblock.get("envelope", {}))
        drive = Drive(HamiltonianSpec(linear=tuple(dlin), quadratic=dquad), envelope)
    try:
        return HamiltonianSpec(linear=tuple(linear), quadratic=quadratic, drive=drive)
    except ValueError as exc:
        raise ConfigError(f"field 'hamiltonian': {exc}") from exc


_STATE_VARIANTS = ("coherent", "basis", "maximally_mixed", "density_matrix",
                   "pvector", "random_pure")


def _number_matrix(value, field, dim):
    if not isinstance(value, list) or len(value) != dim:
        raise ConfigError(f"field '{field}' must be a {dim}x{dim} list of lists of numbers")
    return np.array([_number_list(row, field, dim) for row in value])


def _parse_initial_state(cfg, spin, quorum):
    """Returns (p0, rho0); rho0 is None when the input was a bare P vector."""
    block = cfg.get("initial_state")
    if not isinstance(block, dict):
        raise ConfigError("missing or malformed field 'initial_state'")
    present = [k for k in block if k in _STATE_VARIANTS]
    unknown = [k for k in block if k not in _STATE_VARIANTS]
    if unknown:
        raise ConfigError(f"unknown initial_state variant(s): {', '.join(sorted(unknown))}")
    if len(present) != 1:
        raise ConfigError(
            f"exactly one initial_state variant required, got {len(present)} "
            f"of {_STATE_VARIANTS}")
    kind = present[0]
    spec = block[kind]

    if kind == "coherent":
        if not isinstance(spec, dict):
            raise ConfigError("initial_state.coherent must be an object with theta, phi")
        try:
            direction = Direction(_number(spec.get("theta"), "coherent.theta"),
                                  _number(spec.get("phi", 0.0), "coherent.phi"))
        except ValueError as exc:
            raise ConfigError(f"initial_state.coherent: {exc}") from exc
        rho0 = pure_state_density(coherent_state(spin, direction).amplitudes)
    elif kind == "basis":
        if not isinstance(spec, dict) or "mu" not in spec:
            raise ConfigError("initial_state.basis must be an object with field 'mu'")
        try:
            rho0 = pure_state_density(basis_state(spin, _number(spec["mu"], "basis.mu")))
        except ValueError as exc:
            raise ConfigError(f"initial_state.basis: {exc}") from exc
    elif kind == "maximally_mixed":
        rho0 = maximally_mixed(spin.dim)
    elif kind == "density_matrix":
        if not isinstance(spec, dict) or "real" not in spec:
            raise ConfigError("initial_state.density_matrix needs field 'real' (and optional 'imag')")
        real = _number_matrix(spec["real"], "density_matrix.real", spin.dim)
        imag = np.zeros_like(real)
        if "imag" in spec:
            imag = _number_matrix(spec["imag"], "density_matrix.imag", spin.dim)
        try:
            rho0 = validate_density_matrix(real + 1j * imag)
        except ValueError as exc:
            raise ConfigError(f"initial_state.density_matrix: {exc}") from exc
    elif kind == "pvector":
        values = _number_list(spec, "initial_state.pvector", quorum.size)
        return PVector(np.asarray(values), quorum), None
    else:  # random_pure
        if not isinstance(spec, dict) or "seed" not in spec:
            raise ConfigError("initial_state.random_pure requires an explicit 'seed'")
        seed = spec["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError("initial_state.random_pure.seed must be an integer")
        rho0 = pure_state_density(random_pure_state(spin.dim, np.random.default_rng(seed)))

    return rho_to_pvec(rho0, quorum), rho0


def _parse_times(cfg):
    block = cfg.get("time_grid")
    if not isinstance(block, dict):
        raise ConfigError("missing or malformed field 'time_grid'")
    t_start = _number(block.get("t_start", 0.0), "time_grid.t_start")
    if "t_end" not in block:
        raise ConfigError("missing field 'time_grid.t_end'")
    t_end = _number(block["t_end"], "time_grid.t_end")
    steps = block.get("steps")
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise ConfigError("field 'time_grid.steps' must be an integer >= 1")
    if not t_end > t_start:
        raise ConfigError("time_grid requires t_end > t_start")
    if not math.isfinite(t_end - t_start):
        raise ConfigError("time_grid span t_end - t_start must be finite")
    return np.linspace(t_start, t_end, steps + 1)


def _parse_method(cfg):
    method = cfg.get("method", "exact-expm")
    if method not in ("exact-expm", "rk4"):
        raise ConfigError("field 'method' must be 'exact-expm' or 'rk4'")
    substeps = cfg.get("substeps", 10)
    if isinstance(substeps, bool) or not isinstance(substeps, int) or substeps < 1:
        raise ConfigError("field 'substeps' must be an integer >= 1")
    return method, substeps


def _parse_output(cfg, args):
    """(format, table path, summary path) of a run; a path of None means stdout.

    ``--out X`` names the table and puts the summary at ``X.summary.json``.
    Without it, ``evolve`` takes ``output.trajectory`` and ``output.summary``
    from the config (the summary defaulting to the table's path plus
    ``.summary.json``); the other subcommands write to stdout, so that a
    config shared between subcommands never has its trajectory overwritten.
    """
    block = cfg.get("output", {})
    if not isinstance(block, dict):
        raise ConfigError("field 'output' must be an object")
    for key in ("trajectory", "summary"):
        if block.get(key) is not None and not isinstance(block[key], str):
            raise ConfigError(f"field 'output.{key}' must be a path string")
    fmt = args.format if args.format is not None else block.get("format", "csv")
    if fmt not in ("csv", "json-lines"):
        raise ConfigError("output format must be 'csv' or 'json-lines'")
    if args.out is not None:
        return fmt, args.out, args.out + ".summary.json"
    if args.command != "evolve":
        return fmt, None, None
    table, summary = block.get("trajectory"), block.get("summary")
    if summary is None and table is not None:
        summary = table + ".summary.json"
    return fmt, table, summary


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_table(path, fmt, meta, columns):
    """Write one table as CSV or JSON lines: the only code that spells either format.

    ``meta`` is a list of (key, value) pairs.  A float value is written as a
    ``%.17e`` string in both formats and a list as JSON; CSV puts each pair
    on a ``# key = value`` preamble line, JSON lines in a first
    ``{"meta": ...}`` record.  ``columns`` is a list of (name, array) pairs
    of one length.  A 2-D column of width k is CSV columns ``name_1..name_k``
    and one JSON list.  CSV cells are ``%.17e`` for floats, ``%d`` for
    integers and ``%s`` for labels; JSON lines hold one record per row.
    """
    meta = [(key, "%.17e" % value if isinstance(value, float) else value)
            for key, value in meta]
    columns = [(name, np.asarray(values)) for name, values in columns]
    if fmt == "csv":
        lines = [f"# {key} = {json.dumps(value) if isinstance(value, list) else value}"
                 for key, value in meta]
        header, cells = [], []
        for name, values in columns:
            kind = values.dtype.kind
            cell = "%.17e" if kind == "f" else "%d" if kind in "iu" else "%s"
            if values.ndim == 1:
                header.append(name)
                cells.append(cell)
            else:
                header += [f"{name}_{k}" for k in range(1, values.shape[1] + 1)]
                cells += [cell] * values.shape[1]
        lines.append(",".join(header))
        # Integer columns are exact in a float stack: they are indices, far below 2**53.
        # A label column needs the object stack, which keeps every cell's Python type.
        arrays = [values for _, values in columns]
        if any(values.dtype.kind not in "iuf" for values in arrays):
            arrays = [values.astype(object) for values in arrays]
        template = ",".join(cells)
        lines.extend(template % tuple(row) for row in np.column_stack(arrays).tolist())
    else:
        names = [name for name, _ in columns]
        lines = [json.dumps({"meta": dict(meta)}, sort_keys=True)]
        lines.extend(json.dumps(dict(zip(names, row)), sort_keys=True)
                     for row in zip(*(values.tolist() for _, values in columns)))
    _write_text(path, "\n".join(lines) + "\n")


def _quorum_report(quorum):
    """The quorum's conditioning and self-check residuals, as (key, value) pairs."""
    return [("condition_number", quorum.condition_number),
            ("min_gram_eigenvalue", quorum.min_gram_eigenvalue),
            ("duality_residual", quorum.duality_residual),
            ("identity_expansion_residual", quorum.identity_residual)]


def cmd_quorum(args, cfg, spin, quorum):
    tail = _quorum_report(quorum) + [
        ("cone_angles", [float(t) for t in quorum.config.cone_angles]),
        ("azimuth_offsets", [float(p) for p in quorum.config.azimuth_offsets]),
    ]
    n = np.arange(quorum.size)
    columns = [("n", n), ("cone", n // spin.dim), ("azimuth", n % spin.dim),
               ("theta", np.array([d.theta for d in quorum.directions], dtype=float)),
               ("phi", np.array([d.phi for d in quorum.directions], dtype=float))]
    return tail, columns, None


def cmd_spectrum(args, cfg, spin, quorum):
    spec = _parse_hamiltonian(cfg)
    gen = build_generator(build_hamiltonian(spec, spin_operators(spin)), quorum)

    tail = []
    if spec.drive is not None:
        tail.append(("note", "spectra refer to the static part; the drive term is excluded"))
    h_eigs = gen.h_eigenvalues
    m_eigs = generator_eigenvalues(gen)
    columns = [("matrix", np.array(["H"] * h_eigs.size + ["M"] * m_eigs.size)),
               ("index", np.concatenate([np.arange(h_eigs.size), np.arange(m_eigs.size)])),
               ("real", np.concatenate([h_eigs, m_eigs.real])),
               ("imag", np.concatenate([np.zeros(h_eigs.size), m_eigs.imag]))]
    return tail, columns, None


def cmd_reconstruct(args, cfg, spin, quorum):
    p0, rho0 = _parse_initial_state(cfg, spin, quorum)

    if rho0 is not None:
        tail = [("direction", "state_to_probabilities"), ("e_dot_p", p0.normalization)]
        columns = [("n", np.arange(quorum.size)), ("P", p0.values)]
    else:
        rho, report = pvec_to_rho(p0)
        tail = [("direction", "probabilities_to_state"),
                ("trace", report.trace),
                ("min_eigenvalue", report.min_eigenvalue),
                ("e_dot_p", report.e_dot_p),
                ("physical", "true" if report.physical else "false")]
        if not report.physical:
            print("warning: input probabilities do not correspond to a physical state "
                  f"(trace {report.trace:.6e}, min eigenvalue {report.min_eigenvalue:.6e})",
                  file=sys.stderr)
        d = spin.dim
        columns = [("row", np.repeat(np.arange(d), d)), ("col", np.tile(np.arange(d), d)),
                   ("real", rho.real.ravel()), ("imag", rho.imag.ravel())]
    return tail, columns, None


def cmd_evolve(args, cfg, spin, quorum):
    spec = _parse_hamiltonian(cfg)
    times = _parse_times(cfg)
    method, substeps = _parse_method(cfg)
    p0, rho0 = _parse_initial_state(cfg, spin, quorum)

    driven = spec.drive is not None
    if driven:
        gen = build_driven_generator(spec, quorum)
        static_gen = gen.static
    else:
        gen = build_generator(build_hamiltonian(spec, spin_operators(spin)), quorum)
        static_gen = gen

    oracle = None
    if args.oracle:
        if driven:
            raise ConfigError("--oracle requires an autonomous Hamiltonian (no drive)")
        if rho0 is None:
            rho0, _ = pvec_to_rho(p0)
        oracle = rho0

    trajectory = propagate_grid(gen, p0, times, method=method,
                                substeps=substeps, oracle=oracle)

    columns = [("t", trajectory.times), ("P", trajectory.values),
               ("ePdot", trajectory.e_dot_p), ("minP", trajectory.p_min),
               ("maxP", trajectory.p_max), ("sumP", trajectory.p_sum)]
    if oracle is not None:
        columns.append(("oracle_dev", trajectory.oracle_dev))

    summary = {
        "method": method,
        "substeps": substeps if method == "rk4" else None,
        "driven": driven,
        "quorum": dict(_quorum_report(quorum)),
        "generator": {
            "imag_residue": static_gen.imag_residue,
            "cross_check_deviation": static_gen.cross_check_deviation,
            "conservation_residual": static_gen.conservation_residual,
            "bohr_deviation": static_gen.bohr_deviation,
        },
        "spectrum_h": [float(e) for e in static_gen.h_eigenvalues],
        "spectrum_m": [[z.real, z.imag] for z in generator_eigenvalues(static_gen).tolist()],
        "normalization": {
            "initial": float(trajectory.e_dot_p[0]),
            "max_drift": trajectory.normalization_drift,
        },
        "bounds": {
            "min_p": float(trajectory.p_min.min()),
            "max_p": float(trajectory.p_max.max()),
        },
        "oracle_max_deviation": (float(np.max(trajectory.oracle_dev))
                                 if oracle is not None else None),
    }
    return [], columns, summary


def _run(args):
    """The pipeline of the module docstring; ``args.func`` is the ``cmd_*``.

    The summary body, None except for ``evolve``, gets the preamble and the inputs.
    """
    cfg = _load_config(args.config)
    fmt, table_path, summary_path = _parse_output(cfg, args)
    spin = _parse_spin(cfg)
    quorum = build_quorum(_parse_quorum_config(cfg, spin))
    preamble = [("config_hash", _config_hash(cfg)),
                ("two_s", spin.two_s),
                ("n_points", quorum.size)]
    tail, columns, summary = args.func(args, cfg, spin, quorum)
    _write_table(table_path, fmt, preamble + tail, columns)
    if summary is not None:
        summary = {**dict(preamble), "inputs": cfg, **summary}
        _write_text(summary_path, json.dumps(summary, sort_keys=True) + "\n")
    return EXIT_OK


def _build_parser():
    # The options every subcommand takes, declared once and shared.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON run configuration")
    common.add_argument("--out", default=None, help="output path (default: stdout or config 'output')")
    common.add_argument("--format", choices=("csv", "json-lines"), default=None,
                        help="output format (default: csv or config 'output.format')")
    parser = argparse.ArgumentParser(
        prog="evspin",
        description="Spin-s dynamics on coherent-state probabilities: build "
                    "direction quorums, evolve probability vectors, reconstruct "
                    "states, inspect spectra.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, helptext in (
            ("quorum", cmd_quorum, "report directions, Gram conditioning, duality residuals"),
            ("evolve", cmd_evolve, "propagate a probability vector over a time grid"),
            ("reconstruct", cmd_reconstruct, "convert between states and probability vectors"),
            ("spectrum", cmd_spectrum, "print eigenvalues of the Hamiltonian and the flow generator")):
        p = sub.add_parser(name, help=helptext, parents=[common])
        if name == "evolve":
            p.add_argument("--oracle", action="store_true",
                           help="add a column comparing against direct density-matrix propagation")
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, TypeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
