"""Linear flow of the probability vector: dP/dt = M P.

The generator is the commutator with the Hamiltonian expressed in
P-coordinates,

    M[n, n'] = i/(2s+1) * Tr[ H [Q_n, dual_n'] ],

a real matrix whose spectrum is the set of Bohr frequencies
{i (eps_j - eps_k)} of H: the quantum evolution of the spin is literally a
linear classical dynamical system on (2s+1)^2 real variables.  The weighted
sum e . P is a conserved functional (e^T M = 0), and the images of the
Hamiltonian eigenprojectors are the flow's fixed points.

M is computed at build time through the quorum matrix, the form kept, and
compared with coherent-state sandwiches read from the projectors.
M is never eigendecomposed numerically: its eigenbasis follows in closed
form from that of H, is certified against M at build time, and carries all
exact propagation.
"""

import itertools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConservationViolationError,
    DegenerateSpectrumWarning,
    DimensionMismatchError,
    InvariantViolationError,
    MethodUnsupportedError,
    require,
    residual_of,
)
from .linalg import hermitian_eigendecomposition, require_hermitian
from .representation import PVector
from .spin import _freeze, build_hamiltonian, evolve_density_matrix, spin_operators

__all__ = [
    "Generator",
    "DrivenGenerator",
    "Trajectory",
    "build_generator",
    "build_driven_generator",
    "bohr_spectrum",
    "generator_eigenvalues",
    "propagate_exact",
    "propagate_grid",
    "fixed_points",
]


def _lexsorted(z):
    z = np.asarray(z, dtype=complex)
    return z[np.lexsort((z.real, z.imag))]


def bohr_spectrum(h_eigenvalues):
    """Multiset {i (eps_j - eps_k)} over all ordered pairs, lexsorted.

    These are the only oscillation frequencies any unitary evolution of the
    system can show, and they are exactly the eigenvalues of the flow
    generator.
    """
    eps = np.asarray(h_eigenvalues, dtype=float)
    diffs = 1j * (eps[:, None] - eps[None, :]).reshape(-1)
    return _lexsorted(diffs)


@dataclass(frozen=True)
class Generator:
    """Real (2s+1)^2 x (2s+1)^2 generator of the probability flow.

    Carries the Hamiltonian it was built from, the certified eigenbasis of
    M, and ``checks``, the ``Check`` records of ``build_generator``:
    ``imag_residue`` (of the sandwich form), ``cross_check_deviation``
    (against the kept form), ``raw_conservation_residual`` and
    ``conservation_residual`` (max |e^T M| before and after projection) and
    ``bohr_deviation`` (eigenbasis certificate), all but the raw one also
    attributes.

    With H = sum_j eps_j |j><j| and the pair index jk = j * (2s+1) + k:

    * ``h_eigenvectors[:, j] = |j>``, the unitary U;
    * ``eigenvalues[jk] = -i (eps_j - eps_k)``, the Bohr frequencies;
    * ``eigenvectors[n, jk] = <n|j><k|n>``, the P-image of |j><k|; its inverse
      takes P to the entries <j|X|k> of U^dagger X U, X = ``quorum.operator(P)``.

    ``bohr_deviation`` is the certificate residual max |M V - V Lambda| of
    that basis against the stored M.
    """

    matrix: np.ndarray
    quorum: object
    hamiltonian: np.ndarray
    h_eigenvalues: np.ndarray
    h_eigenvectors: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    checks: tuple

    imag_residue = residual_of("imag_residue")
    cross_check_deviation = residual_of("cross_check_deviation")
    conservation_residual = residual_of("conservation_residual")
    bohr_deviation = residual_of("bohr_deviation")


@dataclass(frozen=True)
class DrivenGenerator:
    """Generator family M(t) = M_static + f(t) * M_drive.

    The generator is linear in the Hamiltonian, so a drive
    H(t) = H0 + f(t) H1 needs only the two constituent generators.
    ``propagate_grid`` never assembles M(t): each rk4 stage applies the
    stacked [M_static; M_drive] to the stage vector once, and the weights
    1 and f(t) enter only through the coefficient rows that combine those
    products (see ``_rk4``).  ``envelope`` is called on arrays of stage
    times, once per block of rk4 steps.
    """

    static: Generator
    drive: Generator
    envelope: object

    @property
    def quorum(self):
        return self.static.quorum


def build_generator(hmat, quorum):
    """Build and verify the flow generator for Hamiltonian ``hmat``.

    M[n, n'] = i/(2s+1) Tr[H [Q_n, dual_n']] = Tr[Q_n C_n'] / (2s+1), with
    C_n' = i [dual_n', H] Hermitian.  The kept form is
    ``quorum.probabilities`` of the C_n', real by construction; the
    sandwich form <n_n|C_n'|n_n> / (2s+1) reads the projectors instead of
    T.  The two are compared, e^T M = 0 is enforced, and the closed-form
    eigenbasis of M (see ``Generator``) is certified before returning.

    Bounds, each a ``require`` kept in ``Generator.checks``, with
    |H| = max |eps_j|: the sandwich form's imaginary residue
    and its disagreement with the kept form at most 1e-10 max(1, |H|), and
    max |e^T M| at most 1e-9 max(1, max |M|) before e^T M is projected out
    and 1e-9 max(1, |H|) after; each residue is linear in H.  The two
    conservation checks raise ``ConservationViolationError``.  An H whose
    spectrum overflows (|H| = inf) is rejected before any product.

    Certificate tolerance.  In exact arithmetic M V = V Lambda; the
    residual is the rounding made in forming M.  An entry of dual_m H sums
    d products whose absolute values add up to at most sqrt(d) D |H|
    (D the largest dual entry, |H| = max |eps_j|); with a summation error
    growing like the square root of the d terms it is off by about
    d eps D |H|, and an entry of C_m by 2 d eps |H| D.  Tr[Q_n C_m] weighs
    these by |Q_n[k, i]|, which sum to (sum_i |psi_i|)^2 <= d, so every
    entry of M is off by at most 2 d eps |H| D.  An entry of M V adds
    N = d^2 of those against |V| <= 1, so

        max |M V - V Lambda| <= 2 N d eps |H| D,

    eps being the unit roundoff.  The backward error of eigh in V (about
    d eps |H| per pair) is smaller by the factor N D.  For 2s <= 10 the
    measured residual stays below a fifth of this bound for random,
    degenerate and field-only H.  No eigenvalue gap enters, so degenerate
    H (sz, 0) is certified like any other.
    """
    hmat = np.asarray(hmat, dtype=complex)
    if hmat.shape != (quorum.dim, quorum.dim):
        raise DimensionMismatchError(
            f"Hamiltonian is {hmat.shape}, quorum expects {quorum.dim}x{quorum.dim}")
    h_eigenvalues, h_eigenvectors = hermitian_eigendecomposition(hmat)
    h_norm = float(np.max(np.abs(h_eigenvalues)))
    if not math.isfinite(h_norm):
        # Every bound below scales with |H|; an infinite one certifies nothing.
        raise InvariantViolationError(
            f"Hamiltonian spectrum overflows: |H| = max |eps_j| is {h_norm}")
    h_scale = max(1.0, h_norm)

    d = quorum.dim
    size = quorum.size
    duals = quorum.duals

    # An H near the overflow threshold makes these products inf or NaN; the
    # checks below reject them, so numpy's warnings would only repeat them.
    with np.errstate(over="ignore", invalid="ignore"):
        commutators = 1j * (np.matmul(duals, hmat) - np.matmul(hmat, duals))
        matrix = np.ascontiguousarray(quorum.probabilities(commutators).T / d)
        # The sandwich form, <n|C|n> = sum_ij conj(Q_n[i, j]) C_ij, reads the projectors.
        sandwiches = quorum.projectors.conj().reshape(size, d * d)
        m_sandwich = sandwiches @ commutators.reshape(size, d * d).T / d
    checks = [require("imag_residue", np.max(np.abs(m_sandwich.imag)), 1e-10 * h_scale),
              require("cross_check_deviation", np.max(np.abs(matrix - m_sandwich.real)),
                      1e-10 * h_scale)]

    raw_traces = quorum.dual_traces * d
    checks.append(require("raw_conservation_residual", np.max(np.abs(raw_traces @ matrix)),
                          1e-9 * max(1.0, float(np.max(np.abs(matrix)))),
                          ConservationViolationError))
    # e^T M = 0 holds exactly for the true generator; once the raw residual is
    # consistent with rounding, project it out so the conserved functional
    # cannot drift along long trajectories.
    matrix -= np.outer(raw_traces, raw_traces @ matrix) / float(raw_traces @ raw_traces)
    checks.append(require("conservation_residual", np.max(np.abs(raw_traces @ matrix)),
                          1e-9 * h_scale, ConservationViolationError))

    overlaps = quorum.amplitudes.conj() @ h_eigenvectors  # <n|j>
    eigenvectors = (overlaps[:, :, None] * overlaps.conj()[:, None, :]).reshape(size, size)
    eigenvalues = np.zeros(size, dtype=complex)
    eigenvalues.imag = (h_eigenvalues[None, :] - h_eigenvalues[:, None]).reshape(-1)
    checks.append(require(
        "bohr_deviation", np.max(np.abs(matrix @ eigenvectors - eigenvectors * eigenvalues)),
        2 * size * d * np.finfo(float).eps * h_norm * float(np.max(np.abs(duals)))))

    return Generator(
        matrix=_freeze(matrix),
        quorum=quorum,
        hamiltonian=_freeze(hmat.copy()),
        h_eigenvalues=_freeze(h_eigenvalues),
        h_eigenvectors=_freeze(h_eigenvectors),
        eigenvalues=_freeze(eigenvalues),
        eigenvectors=_freeze(eigenvectors),
        checks=tuple(checks),
    )


def build_driven_generator(spec, quorum):
    """Generator family for a HamiltonianSpec carrying a drive, on the spin of ``quorum``."""
    ops = spin_operators(quorum.spin)
    if spec.drive is None:
        raise ValueError("spec has no drive; build_generator handles the static case")
    static = build_generator(build_hamiltonian(spec, ops), quorum)
    drive = build_generator(build_hamiltonian(spec.drive.term, ops), quorum)
    return DrivenGenerator(static, drive, spec.drive.envelope)


def generator_eigenvalues(gen):
    """Certified eigenvalues of M, lexsorted by (imaginary, real) part."""
    return _lexsorted(gen.eigenvalues)


def _flow(gen, p0, dts):
    """Rows exp(dt M) P0 for every dt in ``dts``, through M's eigenbasis.

    exp(dt M) = V exp(dt Lambda) V^{-1} with V^{-1} P0 = U^dagger X U (see
    ``Generator``), written as P0 + Re(V (expm1(dt Lambda) * V^{-1} P0)):
    the stationary modes (Lambda = 0) contribute exactly nothing, so dt = 0
    and H = 0 return P0 exactly.  Lambda is purely imaginary, so nothing
    grows with dt.
    """
    u = gen.h_eigenvectors
    coefficients = (u.conj().T @ gen.quorum.operator(p0) @ u).reshape(-1)
    modes = np.expm1(np.multiply.outer(dts, gen.eigenvalues))
    modes *= coefficients
    return p0 + (modes @ gen.eigenvectors.T).real


def propagate_exact(gen, p0, t):
    """P(t) = exp(t M) P0 through the certified eigenbasis of M."""
    if p0.quorum is not gen.quorum:
        raise DimensionMismatchError("initial vector belongs to a different quorum")
    return PVector(_flow(gen, p0.values, np.array([float(t)]))[0], gen.quorum)


@dataclass(frozen=True)
class Trajectory:
    """Time grid, probability vectors, and per-time invariant monitors.

    ``values`` holds one row of P per time, in the order of the generator's
    quorum; the trajectory keeps no quorum of its own.  ``oracle_dev`` is
    present only when the run was compared against direct density-matrix
    propagation; it holds max_n |P_n(t) - <n_n|rho(t)|n_n>| per time.
    """

    times: np.ndarray
    values: np.ndarray
    e_dot_p: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    p_sum: np.ndarray
    oracle_dev: np.ndarray = None

    @property
    def normalization_drift(self):
        """Largest excursion of e . P from its initial value."""
        return float(np.max(np.abs(self.e_dot_p - self.e_dot_p[0])))


def _rk4_step_counts(gaps, substeps):
    """rk4 steps per grid interval, so that no step exceeds about min(gaps) / substeps."""
    h_target = float(np.min(gaps, initial=np.inf)) / substeps
    return np.maximum(1, np.ceil(gaps / h_target - 1e-9)).astype(int)


# rk4's amplification polynomial 1 + z + z^2/2 + z^3/6 + z^4/24 has modulus at
# most 1 on the imaginary axis z = i y exactly for |y| <= 2 sqrt(2).
_RK4_LIMIT = 2.0 * math.sqrt(2.0)


def _rk4_stable_step_counts(gaps, substeps, omega):
    """Step counts per grid interval, refused before any step if rk4 would be unstable.

    M's eigenvalues are i times Bohr frequencies, all of modulus at most
    ``omega``, so the largest step h must keep h * omega within 2 sqrt(2).
    The error names the smallest ``substeps`` that does.  A non-finite
    ``omega`` is left to the check of the rows for finiteness.
    """
    counts = _rk4_step_counts(gaps, substeps)
    step = float(np.max(gaps / counts, initial=0.0))
    if math.isfinite(omega) and step * omega > _RK4_LIMIT:
        needed = math.ceil(float(np.min(gaps)) * omega / _RK4_LIMIT)
        while float(np.max(gaps / _rk4_step_counts(gaps, needed))) * omega > _RK4_LIMIT:
            needed += 1
        raise InvariantViolationError(
            f"rk4 step h = {step:.6g} is outside rk4's stability region: h * omega = "
            f"{step * omega:.6g} exceeds 2 sqrt(2), where omega = {omega:.6g} bounds the "
            f"Bohr frequencies; use substeps >= {needed} (now {substeps})")
    return counts


# rk4 as coefficients of the stage products k1..k4: one row for each stage
# input x2, x3, x4 (x_s = P + h * row . k) and one for the step result.
_RK4_TABLEAU = np.array([
    [0.5, 0.0, 0.0, 0.0],
    [0.0, 0.5, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
])
# k1..k4 are taken at the start t, the midpoint t + h/2 (twice) and the end
# t + h of a step: stage times 0, 1 and 2 of the step.
_RK4_STAGE_TIME = (0, 1, 1, 2)
# Steps whose coefficient rows are built at once: 4 (1 + 4B) doubles a
# step, about 1.2 MB for a drive (B = 2), whatever the grid.
_RK4_BLOCK_STEPS = 4096


def _rk4_steps(weights, times, counts, width):
    """The rows (to x2, to x3, to x4, to the step result) of every rk4 step, in time order.

    Interval i holds ``counts[i]`` steps of h = gap / counts[i], whose starts
    accumulate t += h from ``times[i]``.  The steps of all intervals form one
    stream, cut into blocks of ``_RK4_BLOCK_STEPS`` steps wherever interval
    boundaries fall.  ``weights`` is called once per block, on the starts t,
    midpoints t + h/2 and ends t + h of its steps, and every coefficient
    (h a) w of the rows, of ``width`` = 1 + 4B entries, is written into one
    reused buffer: the rows of one block are live at a time.
    """
    interval_h, counts = (np.diff(times) / counts).tolist(), counts.tolist()
    starts = itertools.chain.from_iterable(
        itertools.accumulate(itertools.repeat(step, count - 1), initial=start)
        for start, step, count in zip(times[:-1].tolist(), interval_h, counts))
    sizes = itertools.chain.from_iterable(map(itertools.repeat, interval_h, counts))
    buffer = np.empty(4 * width * min(sum(counts), _RK4_BLOCK_STEPS))
    while (t := np.fromiter(itertools.islice(starts, _RK4_BLOCK_STEPS), float)).size:
        h = np.fromiter(itertools.islice(sizes, t.size), float)
        # (3, steps, B): the weights at the start, midpoint and end of every step
        stages = weights(np.concatenate([t, t + h / 2.0, t + h])).reshape(3, t.size, -1)
        rows = buffer[:4 * width * t.size].reshape(4, t.size, width)
        rows[:, :, 0] = 1.0
        # (4, steps, 4, B), a view of the rows: splitting their last axis copies nothing
        coefficients = rows[:, :, 1:].reshape(4, t.size, 4, -1)
        for kind, tableau in zip(coefficients, _RK4_TABLEAU):
            for s, stage in enumerate(_RK4_STAGE_TIME):
                np.multiply((h * tableau[s])[:, None], stages[stage], out=kind[:, s])
        yield from zip(*rows)


def _rk4(stack, weights, p0, times, counts):
    """Fixed-step rk4 rows for dP/dt = M(t) P with M(t) = sum_b w_b(t) M_b.

    ``stack`` holds the B matrices M_b on top of each other, (B N, N), and
    ``weights(ts)`` returns the coefficients w_b at each stage time in
    ``ts``, (len(ts), B).  Stage times are t, t + h/2 and t + h with t
    accumulated step by step from each grid point,
    h = (grid gap) / counts[interval].

    M(t) is linear in the weights, so k_s = sum_b w_b(t_s) (M_b x_s), and
    every stage input x_s = P + a_s h k_{s-1} and the step result
    P + h/6 (k1 + 2 k2 + 2 k3 + k4) is a fixed linear combination of P and
    the products M_b x_s.  These sit in a stage buffer z of 1 + 4B rows:
    row 0 is P, and stage s writes its B products into rows
    1 + (s-1)B .. sB in place.  Each combination is then one product of a
    coefficient row with z.  There are two such buffers, and a step writes
    its result into row 0 of the other one, so a step is 4 products of the
    stack and 4 row products, and nothing is copied.

    The coefficient rows are built by ``_rk4_steps`` for a block of
    ``_RK4_BLOCK_STEPS`` steps at a time, cut from the steps of all grid
    intervals in time order, into one reused buffer; the weights are
    evaluated once per block, at three stage times a step.  Their memory is
    one block of rows, about 1.2 MB for a drive, on any grid.
    """
    terms = stack.shape[0] // p0.size
    # zeros, not empty: the first step's rows multiply the unwritten stage
    # rows by 0, and 0 * NaN would be NaN
    z = np.zeros((2, 1 + 4 * terms, p0.size))
    z[0, 0] = p0
    # (buffer, P, k1, k2, k3, k4) of each buffer, the k_s as flat (B N,) views
    now, after = [(buffer, buffer[0],
                   *(buffer[1 + s * terms:1 + (s + 1) * terms].reshape(-1) for s in range(4)))
                  for buffer in z]
    x = np.empty(p0.size)
    values = np.empty((times.size, p0.size))
    values[0] = p0
    steps = _rk4_steps(weights, times, counts, z.shape[1])
    for i, count in enumerate(counts.tolist(), start=1):
        for to_x2, to_x3, to_x4, to_p in itertools.islice(steps, count):
            z_now, p, k1, k2, k3, k4 = now
            np.dot(stack, p, out=k1)
            np.dot(to_x2, z_now, out=x)
            np.dot(stack, x, out=k2)
            np.dot(to_x3, z_now, out=x)
            np.dot(stack, x, out=k3)
            np.dot(to_x4, z_now, out=x)
            np.dot(stack, x, out=k4)
            np.dot(to_p, z_now, out=after[1])
            now, after = after, now
        values[i] = now[1]
    return values


def propagate_grid(gen, p0, times, method="exact-expm", substeps=10, oracle=None):
    """Propagate P0 over a time grid and record invariant monitors.

    Parameters
    ----------
    gen : Generator or DrivenGenerator
        A DrivenGenerator requires ``method="rk4"``.
    p0 : PVector
        State at ``times[0]``.
    times : array_like
        Strictly increasing finite grid; the first entry is the initial time.
    method : {"exact-expm", "rk4"}
        Exact propagation applies exp(t M) through the generator's certified
        eigenbasis, for the whole grid in one product.  rk4 advances with
        fixed step h = (smallest grid gap) / substeps, shortened so that
        each grid interval holds a whole number of steps.  Autonomous and
        driven runs share one loop (``_rk4``): a stage is one product of M,
        or of the stacked [M_static; M_drive], with the stage vector, and
        every stage input and step result is one coefficient row, built
        from h and f at the stage times, applied to P and those products.
        The rows are built for a block of 4 096 steps at a time, wherever
        grid points fall, so their memory is one block of rows (about
        1.2 MB for a drive) on any grid, and f is evaluated once per block,
        on the array of the three stage times t, t + h/2 and t + h of its
        steps; M(t) is never formed.  Before the first step, h * omega
        must lie within rk4's stability limit 2 sqrt(2) on the imaginary
        axis, omega bounding the Bohr frequencies: the spread of H's
        eigenvalues, or spread(H0) + max|f| spread(H1) for a drive
        (Weyl's inequality).
        Otherwise, and for any non-finite rk4 row, it raises
        ``InvariantViolationError``.
    substeps : int
        rk4 steps per smallest grid gap: a Python or numpy integer >= 1,
        not a bool.  Anything else raises ValueError.
    oracle : (d, d) array_like, optional
        Initial density matrix, Hermitian within 1e-12
        (``require_hermitian``); when given (autonomous generators only) the
        trajectory carries the per-time deviation from direct density-matrix
        propagation, which uses neither M nor the duals.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-D array")
    if not (np.isfinite(times).all() and math.isfinite(float(times[-1]) - float(times[0]))):
        raise ValueError("times must be finite, and so must their span")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")
    driven = isinstance(gen, DrivenGenerator)
    if p0.quorum is not gen.quorum:
        raise DimensionMismatchError("initial vector belongs to a different quorum")
    if method not in ("exact-expm", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    if driven and method == "exact-expm":
        raise MethodUnsupportedError(
            "exact-expm requires an autonomous generator; use rk4 for driven systems")
    if oracle is not None and driven:
        raise MethodUnsupportedError(
            "density-matrix comparison requires an autonomous generator")
    try:
        valid = not isinstance(substeps, bool) and operator.index(substeps) >= 1
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"substeps must be an integer >= 1, not {substeps!r}")
    substeps = operator.index(substeps)

    if method == "exact-expm":
        values = _flow(gen, p0.values, times - times[0])
    else:
        if driven:
            envelope = gen.envelope
            stack = np.vstack([gen.static.matrix, gen.drive.matrix])

            def weights(ts):
                w = np.ones((ts.size, 2))
                w[:, 1] = envelope(ts)
                return w

            omega = (float(np.ptp(gen.static.h_eigenvalues))
                     + envelope.max_abs * float(np.ptp(gen.drive.h_eigenvalues)))
        else:
            stack, weights = gen.matrix, lambda ts: np.ones((ts.size, 1))
            omega = float(np.ptp(gen.h_eigenvalues))
        counts = _rk4_stable_step_counts(np.diff(times), substeps, omega)
        # Rows that overflow all the same are reported once, below, rather
        # than as numpy warnings and NaN rows.
        with np.errstate(over="ignore", invalid="ignore"):
            values = _rk4(stack, weights, p0.values, times, counts)
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise InvariantViolationError(
                f"rk4 diverged: non-finite values at t = {times[np.argmin(finite)]:.6g}; "
                f"the step is outside rk4's stability region, use more substeps "
                f"(now {substeps})")

    e = gen.quorum.dual_traces
    oracle_dev = None
    if oracle is not None:
        oracle = np.asarray(oracle, dtype=complex)
        require_hermitian(oracle, "oracle density matrix")
        rho_t = evolve_density_matrix(oracle, gen.hamiltonian, times - times[0])
        reference = gen.quorum.probabilities(rho_t)
        oracle_dev = _freeze(np.max(np.abs(values - reference), axis=1))

    return Trajectory(
        times=_freeze(times.copy()),
        values=_freeze(values),
        e_dot_p=_freeze(values @ e),
        p_min=_freeze(values.min(axis=1)),
        p_max=_freeze(values.max(axis=1)),
        p_sum=_freeze(values.sum(axis=1)),
        oracle_dev=oracle_dev,
    )


def fixed_points(hmat, quorum):
    """P-images of the Hamiltonian eigenprojectors: the flow's fixed points.

    Returns 2s+1 probability vectors with M P = 0.  When the spectrum of H
    is degenerate the stationary set is a whole continuum; the returned
    vectors are then just one basis of stationary projectors and a
    DegenerateSpectrumWarning is issued.  Degenerate means a gap between
    adjacent eigenvalues below 1e-9 times max(1, max |eps|).
    """
    eps, vecs = hermitian_eigendecomposition(np.asarray(hmat, dtype=complex))
    if quorum.dim != eps.size:
        raise DimensionMismatchError(
            f"Hamiltonian is {eps.size}x{eps.size}, quorum expects {quorum.dim}x{quorum.dim}")
    if eps.size > 1:
        gap = float(np.min(np.diff(eps)))
        scale = max(1.0, float(np.max(np.abs(eps))))
        if gap < 1e-9 * scale:
            warnings.warn(
                f"Hamiltonian spectrum degenerate (smallest gap {gap:.3e}); the "
                "stationary set is a continuum, returning one basis of it",
                DegenerateSpectrumWarning, stacklevel=2)
    # projectors[k] = |k><k|
    projectors = vecs.T[:, :, None] * vecs.T.conj()[:, None, :]
    return [PVector(row, quorum) for row in quorum.probabilities(projectors)]
