"""Linear flow of the probability vector: dP/dt = M P.

The generator is the commutator with the Hamiltonian expressed in
P-coordinates,

    M[n, n'] = i/(2s+1) * Tr[ H [Q_n, dual_n'] ],

a real matrix whose spectrum is the set of Bohr frequencies
{i (eps_j - eps_k)} of H: the quantum evolution of the spin is literally a
linear classical dynamical system on (2s+1)^2 real variables.  The weighted
sum e . P is a conserved functional (e^T M = 0), and the images of the
Hamiltonian eigenprojectors are the flow's fixed points.

Both defining forms of M (the coherent-state sandwich and the trace form)
are computed and compared at build time; the trace form is the one kept.
M is never eigendecomposed numerically: its eigenbasis follows in closed
form from that of H, is certified against M at build time, and carries all
exact propagation.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumWarning,
    DimensionMismatchError,
    InvariantViolationError,
    MethodUnsupportedError,
    NotHermitianError,
)
from .linalg import hermitian_eigendecomposition, hermiticity_deviation, settings
from .representation import PVector, rho_to_pvec
from .spin import _freeze, evolve_density_matrix

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
    M, and the residuals of the build-time self-checks (imaginary part of
    the trace formula, deviation between the two defining forms,
    conservation functional, eigenbasis certificate).

    With H = sum_j eps_j |j><j| and the pair index jk = j * (2s+1) + k:

    * ``eigenvalues[jk] = -i (eps_j - eps_k)``, the Bohr frequencies;
    * ``eigenvectors[n, jk] = <n|j><k|n>``, the P-image of |j><k|;
    * ``left_eigenvectors[jk, n] = <j|dual_n|k> / (2s+1)``, the inverse of
      ``eigenvectors`` (their product the other way round is the duality
      matrix that ``build_quorum`` verifies).

    ``bohr_deviation`` is the certificate residual max |M V - V Lambda| of
    that basis against the stored M.
    """

    matrix: np.ndarray
    quorum: object
    hamiltonian: np.ndarray
    h_eigenvalues: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    left_eigenvectors: np.ndarray
    imag_residue: float
    cross_check_deviation: float
    conservation_residual: float
    bohr_deviation: float


@dataclass(frozen=True)
class DrivenGenerator:
    """Generator family M(t) = M_static + f(t) * M_drive.

    The generator is linear in the Hamiltonian, so a drive
    H(t) = H0 + f(t) H1 needs only the two constituent generators; M(t) is
    then assembled exactly at any stage time.
    """

    static: Generator
    drive: Generator
    envelope: object

    @property
    def quorum(self):
        return self.static.quorum

    def matrix_at(self, t):
        return self.static.matrix + self.envelope(t) * self.drive.matrix

    def hamiltonian_at(self, t):
        return self.static.hamiltonian + self.envelope(t) * self.drive.hamiltonian


def build_generator(hmat, quorum):
    """Build and verify the flow generator for Hamiltonian ``hmat``.

    The trace form i/(2s+1) Tr[H [Q_n, dual_n']] and the sandwich form
    i/(2s+1) <n_n|[dual_n', H]|n_n> are evaluated through different
    contractions and compared; realness and e^T M = 0 are enforced, and the
    closed-form eigenbasis of M (see ``Generator``) is certified, before the
    object is returned.

    Certificate tolerance.  In exact arithmetic M V = V Lambda; the
    residual is the rounding made in forming M.  Each trace in M is a sum
    of d^2 products of an entry of H Q_n (at most |H| = max |eps_j|) with
    an entry of a dual (at most D, the largest dual entry), whose absolute
    values add up to at most d |H| D (Cauchy-Schwarz on the Frobenius
    norms).  With a summation error growing like the square root of the
    d^2 terms, each trace is off by about d eps * d |H| D, and the
    difference of two traces divided by d puts 2 d eps |H| D on every entry
    of M.  An entry of M V adds N = d^2 of those against |V| <= 1, so

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

    d = quorum.dim
    projectors = quorum.projectors
    duals = quorum.duals

    hq = np.matmul(hmat, projectors)
    hd = np.matmul(hmat, duals)
    t1 = np.einsum("nik,mki->nm", hq, duals)
    t2 = np.einsum("mik,nki->nm", hd, projectors)
    m_trace = 1j * (t1 - t2) / d
    imag_residue = float(np.max(np.abs(m_trace.imag)))
    if imag_residue > settings.realness_tol:
        raise InvariantViolationError(
            f"generator imaginary residue {imag_residue:.3e} exceeds "
            f"{settings.realness_tol:.1e}")

    psi = quorum.amplitudes
    commutators = np.matmul(duals, hmat) - hd
    m_sandwich = 1j * np.einsum("ni,mij,nj->nm", psi.conj(), commutators, psi) / d
    cross = float(np.max(np.abs(m_trace - m_sandwich)))
    if cross > settings.cross_check_tol:
        raise InvariantViolationError(
            f"trace and sandwich forms disagree by {cross:.3e}")

    matrix = np.ascontiguousarray(m_trace.real)
    raw_traces = quorum.dual_traces * d
    scale = max(1.0, float(np.max(np.abs(matrix))))
    raw_conservation = float(np.max(np.abs(raw_traces @ matrix)))
    if raw_conservation > settings.conservation_tol * scale:
        raise InvariantViolationError(
            f"conservation functional violated: max |e^T M| = {raw_conservation:.3e} "
            f"for generator scale {scale:.3e}")
    # e^T M = 0 holds exactly for the true generator; once the raw residual is
    # consistent with rounding, project it out so the conserved functional
    # cannot drift along long trajectories.
    matrix -= np.outer(raw_traces, raw_traces @ matrix) / float(raw_traces @ raw_traces)
    conservation = float(np.max(np.abs(raw_traces @ matrix)))
    if conservation > settings.conservation_tol:
        raise InvariantViolationError(
            f"conservation functional violated after projection: {conservation:.3e}")

    size = quorum.size
    overlaps = psi.conj() @ h_eigenvectors  # <n|j>
    eigenvectors = (overlaps[:, :, None] * overlaps.conj()[:, None, :]).reshape(size, size)
    left = h_eigenvectors.conj().T @ duals @ h_eigenvectors / d
    left_eigenvectors = np.ascontiguousarray(left.reshape(size, size).T)
    eigenvalues = np.zeros(size, dtype=complex)
    eigenvalues.imag = (h_eigenvalues[None, :] - h_eigenvalues[:, None]).reshape(-1)
    bohr_dev = float(np.max(np.abs(matrix @ eigenvectors - eigenvectors * eigenvalues)))
    h_norm = float(np.max(np.abs(h_eigenvalues)))
    bohr_tol = 2 * size * d * np.finfo(float).eps * h_norm * float(np.max(np.abs(duals)))
    if bohr_dev > bohr_tol:
        raise InvariantViolationError(
            f"generator eigenbasis certificate failed: max |M V - V Lambda| = "
            f"{bohr_dev:.3e} exceeds {bohr_tol:.3e}")

    return Generator(
        matrix=_freeze(matrix),
        quorum=quorum,
        hamiltonian=_freeze(hmat.copy()),
        h_eigenvalues=_freeze(h_eigenvalues),
        eigenvalues=_freeze(eigenvalues),
        eigenvectors=_freeze(eigenvectors),
        left_eigenvectors=_freeze(left_eigenvectors),
        imag_residue=imag_residue,
        cross_check_deviation=cross,
        conservation_residual=conservation,
        bohr_deviation=bohr_dev,
    )


def build_driven_generator(spec, ops, quorum):
    """Generator family for a HamiltonianSpec carrying a drive."""
    from .spin import build_hamiltonian  # local import avoids cycle at module load

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

    exp(dt M) = V exp(dt Lambda) W and V W = 1, written as
    P0 + Re(V (expm1(dt Lambda) * W P0)): the stationary modes
    (Lambda = 0) contribute exactly nothing, so dt = 0 and H = 0 return P0
    exactly.  Lambda is purely imaginary, so nothing grows with dt.
    """
    coefficients = gen.left_eigenvectors @ p0
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

    ``oracle_dev`` is present only when the run was compared against direct
    density-matrix propagation; it holds max_n |P_n(t) - <n_n|rho(t)|n_n>|
    per time.
    """

    times: np.ndarray
    values: np.ndarray
    quorum: object
    e_dot_p: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    p_sum: np.ndarray
    oracle_dev: np.ndarray = None

    @property
    def states(self):
        return [PVector(row, self.quorum) for row in self.values]

    @property
    def normalization_drift(self):
        """Largest excursion of e . P from its initial value."""
        return float(np.max(np.abs(self.e_dot_p - self.e_dot_p[0])))


def _rk4_step(mfun, t, p, h):
    k1 = mfun(t) @ p
    k2 = mfun(t + h / 2.0) @ (p + (h / 2.0) * k1)
    k3 = mfun(t + h / 2.0) @ (p + (h / 2.0) * k2)
    k4 = mfun(t + h) @ (p + h * k3)
    return p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def propagate_grid(gen, p0, times, method="exact-expm", substeps=10, oracle=None):
    """Propagate P0 over a time grid and record invariant monitors.

    Parameters
    ----------
    gen : Generator or DrivenGenerator
        A DrivenGenerator requires ``method="rk4"``.
    p0 : PVector
        State at ``times[0]``.
    times : array_like
        Strictly increasing grid; the first entry is the initial time.
    method : {"exact-expm", "rk4"}
        Exact propagation applies exp(t M) through the generator's certified
        eigenbasis, for the whole grid in one product.  rk4 advances with
        fixed step h = (smallest grid gap) / substeps, re-evaluating M(t) at
        every stage time.
    oracle : (d, d) array_like, optional
        Initial density matrix; when given (autonomous generators only) the
        trajectory carries the per-time deviation from direct density-matrix
        propagation, which uses neither M nor the duals.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-D array")
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
    substeps = int(substeps)
    if substeps < 1:
        raise ValueError("substeps must be >= 1")

    if method == "exact-expm":
        values = _flow(gen, p0.values, times - times[0])
    else:
        values = np.empty((times.size, p0.values.size))
        values[0] = p0.values
        if times.size > 1:
            h_target = float(np.min(np.diff(times))) / substeps
            if driven:
                mfun = gen.matrix_at
            else:
                matrix = gen.matrix
                mfun = lambda _t: matrix
            p = p0.values.copy()
            for i in range(1, times.size):
                gap = times[i] - times[i - 1]
                nsub = max(1, math.ceil(gap / h_target - 1e-9))
                h = gap / nsub
                t = times[i - 1]
                for _ in range(nsub):
                    p = _rk4_step(mfun, t, p, h)
                    t += h
                values[i] = p

    e = gen.quorum.dual_traces
    oracle_dev = None
    if oracle is not None:
        oracle = np.asarray(oracle, dtype=complex)
        dev = hermiticity_deviation(oracle)
        if dev > settings.hermiticity_tol:
            raise NotHermitianError(f"oracle density matrix asymmetric by {dev:.3e}")
        rho_t = evolve_density_matrix(oracle, gen.hamiltonian, times - times[0])
        # P_n(t) = Tr[Q_n rho(t)] for all n and t in one product.
        q = gen.quorum
        flat_projectors = q.projectors.conj().reshape(q.size, q.dim * q.dim)
        reference = rho_t.reshape(times.size, q.dim * q.dim) @ flat_projectors.T
        oracle_dev = _freeze(np.max(np.abs(values - reference.real), axis=1))

    return Trajectory(
        times=_freeze(times.copy()),
        values=_freeze(values),
        quorum=gen.quorum,
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
    DegenerateSpectrumWarning is issued.
    """
    eps, vecs = hermitian_eigendecomposition(np.asarray(hmat, dtype=complex))
    if quorum.dim != eps.size:
        raise DimensionMismatchError(
            f"Hamiltonian is {eps.size}x{eps.size}, quorum expects {quorum.dim}x{quorum.dim}")
    if eps.size > 1:
        gap = float(np.min(np.diff(eps)))
        scale = max(1.0, float(np.max(np.abs(eps))))
        if gap < settings.degeneracy_tol * scale:
            warnings.warn(
                f"Hamiltonian spectrum degenerate (smallest gap {gap:.3e}); the "
                "stationary set is a continuum, returning one basis of it",
                DegenerateSpectrumWarning, stacklevel=2)
    points = []
    for k in range(eps.size):
        projector = np.outer(vecs[:, k], vecs[:, k].conj())
        points.append(rho_to_pvec(projector, quorum))
    return points
