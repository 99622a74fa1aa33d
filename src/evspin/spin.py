"""Spin-s operator algebra, coherent states, and density-matrix evolution.

Conventions used package-wide:

* hbar = 1, so Hamiltonian coefficients are angular frequencies.
* Basis ordering mu = s, s-1, ..., -s; the maximal-projection state along z
  is the first basis vector.
* Coherent states are that state rotated by exp(-i theta m(phi).s),
  m(phi) = (-sin phi, cos phi, 0), with no additional phase applied.  The
  rotation is evaluated in closed form: the amplitude on basis index k
  (mu = s - k) is sqrt(C(2s, k)) cos^(2s-k)(theta/2) sin^k(theta/2) e^(i k phi).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonSymmetricCouplingError
from .linalg import hermitian_eigendecomposition, require_hermitian

__all__ = [
    "Spin",
    "SpinOperators",
    "spin_operators",
    "Direction",
    "CoherentState",
    "coherent_amplitudes",
    "coherent_state",
    "Envelope",
    "Drive",
    "HamiltonianSpec",
    "build_hamiltonian",
    "pure_state_density",
    "basis_state",
    "maximally_mixed",
    "random_pure_state",
    "random_density_matrix",
    "random_hermitian",
    "validate_density_matrix",
    "evolve_density_matrix",
]


@dataclass(frozen=True)
class Spin:
    """Spin quantum number, stored exactly as the integer 2s."""

    two_s: int

    def __post_init__(self):
        if isinstance(self.two_s, bool) or not isinstance(self.two_s, (int, np.integer)):
            raise TypeError("two_s must be an integer; use Spin.from_s for half-integer s")
        if self.two_s < 0:
            raise ValueError("two_s must be non-negative")
        object.__setattr__(self, "two_s", int(self.two_s))

    @classmethod
    def from_s(cls, s):
        two_s = round(2 * float(s))
        if abs(2 * float(s) - two_s) > 1e-9 or two_s < 0:
            raise ValueError(f"s must be a non-negative half-integer, got {s}")
        return cls(two_s)

    @property
    def s(self):
        return self.two_s / 2.0

    @property
    def dim(self):
        """Hilbert-space dimension 2s+1."""
        return self.two_s + 1

    @property
    def quorum_size(self):
        """Number of probabilities needed to pin down a state: (2s+1)^2."""
        return self.dim * self.dim

    @property
    def m_values(self):
        """Projections mu = s, s-1, ..., -s (exact in binary floats)."""
        return np.arange(self.two_s, -self.two_s - 1, -2) / 2.0


def _as_spin(spin):
    if isinstance(spin, Spin):
        return spin
    return Spin.from_s(spin)


@dataclass(frozen=True)
class SpinOperators:
    """The dimensionless matrices sx, sy, sz for one spin, sz diagonal."""

    spin: Spin
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


def _freeze(arr):
    arr.flags.writeable = False
    return arr


def spin_operators(spin):
    """Build sx, sy, sz in the sz eigenbasis.

    Standard ladder construction: the raising operator has real,
    non-negative elements sqrt(s(s+1) - mu(mu+1)) on the superdiagonal, so
    [sx, sy] = i sz and cyclic permutations hold to machine precision and
    sx^2 + sy^2 + sz^2 = s(s+1) * identity.
    """
    spin = _as_spin(spin)
    s = spin.s
    m = spin.m_values
    raising = np.zeros((spin.dim, spin.dim), dtype=complex)
    if spin.dim > 1:
        ladder = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
        raising[np.arange(spin.dim - 1), np.arange(1, spin.dim)] = ladder
    lowering = raising.conj().T
    sx = (raising + lowering) / 2.0
    sy = (raising - lowering) / 2.0j
    sz = np.diag(m.astype(complex))
    return SpinOperators(spin, _freeze(sx), _freeze(sy), _freeze(sz))


@dataclass(frozen=True)
class Direction:
    """Point on the unit sphere: polar angle theta, azimuth phi."""

    theta: float
    phi: float

    def __post_init__(self):
        theta = float(self.theta)
        phi = float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError("direction angles must be finite")
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta}")
        if not 0.0 <= phi < 2 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {phi}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    @property
    def unit_vector(self):
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi),
                         st * math.sin(self.phi),
                         math.cos(self.theta)])

    def angle_to(self, other):
        """Angle between the two unit vectors, in [0, pi]."""
        c = float(np.clip(np.dot(self.unit_vector, other.unit_vector), -1.0, 1.0))
        return math.acos(c)


@dataclass(frozen=True)
class CoherentState:
    """Maximal-projection eigenstate of n.s, in the sz eigenbasis."""

    spin: Spin
    direction: Direction
    amplitudes: np.ndarray


def coherent_amplitudes(spin, thetas, phis):
    """Amplitudes of the coherent states along (thetas[k], phis[k]), shape (K, d).

    The rotation exp(-i theta m(phi).s) of the maximal sz eigenstate, with
    m(phi) = (-sin phi, cos phi, 0), has the closed form (Arecchi, Courtens,
    Gilmore & Thomas, PRA 6, 2211, 1972)

        a_k = sqrt(C(2s, k)) cos^(2s-k)(theta/2) sin^k(theta/2) e^(i k phi)

    for basis index k, mu = s - k.  The half-angle cosines and sines and the
    azimuth's cosine and sine are taken per angle with ``math``; powers and
    phases then follow by repeated real multiplication, one rounded
    operation per step, so every row is bit for bit what a separate call per
    direction gives.
    """
    spin = _as_spin(spin)
    two_s = spin.two_s
    halves = [0.5 * float(theta) for theta in thetas]
    # Columns j = 0..2s of [1, x, x, ...] multiplied out: x^j.
    powers = np.ones((2, len(halves), spin.dim))
    powers[0, :, 1:] = np.array([math.cos(h) for h in halves])[:, None]
    powers[1, :, 1:] = np.array([math.sin(h) for h in halves])[:, None]
    cos_pow, sin_pow = np.cumprod(powers, axis=2)
    binomial = np.sqrt([float(math.comb(two_s, k)) for k in range(spin.dim)])
    magnitudes = binomial * cos_pow[:, ::-1] * sin_pow
    # e^(i k phi) by the angle-addition recurrence, in real arithmetic.
    cos_phi = np.array([math.cos(phi) for phi in phis])
    sin_phi = np.array([math.sin(phi) for phi in phis])
    real = np.empty_like(magnitudes)
    imag = np.empty_like(magnitudes)
    real[:, 0], imag[:, 0] = 1.0, 0.0
    for k in range(1, spin.dim):
        real[:, k] = real[:, k - 1] * cos_phi - imag[:, k - 1] * sin_phi
        imag[:, k] = real[:, k - 1] * sin_phi + imag[:, k - 1] * cos_phi
    amplitudes = np.empty(magnitudes.shape, dtype=complex)
    amplitudes.real = magnitudes * real
    amplitudes.imag = magnitudes * imag
    return amplitudes


def coherent_state(spin, direction):
    """Coherent state along ``direction``: the one-row case of ``coherent_amplitudes``."""
    spin = _as_spin(spin)
    amplitudes = coherent_amplitudes(spin, [direction.theta], [direction.phi])[0]
    return CoherentState(spin, direction, _freeze(amplitudes))


@dataclass(frozen=True)
class Envelope:
    """Drive profile f(t), evaluated on a scalar time or on an array of times.

    A scalar t gives a float; an array gives an array of its shape, each
    entry bit for bit the float of a scalar call, since both go through the
    same numpy expression.

    Shapes:
      * ``constant``  : f(t) = amplitude
      * ``cosine``    : f(t) = amplitude * cos(frequency * t + phase)
      * ``piecewise`` : f(t) = values[k] on the interval ending at
        breakpoints[k]; values has one more entry than breakpoints.
    """

    shape: str = "constant"
    amplitude: float = 1.0
    frequency: float = 0.0
    phase: float = 0.0
    breakpoints: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.shape not in ("constant", "cosine", "piecewise"):
            raise ValueError(f"unknown envelope shape {self.shape!r}")
        object.__setattr__(self, "breakpoints", tuple(float(t) for t in self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.shape == "piecewise":
            if len(self.values) != len(self.breakpoints) + 1:
                raise ValueError("piecewise envelope needs len(values) == len(breakpoints) + 1")
            if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
                raise ValueError("breakpoints must be strictly increasing")

    @property
    def max_abs(self):
        """Largest |f(t)| over all t."""
        if self.shape == "piecewise":
            return max(abs(v) for v in self.values)
        return abs(self.amplitude)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.shape == "constant":
            f = np.full(t.shape, self.amplitude, dtype=float)
        elif self.shape == "cosine":
            f = self.amplitude * np.cos(self.frequency * t + self.phase)
        else:
            # side="right": a time on a breakpoint takes the value after it
            f = np.asarray(self.values)[np.searchsorted(self.breakpoints, t, side="right")]
        return float(f) if t.ndim == 0 else f


@dataclass(frozen=True)
class Drive:
    """Time-dependent Hamiltonian term f(t) * H1."""

    term: "HamiltonianSpec"
    envelope: Envelope

    def __post_init__(self):
        if self.term.drive is not None:
            raise ValueError("drive terms cannot be nested")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Linear plus symmetrized-quadratic Hamiltonian coefficients.

    H = sum_i linear[i] * s_i
        + sum_ij quadratic[i][j] * (s_i s_j + s_j s_i) / 2
        (+ f(t) * H_drive when a drive is attached)

    All coefficients are angular frequencies (hbar = 1).
    """

    linear: tuple = (0.0, 0.0, 0.0)
    quadratic: tuple = None
    drive: Drive = None

    def __post_init__(self):
        linear = tuple(float(x) for x in self.linear)
        if len(linear) != 3:
            raise ValueError("linear coefficients must have length 3")
        object.__setattr__(self, "linear", linear)
        if self.quadratic is not None:
            quad = tuple(tuple(float(x) for x in row) for row in self.quadratic)
            if len(quad) != 3 or any(len(row) != 3 for row in quad):
                raise ValueError("quadratic coefficients must form a 3x3 matrix")
            object.__setattr__(self, "quadratic", quad)


def build_hamiltonian(spec, ops):
    """Static part of the Hamiltonian matrix for ``spec`` (drive excluded).

    Raises NonSymmetricCouplingError if the quadratic coefficient matrix is
    asymmetric by more than 1e-12 in any entry; symmetry is what makes the
    symmetrized products a faithful parameterization.  Raises ValueError if
    an entry of H is not finite, as when the coefficients overflow it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.asarray(spec.linear, dtype=float)
        h = b[0] * ops.sx + b[1] * ops.sy + b[2] * ops.sz
        if spec.quadratic is not None:
            c = np.asarray(spec.quadratic, dtype=float)
            dev = float(np.max(np.abs(c - c.T)))
            if not dev <= 1e-12:
                raise NonSymmetricCouplingError(
                    f"quadratic coefficients asymmetric by {dev:.3e}")
            svec = (ops.sx, ops.sy, ops.sz)
            for i in range(3):
                for j in range(3):
                    if c[i, j] != 0.0:
                        h = h + c[i, j] * (svec[i] @ svec[j] + svec[j] @ svec[i]) / 2.0
    if not np.all(np.isfinite(h)):
        raise ValueError("Hamiltonian has non-finite entries (a coefficient is not finite "
                         "or overflows)")
    return h


def pure_state_density(amplitudes):
    """Rank-1 density matrix |psi><psi| from a (normalized) state vector."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm_sq = float(np.vdot(v, v).real)
    if norm_sq == 0.0:
        raise ValueError("state vector is zero")
    return np.outer(v, v.conj()) / norm_sq


def basis_state(spin, mu):
    """Amplitudes of the sz eigenstate |s, mu>."""
    spin = _as_spin(spin)
    idx = round(spin.s - float(mu))
    if abs(spin.s - float(mu) - idx) > 1e-9 or not 0 <= idx < spin.dim:
        raise ValueError(f"mu must be one of {list(spin.m_values)}, got {mu}")
    v = np.zeros(spin.dim, dtype=complex)
    v[idx] = 1.0
    return v


def maximally_mixed(dim):
    """identity / d."""
    return np.eye(int(dim), dtype=complex) / int(dim)


def random_pure_state(dim, rng):
    z = rng.standard_normal(int(dim)) + 1j * rng.standard_normal(int(dim))
    return z / np.linalg.norm(z)


def random_density_matrix(dim, rng):
    """Random physical state V diag(p) V^dagger with p a probability vector."""
    dim = int(dim)
    p = rng.random(dim)
    p = p / p.sum()
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return (q * p) @ q.conj().T


def random_hermitian(dim, rng):
    dim = int(dim)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


def validate_density_matrix(rho):
    """Check Hermiticity, unit trace, and positive semidefiniteness.

    Bounds: Hermitian within ``require_hermitian``'s 1e-12, |Tr rho - 1| at
    most 1e-12, smallest eigenvalue at least -1e-10.  Returns the input
    unchanged on success so calls can be inlined.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"density matrix must be square, got {rho.shape}")
    require_hermitian(rho, "density matrix")
    trace = float(np.trace(rho).real)
    if not abs(trace - 1.0) <= 1e-12:
        raise ValueError(f"trace is {trace!r}, expected 1")
    smallest = float(np.min(np.linalg.eigvalsh(rho)))
    if not smallest >= -1e-10:
        raise ValueError(f"negative eigenvalue {smallest:.3e}")
    return rho


def evolve_density_matrix(rho0, hmat, t):
    """Propagate rho0 for time t under Hermitian hmat (hbar = 1).

    Conjugation by U = exp(-i H t), with U built from the
    eigendecomposition of H; preserves trace, Hermiticity, and spectrum.
    ``t`` may also be a 1-D array of times: H is diagonalised once and the
    result is the stack of rho(t), shape (len(t), d, d).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    w, v = hermitian_eigendecomposition(hmat)
    if rho0.shape != (w.size, w.size):
        raise DimensionMismatchError(
            f"state is {rho0.shape}, Hamiltonian is {w.size}x{w.size}")
    t = np.asarray(t, dtype=float)
    u = (v * np.exp(-1j * w * t[..., None])[..., None, :]) @ v.conj().T
    return u @ rho0 @ np.swapaxes(u.conj(), -1, -2)
