"""Measurement quorum: (2s+1)^2 coherent-state projectors and their duals.

The directions sit on 2s+1 cones about the z axis, 2s+1 equally spaced
azimuths per cone, so each cone is invariant under rotation by 2pi/(2s+1).
The quorum holds exactly as many projectors as a Hermitian operator has
real parameters, so in an orthonormal basis B_a of Hermitian operators the
map rho -> P_n = Tr[Q_n rho] is a square real matrix T[n, a] = Tr[Q_n B_a].
T and T^{-1} are kept: every Tr[Q_n X] is ``Quorum.probabilities``, one
product with T, and every reconstruction ``Quorum.operator``, one with
T^{-1}; the duals are (2s+1) T^{-1} read back as operators.  The Gram
matrix G = T T^T is formed on first use.  Its smallest eigenvalue tests
informational completeness, and its condition number is kappa(T)^2; the
rotation symmetry of the cones splits its spectrum into d blocks of size
d, and both are read from those (see ``build_quorum``).  Every structural
identity the rest of the package relies on (rank-1 projectors, duality,
identity expansion) is verified eagerly at build time.
"""

import functools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedQuorumWarning, SingularQuorumError, require, residual_of
from .spin import Direction, Spin, _as_spin, _freeze, coherent_amplitudes

__all__ = [
    "QuorumConfig",
    "Quorum",
    "default_config",
    "build_quorum",
    "quorum_to_document",
    "quorum_from_document",
]


@dataclass(frozen=True)
class QuorumConfig:
    """Cone angles and per-cone azimuth offsets for one spin.

    Cone angles must lie strictly inside (0, pi); at the poles all azimuths
    collapse onto one direction.  Duplicate cone/offset pairs are not
    rejected here: they surface at build time as a singular Gram matrix,
    which is the meaningful failure (the set is not informationally
    complete).
    """

    spin: Spin
    cone_angles: tuple
    azimuth_offsets: tuple

    def __post_init__(self):
        spin = _as_spin(self.spin)
        object.__setattr__(self, "spin", spin)
        cones = tuple(float(t) for t in self.cone_angles)
        offsets = tuple(float(p) for p in self.azimuth_offsets)
        if len(cones) != spin.dim:
            raise ValueError(f"need {spin.dim} cone angles, got {len(cones)}")
        if len(offsets) != spin.dim:
            raise ValueError(f"need {spin.dim} azimuth offsets, got {len(offsets)}")
        for t in cones:
            if not 0.0 < t < math.pi:
                raise ValueError(f"cone angle {t} outside (0, pi)")
        for p in offsets:
            if not 0.0 <= p < 2 * math.pi:
                raise ValueError(f"azimuth offset {p} outside [0, 2*pi)")
        object.__setattr__(self, "cone_angles", cones)
        object.__setattr__(self, "azimuth_offsets", offsets)


_CONE_COMPRESSION = 0.94


def default_config(spin):
    """Cone angles equally spaced in cos(theta), azimuths staggered by half a step.

    cos(theta_k) runs linearly from +0.94 down to -0.94 (a single equatorial
    cone when 2s = 0), and cone k is twisted by k*pi/(2s+1), interleaving the
    azimuths of adjacent cones.  Both choices are driven by conditioning of
    the Gram matrix: equally spaced *polar angles* lose positive definiteness
    to rounding already near s = 4, while this layout keeps its condition
    number below 1e8 up to s = 5 (2.7e7 at 2s = 10, where the quorum matrix
    itself has kappa(T) = 5.2e3).  Informational completeness is still
    checked at build time, never assumed.
    """
    spin = _as_spin(spin)
    d = spin.dim
    if d == 1:
        cones = (math.pi / 2,)
    else:
        cones = tuple(math.acos(_CONE_COMPRESSION * (1 - 2 * k / (d - 1)))
                      for k in range(d))
    offsets = tuple((k * math.pi / d) % (2 * math.pi) for k in range(d))
    return QuorumConfig(spin, cones, offsets)


@dataclass(frozen=True)
class Quorum:
    """Immutable bundle of directions, projectors, quorum matrix, Gram matrix, and duals.

    Index convention: n = cone * (2s+1) + azimuth (cone-major).
    ``matrix`` is the real N x N quorum matrix T[n, a] = Tr[Q_n B_a] in the
    orthonormal Hermitian basis of ``_hermitian_coordinates``, ``inverse``
    is T^{-1} and ``gram`` = T T^T.  ``dual_traces`` holds e_n =
    Tr[dual_n] / (2s+1), the coefficients of the functional e . P = Tr[rho].
    ``directions`` and ``gram`` serve reports and tests, not the dynamics,
    and are formed on first use.  ``checks`` holds ``build_quorum``'s
    ``Check`` records, which ``condition_number``, ``duality_residual`` and
    ``identity_residual`` read.
    """

    config: QuorumConfig
    amplitudes: np.ndarray
    projectors: np.ndarray
    matrix: np.ndarray
    inverse: np.ndarray
    duals: np.ndarray
    dual_traces: np.ndarray
    min_gram_eigenvalue: float
    checks: tuple

    condition_number = residual_of("condition_number")
    duality_residual = residual_of("duality_residual")
    identity_residual = residual_of("identity_expansion_residual")

    @functools.cached_property
    def directions(self):
        """The N directions as ``Direction`` objects, cone-major."""
        return tuple(Direction(theta, phi) for theta, phi in zip(*_direction_angles(self.config)))

    @functools.cached_property
    def gram(self):
        """G = T T^T, which numpy evaluates as one exactly symmetric product."""
        return _freeze(self.matrix @ self.matrix.T)

    @property
    def spin(self):
        return self.config.spin

    @property
    def dim(self):
        return self.config.spin.dim

    @property
    def size(self):
        return self.config.spin.quorum_size

    def probabilities(self, x):
        """Tr[Q_n X] for Hermitian X, a matrix or a stack (..., d, d), as a real (..., N) array.

        T times the coordinates of X.  Only the entries that are independent
        for Hermitian X are read, so the result is real by construction;
        checking Hermiticity is the caller's job.
        """
        return _hermitian_coordinates(np.asarray(x)) @ self.matrix.T

    def operator(self, c):
        """Inverse of ``probabilities``: (2s+1)^-1 sum_n c_n dual_n for real c (..., N).

        T^{-1} c, scattered into (..., d, d) matrices that are Hermitian exactly.
        """
        return _hermitian_from_coordinates(np.asarray(c) @ self.inverse.T, self.dim)


_SQRT2 = math.sqrt(2.0)


def _direction_angles(config):
    """Polar angles and azimuths of the quorum's directions, cone-major, as two lists.

    Azimuth j of a cone with offset p is p + 2 pi j / (2s+1), reduced to [0, 2 pi).
    """
    d = config.spin.dim
    thetas, phis = [], []
    for theta, offset in zip(config.cone_angles, config.azimuth_offsets):
        for j in range(d):
            phi = math.fmod(offset + 2 * math.pi * j / d, 2 * math.pi)
            if phi < 0.0:
                phi += 2 * math.pi
            thetas.append(theta)
            phis.append(phi)
    return thetas, phis


@functools.cache
def _index_arrays(d):
    """Read-only index arrays of a d x d matrix: (diag, upper, lower, wrapped).

    ``upper, lower`` is ``np.triu_indices(d, 1)``, and ``wrapped[nu, i]`` is
    (i - nu) mod d, so that entry (i, wrapped[nu, i]) lies on the wrapped
    diagonal nu = (i - l) mod d (see ``build_quorum``).
    """
    upper, lower = np.triu_indices(d, 1)
    diag = np.arange(d)
    wrapped = (diag[None, :] - diag[:, None]) % d
    for index in (diag, upper, lower, wrapped):
        index.flags.writeable = False
    return diag, upper, lower, wrapped


def _hermitian_coordinates(a):
    """Coordinates x_a = Tr[A B_a] of Hermitian A (..., d, d) in a real orthonormal basis.

    The basis B_a, with Tr[B_a B_b] = delta_ab, is ordered as: the d matrix
    units E_ii, then (E_ik + E_ki)/sqrt(2) for i < k in ``np.triu_indices``
    order, then i (E_ki - E_ik)/sqrt(2) in the same order.  For Hermitian A
    the coordinates are the gathers A_ii, sqrt(2) Re A_ik and sqrt(2) Im A_ki,
    all real.  Returns a real (..., d^2) array.
    """
    diag, upper, lower, _ = _index_arrays(a.shape[-1])
    return np.concatenate([a[..., diag, diag].real,
                           _SQRT2 * a[..., upper, lower].real,
                           _SQRT2 * a[..., lower, upper].imag], axis=-1)


def _hermitian_from_coordinates(x, d):
    """The Hermitian operators sum_a x_a B_a, (..., d, d), from real coordinates x (..., d^2).

    The inverse of ``_hermitian_coordinates``: entries are scattered, never
    formed as a product with the basis, and the result is Hermitian exactly.
    """
    diag, upper, lower, _ = _index_arrays(d)
    pairs = upper.size
    off = (x[..., d:d + pairs] - 1j * x[..., d + pairs:]) / _SQRT2
    a = np.zeros(x.shape[:-1] + (d, d), dtype=complex)
    a[..., diag, diag] = x[..., :d]
    a[..., upper, lower] = off
    a[..., lower, upper] = off.conj()
    return a


_CONDITION_WARN = 1e8


def build_quorum(config):
    """Construct the full quorum for ``config``, verifying all invariants.

    Steps: lay out the directions' angles cone-major, build all coherent
    states in closed form (``coherent_amplitudes``) and their projectors,
    and check the projectors through the norms: for Q = |psi><psi|,
    Q^2 - Q = (|psi|^2 - 1) Q and Tr Q = |psi|^2.  Gather the quorum
    matrix T[n, a] = Tr[Q_n B_a] in the real orthonormal basis of
    ``_hermitian_coordinates``, and find the extreme eigenvalues of the
    Gram matrix G = T T^T, G_{nn'} = Tr[Q_n Q_n'] = |<n|n'>|^2 (positive
    definiteness, condition number) without forming it; see "Gram
    spectrum" below.  The duals come from one
    real square solve: T is inverted, and
    dual_m = (2s+1) sum_a (T^{-1})[a, m] B_a is scattered back into
    operators.  The scatter writes each off-diagonal pair as a value and
    its conjugate and the diagonal from real input, so the duals are
    Hermitian and their traces real exactly; neither is checked.  Then
    duality (the matrix Tr[Q_n dual_m] / (2s+1) as the real product of T
    with the duals' coordinates, gathered again from the scattered
    operators) and the identity expansion
    sum_n Tr[dual_n] Q_n = (2s+1) * identity are checked.  The expansion is
    compared in coordinates: T^T times the traces, which are (2s+1) times
    the column sums of T^{-1}'s rows for the diagonal units E_ii, against
    (2s+1) on those units.  It tests T^{-1} T where duality tests T T^{-1}.

    Checks, each a ``require`` kept in ``Quorum.checks`` in this order:
    ``projector_norm_deviation`` at most 1e-12, ``condition_number``
    kappa(G) at most 1/(N eps) (positive definiteness: a zero or NaN
    eigenvalue fails it), ``duality_residual`` at most 1e-9 and
    ``identity_expansion_residual`` at most 1e-8.  kappa(G) above 1e8 warns.

    Gram spectrum: from d blocks of size d, not from G.  The rotation about
    z by 2 pi / d takes azimuth j of every cone to j + 1, so
    Q_{c,j}[i, l] = Q_{c,0}[i, l] w^(j (i - l)) with w = e^(2 pi i / d).  G
    has the spectrum of the frame operator S(X) = sum_n Q_n Tr[Q_n X] (T T^T
    against T^T T).  Summed over the d azimuths of a cone, the phases keep
    the part of X on one wrapped diagonal nu = (i - l) mod d and cancel the
    rest, so S acts on that diagonal alone, as d A_nu^dagger A_nu with
    A_nu[c, i] = Q_{c,0}[i, (i - nu) mod d].  G's eigenvalues are therefore
    d sigma^2 over the singular values sigma of the d complex blocks A_nu.
    Singular values carry an error of order eps sigma_max, so the smallest
    eigenvalue is off by about eps kappa(T) relative, not eps kappa(G) as
    from an eigensolver on G: the condition number agrees with that of the
    singular values of T to 1.4e-11 at 2s = 14, where eigenvalues of G
    were off by 1.5e-6.

    Error model: LU with partial pivoting is backward stable, so the
    computed inverse X satisfies (T + dT) X = I with |dT| ~ N eps |T|, and
    the duality residual T X - I is of order kappa(T) eps with
    kappa(T) = sqrt(kappa(G)).  Solving the Gram system instead would make
    it kappa(G) eps: 5.2e3 against 2.7e7 at 2s = 10.

    Raises
    ------
    SingularQuorumError
        Gram matrix not positive definite within tolerance, or the quorum
        matrix singular; the direction set is not informationally complete
        (e.g. duplicated directions).
    InvariantViolationError
        Any eager self-check fails.

    Warns
    -----
    IllConditionedQuorumWarning
        Gram condition number above 1e8.
    """
    spin = config.spin
    d = spin.dim
    size = spin.quorum_size

    amplitudes = coherent_amplitudes(spin, *_direction_angles(config))

    projectors = amplitudes[:, :, None] * amplitudes[:, None, :].conj()
    # Q = |psi><psi| has Q^2 - Q = (|psi|^2 - 1) Q and Tr Q = |psi|^2, so the
    # norms bound both idempotency and trace.
    checks = [require("projector_norm_deviation",
                      np.max(np.abs(np.einsum("nii->n", projectors).real - 1.0)), 1e-12)]

    quorum_matrix = _hermitian_coordinates(projectors)

    # G's eigenvalues are d sigma^2 over the singular values sigma of the d
    # blocks A_nu[c, i] = Q_{c,0}[i, (i - nu) mod d] (docstring).
    diag, _, _, wrapped = _index_arrays(d)
    blocks = projectors[::d][:, diag, wrapped].transpose(1, 0, 2)
    eigs = d * np.linalg.svd(blocks, compute_uv=False) ** 2
    min_eig = float(eigs.min())
    with np.errstate(divide="ignore", invalid="ignore"):  # inf or NaN fails the check
        condition = float(eigs.max() / min_eig)
    checks.append(require("condition_number", condition, 1.0 / (size * np.finfo(float).eps),
                          SingularQuorumError, min_eigenvalue=min_eig))
    if condition > _CONDITION_WARN:
        warnings.warn(
            f"Gram condition number {condition:.3e} exceeds "
            f"{_CONDITION_WARN:.1e}; reconstructions may lose accuracy",
            IllConditionedQuorumWarning, stacklevel=2)

    try:
        inverse = np.linalg.inv(quorum_matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularQuorumError(
            f"quorum matrix is singular ({exc}); direction set is not "
            "informationally complete", min_eigenvalue=min_eig) from exc
    duals = _hermitian_from_coordinates(d * inverse.T, d)

    # delta[n, m] = Tr[Q_n dual_m] / (2s+1) = <n|dual_m|n> / (2s+1), as one
    # real product of coordinates.  Those of the duals are gathered afresh
    # from the scattered operators, so the scatter is checked too.
    delta = quorum_matrix @ _hermitian_coordinates(duals).T / d
    checks.append(require("duality_residual", np.max(np.abs(delta - np.eye(size))), 1e-9))

    raw_traces = (d * inverse[:d]).sum(axis=0)
    identity_image = raw_traces @ quorum_matrix
    identity_image[:d] -= d
    checks.append(require("identity_expansion_residual", np.max(np.abs(identity_image)), 1e-8))

    return Quorum(
        config=config,
        amplitudes=_freeze(amplitudes),
        projectors=_freeze(projectors),
        matrix=_freeze(quorum_matrix),
        inverse=_freeze(inverse),
        duals=_freeze(duals),
        dual_traces=_freeze(raw_traces / d),
        min_gram_eigenvalue=min_eig,
        checks=tuple(checks),
    )


def quorum_to_document(quorum):
    """Serializable description: configuration, directions, conditioning.

    Projectors and duals are intentionally absent; an importer must rebuild
    them so that duality is guaranteed by construction, never by trust in a
    file.
    """
    doc = {
        "two_s": quorum.spin.two_s,
        "cone_angles": list(quorum.config.cone_angles),
        "azimuth_offsets": list(quorum.config.azimuth_offsets),
        "n_points": quorum.size,
        "directions": [[d.theta, d.phi] for d in quorum.directions],
        "condition_number": quorum.condition_number,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def quorum_from_document(text):
    """Rebuild a quorum from a document produced by ``quorum_to_document``.

    Only the configuration is consumed, and ``two_s`` must be a JSON integer;
    directions and condition number, if present, are cross-checked against
    the rebuilt object and a mismatch is an error (the document describes a
    different quorum than it claims).
    """
    data = json.loads(text)
    two_s = data["two_s"]
    if isinstance(two_s, bool) or not isinstance(two_s, int):
        raise ValueError(f"two_s must be a JSON integer, got {two_s!r}")
    config = QuorumConfig(Spin(two_s),
                          tuple(data["cone_angles"]),
                          tuple(data["azimuth_offsets"]))
    quorum = build_quorum(config)
    if "directions" in data:
        recorded = np.asarray(data["directions"], dtype=float)
        rebuilt = np.array([[d.theta, d.phi] for d in quorum.directions])
        if recorded.shape != rebuilt.shape or not np.max(np.abs(recorded - rebuilt)) <= 1e-9:
            raise ValueError("recorded directions do not match the rebuilt quorum")
    if "condition_number" in data:
        recorded_cond = float(data["condition_number"])
        if not math.isclose(recorded_cond, quorum.condition_number, rel_tol=1e-6):
            raise ValueError(
                f"recorded condition number {recorded_cond:.6e} does not match "
                f"rebuilt value {quorum.condition_number:.6e}")
    return quorum
