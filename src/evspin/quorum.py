"""Measurement quorum: (2s+1)^2 coherent-state projectors and their duals.

The directions sit on 2s+1 cones about the z axis, 2s+1 equally spaced
azimuths per cone, so each cone is invariant under rotation by 2pi/(2s+1).
The quorum holds exactly as many projectors as a Hermitian operator has
real parameters, so in an orthonormal basis B_a of Hermitian operators the
map rho -> P_n = Tr[Q_n rho] is a square real matrix T[n, a] = Tr[Q_n B_a].
The duals through which states are reconstructed are (2s+1) T^{-1}, read
back as operators.  The Gram matrix G = T T^T, G_{nn'} = |<n|n'>|^2, is
kept for its spectrum: its smallest eigenvalue tests informational
completeness, and its condition number is kappa(T)^2.  Every structural
identity the rest of the package relies on (rank-1 projectors, duality,
identity expansion) is verified eagerly at build time and fails loudly.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditionedQuorumWarning,
    InvariantViolationError,
    SingularQuorumError,
)
from .linalg import settings
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
    """Immutable bundle of directions, projectors, Gram metric, and duals.

    Index convention: n = cone * (2s+1) + azimuth (cone-major).
    ``dual_traces`` holds e_n = Tr[dual_n] / (2s+1), the coefficients of the
    normalization functional e . P = Tr[rho].
    """

    config: QuorumConfig
    directions: tuple
    amplitudes: np.ndarray
    projectors: np.ndarray
    gram: np.ndarray
    duals: np.ndarray
    dual_traces: np.ndarray
    min_gram_eigenvalue: float
    condition_number: float
    duality_residual: float
    identity_residual: float

    @property
    def spin(self):
        return self.config.spin

    @property
    def dim(self):
        return self.config.spin.dim

    @property
    def size(self):
        return self.config.spin.quorum_size


_SQRT2 = math.sqrt(2.0)


def _hermitian_coordinates(a):
    """Coordinates x_a = Tr[A B_a] of Hermitian A (..., d, d) in a real orthonormal basis.

    The basis B_a, with Tr[B_a B_b] = delta_ab, is ordered as: the d matrix
    units E_ii, then (E_ik + E_ki)/sqrt(2) for i < k in ``np.triu_indices``
    order, then i (E_ki - E_ik)/sqrt(2) in the same order.  For Hermitian A
    the coordinates are the gathers A_ii, sqrt(2) Re A_ik and sqrt(2) Im A_ki,
    all real.  Returns a real (..., d^2) array.
    """
    d = a.shape[-1]
    upper, lower = np.triu_indices(d, 1)
    diag = np.arange(d)
    return np.concatenate([a[..., diag, diag].real,
                           _SQRT2 * a[..., upper, lower].real,
                           _SQRT2 * a[..., lower, upper].imag], axis=-1)


def _hermitian_from_coordinates(x, d):
    """The Hermitian operators sum_a x_a B_a, (..., d, d), from real coordinates x (..., d^2).

    The inverse of ``_hermitian_coordinates``: entries are scattered, never
    formed as a product with the basis, and the result is Hermitian exactly.
    """
    upper, lower = np.triu_indices(d, 1)
    diag = np.arange(d)
    pairs = upper.size
    off = (x[..., d:d + pairs] - 1j * x[..., d + pairs:]) / _SQRT2
    a = np.zeros(x.shape[:-1] + (d, d), dtype=complex)
    a[..., diag, diag] = x[..., :d]
    a[..., upper, lower] = off
    a[..., lower, upper] = off.conj()
    return a


def build_quorum(config, ops=None):
    """Construct the full quorum for ``config``, verifying all invariants.

    Steps: lay out directions cone-major, build all coherent states in
    closed form (``coherent_amplitudes``) and their projectors, and check
    the projectors through the norms: for Q = |psi><psi|,
    Q^2 - Q = (|psi|^2 - 1) Q and Tr Q = |psi|^2.  Form the Gram matrix
    G_{nn'} = |<n|n'>|^2 and its eigenvalues (positive definiteness,
    condition number).  The duals come from one real square solve: the
    quorum matrix T[n, a] = Tr[Q_n B_a] in the real orthonormal basis of
    ``_hermitian_coordinates`` is inverted, and
    dual_m = (2s+1) sum_a (T^{-1})[a, m] B_a is scattered back into
    operators, Hermitian by construction.  Then Hermiticity of the duals,
    duality (the matrix Tr[Q_n dual_m] / (2s+1) as the real product of T
    with the duals' coordinates, gathered again from the scattered
    operators) and the identity expansion
    sum_n Tr[dual_n] Q_n = (2s+1) * identity are checked.  ``ops``, if
    given, must belong to the config's spin; it is not otherwise used.

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
        Condition number above ``settings.condition_warn_threshold``.
    """
    spin = config.spin
    d = spin.dim
    size = spin.quorum_size

    directions = []
    for theta, offset in zip(config.cone_angles, config.azimuth_offsets):
        for j in range(d):
            phi = math.fmod(offset + 2 * math.pi * j / d, 2 * math.pi)
            if phi < 0.0:
                phi += 2 * math.pi
            directions.append(Direction(theta, phi))
    amplitudes = coherent_amplitudes(spin, [dirn.theta for dirn in directions],
                                     [dirn.phi for dirn in directions], ops)

    projectors = amplitudes[:, :, None] * amplitudes[:, None, :].conj()
    # Q = |psi><psi| has Q^2 - Q = (|psi|^2 - 1) Q and Tr Q = |psi|^2, so the
    # norms bound both idempotency and trace.
    norm_dev = float(np.max(np.abs(np.einsum("nii->n", projectors).real - 1.0)))
    if norm_dev > settings.hermiticity_tol:
        raise InvariantViolationError(
            f"projector self-check failed: idempotency and trace off by {norm_dev:.3e}")

    overlaps = amplitudes.conj() @ amplitudes.T
    gram = np.abs(overlaps) ** 2
    gram = (gram + gram.T) / 2.0

    eigs = np.linalg.eigvalsh(gram)
    min_eig = float(eigs[0])
    max_eig = float(eigs[-1])
    if min_eig <= max_eig * size * np.finfo(float).eps:
        raise SingularQuorumError(
            f"Gram matrix not positive definite (min eigenvalue {min_eig:.3e}); "
            "direction set is not informationally complete",
            min_eigenvalue=min_eig)
    condition = max_eig / min_eig
    if condition > settings.condition_warn_threshold:
        warnings.warn(
            f"Gram condition number {condition:.3e} exceeds "
            f"{settings.condition_warn_threshold:.1e}; reconstructions may lose accuracy",
            IllConditionedQuorumWarning, stacklevel=2)

    quorum_matrix = _hermitian_coordinates(projectors)
    try:
        inverse = np.linalg.inv(quorum_matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularQuorumError(
            f"quorum matrix is singular ({exc}); direction set is not "
            "informationally complete", min_eigenvalue=min_eig) from exc
    duals = _hermitian_from_coordinates(d * inverse.T, d)
    herm_dev = float(np.max(np.abs(duals - duals.conj().transpose(0, 2, 1))))
    dual_scale = max(1.0, float(np.max(np.abs(duals))))
    if herm_dev > settings.realness_tol * dual_scale:
        raise InvariantViolationError(f"dual basis asymmetric by {herm_dev:.3e}")

    # delta[n, m] = Tr[Q_n dual_m] / (2s+1) = <n|dual_m|n> / (2s+1), as one
    # real product of coordinates.  Those of the duals are gathered afresh
    # from the scattered operators, so the scatter is checked too.
    delta = quorum_matrix @ _hermitian_coordinates(duals).T / d
    duality_residual = float(np.max(np.abs(delta - np.eye(size))))
    if duality_residual > settings.duality_tol:
        raise InvariantViolationError(
            f"duality residual {duality_residual:.3e} exceeds {settings.duality_tol:.1e} "
            f"at 2s = {spin.two_s} (Gram condition number {condition:.2e}): the direction "
            "layout is too ill-conditioned at this spin")

    raw_traces = np.einsum("nii->n", duals)
    trace_imag = float(np.max(np.abs(raw_traces.imag)))
    if trace_imag > settings.realness_tol:
        raise InvariantViolationError(f"dual traces have imaginary part {trace_imag:.3e}")
    raw_traces = raw_traces.real
    identity_image = (raw_traces @ projectors.reshape(size, d * d)).reshape(d, d)
    identity_residual = float(np.max(np.abs(identity_image - d * np.eye(d))))
    if identity_residual > settings.identity_expansion_tol:
        raise InvariantViolationError(
            f"identity expansion residual {identity_residual:.3e} exceeds "
            f"{settings.identity_expansion_tol:.1e}")

    return Quorum(
        config=config,
        directions=tuple(directions),
        amplitudes=_freeze(amplitudes),
        projectors=_freeze(projectors),
        gram=_freeze(gram),
        duals=_freeze(duals),
        dual_traces=_freeze(raw_traces / d),
        min_gram_eigenvalue=min_eig,
        condition_number=float(condition),
        duality_residual=duality_residual,
        identity_residual=identity_residual,
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

    Only the configuration is consumed; directions and condition number, if
    present, are cross-checked against the rebuilt object and a mismatch is
    an error (the document describes a different quorum than it claims).
    """
    data = json.loads(text)
    config = QuorumConfig(Spin(int(data["two_s"])),
                          tuple(data["cone_angles"]),
                          tuple(data["azimuth_offsets"]))
    quorum = build_quorum(config)
    if "directions" in data:
        recorded = np.asarray(data["directions"], dtype=float)
        rebuilt = np.array([[d.theta, d.phi] for d in quorum.directions])
        if recorded.shape != rebuilt.shape or np.max(np.abs(recorded - rebuilt)) > 1e-9:
            raise ValueError("recorded directions do not match the rebuilt quorum")
    if "condition_number" in data:
        recorded_cond = float(data["condition_number"])
        if not math.isclose(recorded_cond, quorum.condition_number, rel_tol=1e-6):
            raise ValueError(
                f"recorded condition number {recorded_cond:.6e} does not match "
                f"rebuilt value {quorum.condition_number:.6e}")
    return quorum
