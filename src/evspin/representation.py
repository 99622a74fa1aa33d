"""States as probability vectors over a quorum.

A density matrix rho maps to P_n = <n_n|rho|n_n>, the probability of
measuring the maximal projection along direction n_n.  The inverse map
``Quorum.operator`` rebuilds rho from P.  For physical states every P_n
lies in [0, 1], the weighted sum e . P equals Tr[rho] = 1, and the plain sum
stays strictly between 0 and (2s+1)^2 -- the components are probabilities of
*incompatible* measurements and do not sum to one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, LambdaOutOfRangeError, require
from .linalg import require_hermitian
from .quorum import _hermitian_coordinates, _hermitian_from_coordinates
from .spin import _freeze

__all__ = [
    "PVector",
    "PhysicalityReport",
    "OperatorCoefficients",
    "rho_to_pvec",
    "pvec_to_rho",
    "expand_operator",
    "expectation",
    "convex_mix",
]


@dataclass(frozen=True)
class PVector:
    """Real probability vector of length (2s+1)^2, tied to its quorum."""

    values: np.ndarray
    quorum: object

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.quorum.size,):
            raise DimensionMismatchError(
                f"expected {self.quorum.size} components, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("probability vector contains non-finite entries")
        object.__setattr__(self, "values", _freeze(values.copy()))

    @property
    def normalization(self):
        """e . P, which equals Tr[rho] for the reconstructed state."""
        return float(np.dot(self.quorum.dual_traces, self.values))


@dataclass(frozen=True)
class PhysicalityReport:
    """Diagnostics attached to a reconstructed density matrix."""

    trace: float
    min_eigenvalue: float
    e_dot_p: float

    @property
    def physical(self):
        return self.min_eigenvalue >= -1e-10 and abs(self.trace - 1.0) <= 1e-9


@dataclass(frozen=True)
class OperatorCoefficients:
    """Expansion coefficients of one Hermitian operator in both bases.

    ``primal[n] = Tr[A dual_n]`` expands A over the projectors;
    ``dual[n] = Tr[A Q_n]`` expands A over the dual basis.  Both are real
    for Hermitian A.
    """

    primal: np.ndarray
    dual: np.ndarray
    quorum: object


def _same_quorum(a, b):
    if a.quorum is not b.quorum:
        raise DimensionMismatchError("operands belong to different quorums")


def rho_to_pvec(rho, quorum):
    """Probabilities P_n = <n_n|rho|n_n> = Tr[Q_n rho] of a Hermitian matrix rho.

    Linear in rho, so unnormalized input is allowed.  rho must be Hermitian
    within 1e-12 (``require_hermitian``); P is then ``quorum.probabilities``,
    real by construction.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (quorum.dim, quorum.dim):
        raise DimensionMismatchError(
            f"state is {rho.shape}, quorum expects {quorum.dim}x{quorum.dim}")
    require_hermitian(rho, "state")
    return PVector(quorum.probabilities(rho), quorum)


def pvec_to_rho(p):
    """Reconstruct rho = (2s+1)^-1 sum_n P_n dual_n, with a physicality report.

    rho is ``quorum.operator(P)``, Hermitian exactly.  Unphysical input is
    *not* rejected: points satisfying the bounds and the normalization
    constraint need not correspond to a positive operator, and seeing such
    excursions is exactly what the report is for.  The round trip
    rho_to_pvec(pvec_to_rho(P)) reproduces P by duality.
    """
    rho = p.quorum.operator(p.values)
    min_eig = float(np.min(np.linalg.eigvalsh(rho)))
    report = PhysicalityReport(
        trace=float(np.trace(rho).real),
        min_eigenvalue=min_eig,
        e_dot_p=p.normalization,
    )
    return rho, report


def expand_operator(a, quorum):
    """Coefficients of a Hermitian operator in both quorum bases.

    For the coordinates x of A, the dual coefficients Tr[A Q_n] are
    ``quorum.probabilities(a)`` = T x and the primal ones Tr[A dual_n] are
    (2s+1) (x T^{-1})[n], both real by construction.  Both reconstruction
    identities, A = (2s+1)^-1 sum_n primal[n] Q_n  and
    A = (2s+1)^-1 sum_n dual[n] dual_n, which test T^{-1} T on this A,
    are verified entrywise before returning.  Bounds: ``a`` Hermitian
    within 1e-12 (``require_hermitian``), reconstruction error at most
    1e-9 * max(1, max|A|): the error is linear in A and grows like
    kappa(T) eps (at most 2.2e-12 max|A| for 50 random A at 2s = 10,
    kappa(T) = 5.2e3).
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (quorum.dim, quorum.dim):
        raise DimensionMismatchError(
            f"operator is {a.shape}, quorum expects {quorum.dim}x{quorum.dim}")
    require_hermitian(a, "operator")

    # An A near the overflow threshold makes these inf or NaN; the check rejects them.
    with np.errstate(over="ignore", invalid="ignore"):
        primal = quorum.dim * (_hermitian_coordinates(a) @ quorum.inverse)
        dual = quorum.probabilities(a)
        recon_primal = _hermitian_from_coordinates(primal @ quorum.matrix / quorum.dim,
                                                   quorum.dim)
        recon_dual = quorum.operator(dual)
        require("operator_reconstruction_error",
                np.max(np.abs([recon_primal - a, recon_dual - a])),
                1e-9 * max(1.0, float(np.max(np.abs(a)))))
    return OperatorCoefficients(_freeze(primal), _freeze(dual), quorum)


def expectation(coefficients, p):
    """<A> = (2s+1)^-1 sum_n primal[n] P_n, equal to Tr[A rho(P)]."""
    _same_quorum(coefficients, p)
    return float(np.dot(coefficients.primal, p.values)) / p.quorum.dim


def convex_mix(pa, pb, lam):
    """Straight-line mix Pa + lam * (Pb - Pa), the image of state mixing.

    Mixing density matrices and mixing their probability vectors commute
    because both maps are linear.
    """
    _same_quorum(pa, pb)
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise LambdaOutOfRangeError(f"mixing weight must lie in [0, 1], got {lam}")
    return PVector(pa.values + lam * (pb.values - pa.values), pa.quorum)
