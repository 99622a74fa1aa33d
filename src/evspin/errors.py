"""Exception and warning types shared across the package, and the self-check record."""

from dataclasses import dataclass


class DimensionMismatchError(ValueError):
    """Operands refer to different Hilbert-space or quorum dimensions."""


class NotHermitianError(ValueError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class ConvergenceFailureError(RuntimeError):
    """An iterative eigenvalue routine failed to converge."""


class NonSymmetricCouplingError(ValueError):
    """Quadratic Hamiltonian coefficients must form a symmetric 3x3 matrix."""


class SingularQuorumError(RuntimeError):
    """The Gram matrix of the direction set is not positive definite.

    Equivalently, the square quorum matrix T[n, a] = Tr[Q_n B_a] cannot be
    inverted.

    The configuration is not informationally complete: some Hermitian
    operators cannot be distinguished by the measured probabilities.
    """

    lead = "Gram matrix not positive definite, direction set not informationally complete"

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class InvariantViolationError(RuntimeError):
    """A build-time self-check failed (duality, realness, conservation...).

    Raised eagerly so that a numerically broken object never escapes its
    constructor; downstream results silently depend on these identities.
    """

    lead = "self-check failed"


class ConservationViolationError(InvariantViolationError):
    """The generator violates e^T M = 0, the conservation of e . P = Tr[rho]."""

    lead = "conservation functional violated"


@dataclass(frozen=True)
class Check:
    """One build-time self-check: its residual and the bound it met."""

    name: str
    residual: float
    bound: float


def require(name, residual, bound, error=InvariantViolationError, **details):
    """The ``Check`` of ``residual`` against ``bound``, or ``error`` unless residual <= bound.

    Written "not residual <= bound", so that a NaN residual fails.  The
    message is the error's ``lead``, the name with spaces, the residual and
    the bound; ``details`` go to ``error`` as keywords.
    """
    check = Check(name, float(residual), float(bound))
    if not check.residual <= check.bound:
        raise error(f"{error.lead}: {name.replace('_', ' ')} {check.residual:.3e} "
                    f"exceeds {check.bound:.3e}", **details)
    return check


def residual_of(name):
    """A read-only attribute: the residual of the check ``name`` in ``self.checks``."""
    return property(lambda self: next(c.residual for c in self.checks if c.name == name))


class LambdaOutOfRangeError(ValueError):
    """Convex mixing weight must lie in [0, 1]."""


class MethodUnsupportedError(ValueError):
    """The requested propagation method cannot handle the given system."""


class IllConditionedQuorumWarning(UserWarning):
    """Gram condition number exceeds 1e8, the bound ``build_quorum`` warns above."""


class DegenerateSpectrumWarning(UserWarning):
    """Hamiltonian spectrum is degenerate; the stationary set is a continuum."""
