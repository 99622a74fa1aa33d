"""Exception and warning types shared across the package."""


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

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class InvariantViolationError(RuntimeError):
    """A build-time self-check failed (duality, realness, conservation...).

    Raised eagerly so that a numerically broken object never escapes its
    constructor; downstream results silently depend on these identities.
    """


class LambdaOutOfRangeError(ValueError):
    """Convex mixing weight must lie in [0, 1]."""


class MethodUnsupportedError(ValueError):
    """The requested propagation method cannot handle the given system."""


class IllConditionedQuorumWarning(UserWarning):
    """Gram condition number exceeds 1e8, the bound ``build_quorum`` warns above."""


class DegenerateSpectrumWarning(UserWarning):
    """Hamiltonian spectrum is degenerate; the stationary set is a continuum."""
