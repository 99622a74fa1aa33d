"""Dense linear-algebra kernels used throughout the package.

Thin, contract-enforcing wrappers around numpy alone: the Hermiticity
deviation of a matrix or a stack, and Hermitian eigendecomposition.  All
tolerances live in the single mutable ``settings`` instance so they can be
adjusted in one place.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailureError, DimensionMismatchError, NotHermitianError

__all__ = [
    "Settings",
    "settings",
    "hermiticity_deviation",
    "hermitian_eigendecomposition",
]


@dataclass
class Settings:
    """Numerical tolerances shared by every module.

    Defaults are roughly 100x machine epsilon times the typical scale of the
    quantity they guard.  Mutate the global ``settings`` instance rather than
    passing tolerances around.
    """

    hermiticity_tol: float = 1e-12
    realness_tol: float = 1e-10
    cross_check_tol: float = 1e-10
    duality_tol: float = 1e-9
    conservation_tol: float = 1e-9
    identity_expansion_tol: float = 1e-8
    degeneracy_tol: float = 1e-9
    condition_warn_threshold: float = 1e8


settings = Settings()


def hermiticity_deviation(a):
    """Largest entrywise deviation |A - A^dagger| over a matrix or a stack (..., d, d)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - np.swapaxes(a.conj(), -1, -2))))


def hermitian_eigendecomposition(a):
    """Eigen-decompose a Hermitian matrix, or every matrix of a stack.

    Parameters
    ----------
    a : (..., d, d) array_like
        Hermitian within ``settings.hermiticity_tol`` (checked entrywise,
        which keeps error reports local to the offending entries).  A stack
        is decomposed in one call, matrix by matrix exactly as separate
        calls would; one failing member fails the whole stack.

    Returns
    -------
    eigenvalues : (..., d) ndarray
        Real, in ascending order.
    eigenvectors : (..., d, d) ndarray
        Unitary; column ``k`` belongs to ``eigenvalues[..., k]``.

    Raises
    ------
    NotHermitianError
        If the input fails the Hermiticity check.
    ConvergenceFailureError
        If the underlying QR iteration stalls.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(
            f"matrix must be square or a stack of square matrices, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(np.abs(a))):
        raise ValueError("matrix contains non-finite entries")
    dev = hermiticity_deviation(a)
    if dev > settings.hermiticity_tol:
        raise NotHermitianError(
            f"max |A - A^dagger| = {dev:.3e} exceeds "
            f"{settings.hermiticity_tol:.1e}")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    return eigenvalues, eigenvectors
