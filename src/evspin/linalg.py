"""Dense linear-algebra kernels used throughout the package.

Thin, contract-enforcing wrappers around numpy alone: the Hermiticity
deviation of a matrix or a stack, the one Hermiticity check every module
calls, and Hermitian eigendecomposition.  Each check in the package owns its
bound, stated beside it; this module's is the Hermiticity bound 1e-12.
"""

import numpy as np

from .errors import ConvergenceFailureError, DimensionMismatchError, NotHermitianError

__all__ = [
    "hermiticity_deviation",
    "require_hermitian",
    "hermitian_eigendecomposition",
]


_HERMITICITY_TOL = 1e-12


def hermiticity_deviation(a):
    """Largest entrywise deviation |A - A^dagger| over a matrix or a stack (..., d, d)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - np.swapaxes(a.conj(), -1, -2))))


def require_hermitian(a, what="matrix"):
    """Raise NotHermitianError if max |A - A^dagger| over the entries of ``a`` exceeds 1e-12.

    ``a`` is a matrix or a stack (..., d, d); ``what`` names it in the message.
    """
    dev = hermiticity_deviation(a)
    if dev > _HERMITICITY_TOL:
        raise NotHermitianError(
            f"{what} is not Hermitian: max |A - A^dagger| = {dev:.3e} exceeds "
            f"{_HERMITICITY_TOL:.1e}")


def hermitian_eigendecomposition(a):
    """Eigen-decompose a Hermitian matrix, or every matrix of a stack.

    Parameters
    ----------
    a : (..., d, d) array_like
        Hermitian within 1e-12 (``require_hermitian``, checked entrywise,
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
    require_hermitian(a)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    return eigenvalues, eigenvectors
