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
    with np.errstate(invalid="ignore"):  # inf - inf: a non-finite entry reads NaN
        return float(np.max(np.abs(a - np.swapaxes(a.conj(), -1, -2))))


def require_hermitian(a, what="matrix"):
    """Raise NotHermitianError unless max |A - A^dagger| over the entries of ``a`` is <= 1e-12.

    ``a`` is a matrix or a stack (..., d, d); ``what`` names it in the message.
    """
    dev = hermiticity_deviation(a)
    if not np.isfinite(dev):
        raise NotHermitianError(f"{what} has non-finite entries")
    if not dev <= _HERMITICITY_TOL:
        raise NotHermitianError(
            f"{what} is not Hermitian: max |A - A^dagger| = {dev:.3e} exceeds "
            f"{_HERMITICITY_TOL:.1e}")


def hermitian_eigendecomposition(a):
    """Eigen-decompose a Hermitian matrix, or every matrix of a stack.

    Parameters
    ----------
    a : (..., d, d) array_like
        Finite and Hermitian within 1e-12 (``require_hermitian``, checked
        entrywise, which keeps error reports local to the offending
        entries).  A stack is decomposed in one call, matrix by matrix
        exactly as separate calls would; one failing member fails it all.

    Returns
    -------
    eigenvalues : (..., d) ndarray
        Real, in ascending order.
    eigenvectors : (..., d, d) ndarray
        Unitary; column ``k`` belongs to ``eigenvalues[..., k]``.

    Raises
    ------
    NotHermitianError
        If the input fails the Hermiticity check or has a non-finite entry.
    ConvergenceFailureError
        If the underlying QR iteration stalls.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(
            f"matrix must be square or a stack of square matrices, got shape {a.shape}")
    require_hermitian(a)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    return eigenvalues, eigenvectors
