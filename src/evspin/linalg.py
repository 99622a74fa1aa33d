"""Dense linear-algebra kernels used throughout the package.

Thin, contract-enforcing wrappers around numpy/scipy: Hermitian
eigendecomposition and symmetric positive-definite solves.  All tolerances
live in the single mutable ``settings`` instance so they can be adjusted in
one place.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    NotHermitianError,
    SingularMatrixError,
)

__all__ = [
    "Settings",
    "settings",
    "hermiticity_deviation",
    "hermitian_eigendecomposition",
    "solve_spd",
]


@dataclass
class Settings:
    """Numerical tolerances shared by every module.

    Defaults are roughly 100x machine epsilon times the typical scale of the
    quantity they guard.  Mutate the global ``settings`` instance rather than
    passing tolerances around.
    """

    hermiticity_tol: float = 1e-12
    residual_tol: float = 1e-10
    realness_tol: float = 1e-10
    cross_check_tol: float = 1e-10
    duality_tol: float = 1e-9
    conservation_tol: float = 1e-9
    identity_expansion_tol: float = 1e-8
    degeneracy_tol: float = 1e-9
    condition_warn_threshold: float = 1e8


settings = Settings()


def _as_square(a, name="matrix"):
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(
            f"{name} must be square, got shape {arr.shape}")
    return arr


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


def _spd_condition_estimate(g):
    try:
        w = np.linalg.eigvalsh(g)
    except np.linalg.LinAlgError:
        return float("inf")
    if w.size == 0:
        return 1.0
    largest = float(np.max(np.abs(w)))
    smallest = float(np.min(np.abs(w)))
    if smallest <= 0.0:
        return float("inf")
    return largest / smallest


def solve_spd(g, b):
    """Solve ``G X = B`` for symmetric positive-definite ``G``.

    One Cholesky factorization and solve; the max-norm residual must lie
    below ``settings.residual_tol * max|B|``.  ``B`` may be real or
    complex; ``G`` must be real symmetric.

    Raises
    ------
    SingularMatrixError
        If ``G`` is not positive definite, or the residual target is not
        met.  The exception carries ``condition_estimate``.
    """
    g = _as_square(g, "gram")
    if np.iscomplexobj(g):
        raise TypeError("G must be a real symmetric matrix")
    g = np.asarray(g, dtype=float)
    b = np.asarray(b)
    if b.shape[0] != g.shape[0]:
        raise DimensionMismatchError(
            f"right-hand side has {b.shape[0]} rows, G is {g.shape[0]}x{g.shape[0]}")
    sym_dev = float(np.max(np.abs(g - g.T))) if g.size else 0.0
    if sym_dev > settings.hermiticity_tol * max(1.0, float(np.max(np.abs(g))) if g.size else 1.0):
        raise ValueError(f"G is not symmetric (max |G - G^T| = {sym_dev:.3e})")
    try:
        factor = scipy.linalg.cho_factor(g, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"G is not positive definite: {exc}",
            condition_estimate=_spd_condition_estimate(g)) from exc
    x = scipy.linalg.cho_solve(factor, b)
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    if scale == 0.0:
        return np.zeros_like(x)
    residual = float(np.max(np.abs(b - g @ x)))
    if residual > settings.residual_tol * scale:
        raise SingularMatrixError(
            f"residual {residual:.3e} exceeds {settings.residual_tol:.1e} * |B|",
            condition_estimate=_spd_condition_estimate(g))
    return x

