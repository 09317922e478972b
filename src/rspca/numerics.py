"""Dense linear-algebra kernels.

Singular values and the symmetric eigendecomposition are thin wrappers
over LAPACK (via numpy) that check their input, normalize ordering and
report failures as ``NumericalError``.
"""

import numpy as np

from .errors import NumericalError


def svd(m: np.ndarray) -> np.ndarray:
    """Singular values of m, nonincreasing and nonnegative (no U or V is formed)."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise NumericalError("matrix has non-finite entries", matrix=m)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}", matrix=m) from exc


def sym_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input must be symmetric to within 1e-10 of its Frobenius scale,
    checked on the whole of m - m^T (a temporary freed before ``eigh``,
    whose own buffers set the peak); it is factored as it is, without a
    symmetrized copy.  Returns (eigenvalues, eigenvectors) with eigenvector
    m in column m: LAPACK's ascending order reversed, as views, so exact
    ties keep one order on every CPU.
    """
    m = np.asarray(m, dtype=float)
    scale = 1.0 + np.linalg.norm(m)
    if np.linalg.norm(m - m.T) > 1e-10 * scale:
        raise NumericalError("matrix is not symmetric", matrix=m)
    try:
        evals, evecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}", matrix=m) from exc
    return evals[::-1], evecs[:, ::-1]
