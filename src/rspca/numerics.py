"""Dense linear-algebra kernels.

Singular values and the symmetric eigendecomposition are thin wrappers
over LAPACK (via numpy) that normalize ordering and report failures as
``NumericalError``.  Inputs are finite: ``dataset._dataset`` bounds every count.
"""

import numpy as np

from .errors import NumericalError


def svd(m: np.ndarray) -> np.ndarray:
    """Singular values of m, nonincreasing and nonnegative (no U or V is formed)."""
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}", matrix=m) from exc


def sym_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the symmetric matrix whose lower triangle m holds.

    ``eigh`` reads only that triangle, diagonal included, so m is factored
    without a symmetrized copy.  Returns (eigenvalues, eigenvectors) with
    eigenvector m in column m: LAPACK's ascending order reversed, as views,
    so exact ties keep one order on every CPU.
    """
    try:
        evals, evecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}", matrix=m) from exc
    return evals[::-1], evecs[:, ::-1]
