"""The symmetric eigendecomposition of the PCA model matrix.

A thin wrapper over LAPACK (via numpy) that fixes the eigenvalue order
and reports a failure as ``NumericalError``.  Inputs are finite:
``dataset._dataset`` bounds every count.
"""

import numpy as np

from .errors import NumericalError


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
