"""Dense linear-algebra kernels.

Singular values and the symmetric eigendecomposition are thin wrappers
over LAPACK (via numpy) that check their input, normalize ordering and
report failures as ``NumericalError``.
"""

import numpy as np

from .errors import NumericalError

_BAND_ROWS = 128  # rows of m - m^T formed at a time by the symmetry check


def svd(m: np.ndarray) -> np.ndarray:
    """Singular values of m, nonincreasing and nonnegative (no U or V is formed)."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise NumericalError("matrix has non-finite entries", matrix=m)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}", matrix=m) from exc


def _asymmetry(m: np.ndarray) -> float:
    """||m - m^T||_F, formed a band of rows at a time."""
    square = 0.0
    for start in range(0, len(m), _BAND_ROWS):
        diff = (m[start:start + _BAND_ROWS] - m[:, start:start + _BAND_ROWS].T).ravel()
        square += float(diff @ diff)
    return np.sqrt(square)


def sym_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input must be symmetric to within 1e-10 of its Frobenius scale;
    it is factored as it is, without a symmetrized copy.  Returns
    (eigenvalues, eigenvectors) with eigenvector m in column m.  LAPACK
    returns them ascending: when ``argsort``'s descending order is the
    exact reversal (always, unless eigenvalues tie) both are reversed
    views, so no dim x dim array is made beyond what ``eigh`` allocates;
    otherwise that order is applied by indexing.
    """
    m = np.asarray(m, dtype=float)
    scale = 1.0 + np.linalg.norm(m)
    if _asymmetry(m) > 1e-10 * scale:
        raise NumericalError("matrix is not symmetric", matrix=m)
    try:
        evals, evecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}", matrix=m) from exc
    order = np.argsort(evals)[::-1]
    if np.array_equal(order, np.arange(len(order))[::-1]):
        return evals[::-1], evecs[:, ::-1]
    return evals[order], evecs[:, order]
