"""Gini variances and simplex-embedded covariances between categorical variables.

The covariance of a variable pair is the maximum over rotations of the
cross-covariance of their embedded coordinates: the nuclear norm of
V_i^T C_ij V_j, with C_ij = P_ij - p_i p_j^T the centred joint distribution.
Simplex vertices are Helmert rows scaled by 1/sqrt(2) and C_ij is orthogonal
to the all-ones vectors, so that matrix has the singular values of C_ij / 2
and everything here is read off C_ij without the embedding, which only the
PCA model (``pca``) uses.  The SVD route is the primary path; the Newton
solve of the stationarity system is kept as an independent oracle.
"""

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import numerics
from .dataset import CategoricalDataset, joint_table
from .errors import NumericalError


@dataclass(frozen=True)
class CovarianceResult:
    """A covariance value with the rotation and singular values behind it.

    ``sigma`` is the sum of ``singular_values``.  ``rotation`` maximizes
    trace(A L^T); for rectangular cross matrices it is the partial isometry
    U V^T (orthonormal on the smaller side).  When singular values repeat
    or vanish the maximizer is not unique and only ``sigma`` is contractual.
    """

    sigma: float
    rotation: np.ndarray
    singular_values: np.ndarray


def pair_moments(dataset: CategoricalDataset) -> Iterator[tuple[int, int, np.ndarray]]:
    """Centred joint distributions C_ij = P_ij - p_i p_j^T of all pairs i <= j.

    Yields (i, j, C_ij) in row-major order over the upper triangle; C_ij
    is k_i x k_j, built from the weighted joint table in O(N + k_i * k_j),
    and its rows and columns sum to zero.  This is the package's only
    loop over variable pairs: every second moment derives from it.
    """
    names = dataset.variable_names()
    total = dataset.total_weight
    for i in range(len(names)):
        for j in range(i, len(names)):
            joint = joint_table(dataset, names[i], names[j]) / total
            yield i, j, joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))


def gini_variance(dataset: CategoricalDataset, variable: str) -> float:
    """Gini variance (1 - sum p_k^2) / 2 from weighted category frequencies.

    Equals the average weighted disagreement rate over instance pairs and
    half the trace of the variable's centred table C_ii = diag(p) - p p^T.
    """
    return float(covariance_matrix(dataset.select([variable]))[0, 0])


def covariance_svd(cross: np.ndarray) -> CovarianceResult:
    """Covariance via SVD: sigma = trace(D), rotation = U V^T.

    A zero cross matrix has sigma 0 and, by convention, the identity-shaped
    rotation.
    """
    a = np.asarray(cross, dtype=float)
    if not np.any(a):
        return CovarianceResult(0.0, np.eye(a.shape[0], a.shape[1]), np.zeros(min(a.shape)))
    u, s, v = numerics.svd(a)
    return CovarianceResult(float(s.sum()), u @ v.T, s)


def covariance_newton(
    cross: np.ndarray,
    tolerance: float = 1e-10,
    max_iter: int = 50,
) -> CovarianceResult:
    """Covariance via the Newton-solved stationarity system (test oracle).

    Rectangular cross matrices are zero-padded to square, which leaves the
    trace over the original block, and hence sigma, unchanged.  The
    singular values are recovered as the eigenvalues of the symmetric part
    of A L^T at the solution.
    """
    a = np.asarray(cross, dtype=float)
    n = max(a.shape) if a.size else 0
    if n == 0:
        return CovarianceResult(0.0, np.eye(a.shape[0], a.shape[1]), np.zeros(0))
    padded = np.zeros((n, n))
    padded[: a.shape[0], : a.shape[1]] = a
    rot = numerics.newton_orthogonal_stationarity(padded, tol=tolerance, max_iter=max_iter)
    prod = padded @ rot.T
    evals, _ = numerics.sym_eig((prod + prod.T) / 2.0)
    # PSD up to roundoff at the maximizer; clamp stray -1e-17s
    return CovarianceResult(float(np.trace(prod)), rot, np.maximum(evals, 0.0))


def covariance_matrix(dataset: CategoricalDataset) -> np.ndarray:
    """Symmetric matrix of pairwise covariances; diagonal is the Gini variance.

    sigma_ii = tr(C_ii) / 2 and sigma_ij = ||C_ij||_* / 2, one SVD per
    unordered pair.  A single-category variable has an empty embedded
    block, so its covariances are exactly 0.
    """
    names = dataset.variable_names()
    out = np.zeros((len(names), len(names)))
    for i, j, c in pair_moments(dataset):
        if min(c.shape) < 2:
            continue
        try:
            sigma = (np.trace(c) if i == j else covariance_svd(c).sigma) / 2.0
        except NumericalError as exc:
            raise NumericalError(
                f"covariance failed for pair ({names[i]}, {names[j]}): {exc}",
                matrix=exc.matrix,
            ) from exc
        out[i, j] = out[j, i] = sigma
    return out


def correlation_matrix(dataset: CategoricalDataset) -> tuple[np.ndarray, np.ndarray]:
    """Correlations rho_ij = sigma_ij / sqrt(sigma_ii sigma_jj) plus a validity mask.

    Returns (values, defined).  Rows and columns of zero-variance variables
    are flagged undefined rather than silently emitted as NaN; defined
    diagonal entries are exactly 1.
    """
    cov = covariance_matrix(dataset)
    var = np.diag(cov)
    ok = var > 0.0
    defined = np.outer(ok, ok)
    scale = np.sqrt(np.where(ok, var, 1.0))
    values = np.where(defined, cov / np.outer(scale, scale), np.nan)
    np.fill_diagonal(values, np.where(ok, 1.0, np.nan))
    return values, defined
