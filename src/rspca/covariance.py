"""Gini variances and simplex-embedded covariances between categorical variables.

The covariance of a variable pair is the maximum over orthogonal maps of
the cross-covariance of their embedded coordinates: the nuclear norm of
V_i^T C_ij V_j, with C_ij = P_ij - p_i p_j^T the centred joint distribution.
Simplex vertices are Helmert rows scaled by 1/sqrt(2) and C_ij is orthogonal
to the all-ones vectors, so that matrix has the singular values of C_ij / 2
and everything here is read off C_ij without the embedding, which only the
PCA model (``pca``) uses.  The paper states the covariance as the
solution of the stationarity equations {A L^T symmetric, L L^T = I}; the
singular values solve them in closed form, so an SVD is the only route.
"""

from collections.abc import Iterator

import numpy as np

from . import numerics
from .dataset import CategoricalDataset, joint_table
from .errors import NumericalError


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


def covariance_svd(cross: np.ndarray) -> float:
    """Covariance of a cross matrix A: max trace(A L^T) over orthogonal L.

    That maximum is ||A||_*, the sum of A's singular values.
    """
    return float(numerics.svd(cross).sum())


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
            sigma = (np.trace(c) if i == j else covariance_svd(c)) / 2.0
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
