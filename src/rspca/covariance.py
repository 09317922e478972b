"""Gini variances and simplex-embedded covariances between categorical variables.

A variance reads only the variable's 1-way distribution p_i: Gini's
sigma_ii = sum_c p_c (1 - p_c) / 2, half the trace of diag(p_i) - p_i p_i^T.
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
from math import prod

import numpy as np

from .dataset import CategoricalDataset, NumericalError

# most bins of a group, so a pass over two groups of shared variables has at most
# 256 * 256 = 65 536 bins: a 512 KB table, keyed in uint16
_GROUP_BINS = 256


def _groups(dataset: CategoricalDataset) -> list[list[int]]:
    """The pass plan: the variable indices of each group, in file order.

    Two adjacent variables with k_a * k_b <= ``_GROUP_BINS`` share a group;
    every other variable is a group of its own.  Tables marginalised from
    a pass add each bin's weights in another order, so variables share
    only when every weight is integral and the (nonnegative) weights total
    below 2**53: then every partial sum is an exact integer and every
    order gives the same doubles.
    """
    ks, w = [var.k for var in dataset.variables], dataset.weights
    exact = dataset.total_weight < 2.0**53 and np.array_equal(w, np.rint(w))
    groups, i = [], 0
    while i < len(ks):
        shared = exact and i + 1 < len(ks) and ks[i] * ks[i + 1] <= _GROUP_BINS
        groups.append([i, i + 1] if shared else [i])
        i += len(groups[-1])
    return groups


def centred(joint: np.ndarray) -> np.ndarray:
    """C = P - p q^T of a joint distribution P with row marginal p and column marginal q."""
    return joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))


def pair_moments(dataset: CategoricalDataset) -> Iterator[tuple[int, int, np.ndarray]]:
    """Distributions of all pairs i <= j: weighted counts over the total.

    Yields (i, j, P_ij), the k_i x k_j joint distribution, for i < j and
    (i, i, p_i), the 1-way distribution of length k_i, each pair once, in
    pass order: a group's own pairs, then its pairs with each later group
    (``_groups``).  This is the package's only loop over variable pairs
    and its only source of counts: the mean of ``pca.fit``, every
    variance and every second moment (``centred``) derive from it.

    The tables come from one weighted ``bincount`` per pass, a group with
    itself or with a later group, keyed by its members' codes in mixed
    radix, (code_a * k_b + code_b) * k_c + code_c ..., in O(N + bins);
    each member pair's P_ij, and each member's p_i, is that table summed
    over the other members' axes.  A pass over two singleton groups is
    one bincount of the pair's own key, so with fractional weights, where
    every group is a singleton, each table is that pair's bincount; with
    integral weights every partial sum is an exact integer, so the tables
    are bit-equal to it too.
    """
    variables, weights, total = dataset.variables, dataset.weights, dataset.total_weight
    groups = _groups(dataset)

    def counts(members):  # the members' joint weighted counts, one axis per member
        shape = [variables[i].k for i in members]
        # uint16 holds every key of a pass up to 65 536 bins; codes of one or two bytes would wrap
        key = variables[members[0]].codes.astype(np.uint16 if prod(shape) <= 2**16 else np.intp)
        for i in members[1:]:
            key *= variables[i].k
            key += variables[i].codes
        return np.bincount(key, weights=weights, minlength=prod(shape)).reshape(shape)

    def marginal(table, p, q):  # axes p <= q of the table, the other members' axes summed out
        rest = tuple(set(range(table.ndim)) - {p, q})
        return (table.sum(axis=rest) if rest else table) / total

    for g, members in enumerate(groups):
        own = counts(members)
        for p, i in enumerate(members):
            for q, j in enumerate(members[p:], p):
                yield i, j, marginal(own, p, q)
        for other in groups[g + 1:]:
            pair = counts(members + other)
            for p, i in enumerate(members):
                for q, j in enumerate(other, len(members)):
                    yield i, j, marginal(pair, p, q)


def covariance_svd(cross: np.ndarray) -> float:
    """Covariance of a cross matrix A: max trace(A L^T) over orthogonal L.

    That maximum is ||A||_*, the sum of A's singular values (a ``NumericalError`` if LAPACK fails).
    """
    try:
        return float(np.linalg.svd(cross, compute_uv=False).sum())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}", matrix=cross) from exc


def covariance_matrix(dataset: CategoricalDataset) -> np.ndarray:
    """Symmetric matrix of pairwise covariances; diagonal is the Gini variance.

    sigma_ii = sum(p_i (1 - p_i)) / 2, from the 1-way distribution alone,
    in O(k_i); sigma_ij = ||C_ij||_* / 2, with C_ij = ``centred(P_ij)``,
    one SVD per unordered pair.  A single-category variable has an empty
    embedded block, so its covariances are exactly 0.
    """
    names = dataset.variable_names()
    out = np.zeros((len(names), len(names)))
    try:
        for i, j, p in pair_moments(dataset):
            if min(p.shape) < 2:
                continue
            sigma = (p - p * p).sum() if i == j else covariance_svd(centred(p))
            out[i, j] = out[j, i] = sigma / 2.0
    except NumericalError as exc:
        raise NumericalError(
            f"covariance failed for pair ({names[i]}, {names[j]}): {exc}",
            matrix=exc.matrix,
        ) from exc
    return out


def correlation_matrix(dataset: CategoricalDataset) -> np.ndarray:
    """Correlations rho_ij = sigma_ij / sqrt(sigma_ii sigma_jj).

    NaN marks exactly the undefined entries: the row and column of a
    zero-variance variable, its diagonal included.  Every other entry is
    finite, and the defined diagonal entries are exactly 1.
    """
    cov = covariance_matrix(dataset)
    var = np.diag(cov)
    ok = var > 0.0
    scale = np.sqrt(np.where(ok, var, np.nan))  # a NaN scale spreads to its row and column
    values = cov / np.outer(scale, scale)
    np.fill_diagonal(values, np.where(ok, 1.0, np.nan))
    return values
