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
from math import prod

import numpy as np

from .dataset import CategoricalDataset
from .errors import NumericalError

# most bins of a group's combined code, so a pass over two groups of shared
# variables has at most 64 * 64 = 4096 bins: a table that stays in cache
_GROUP_BINS = 64


def _groups(dataset: CategoricalDataset) -> list[tuple[list[int], np.ndarray]]:
    """The pass plan: (variable indices, combined codes) of each group, in file order.

    Two adjacent variables with k_a * k_b <= ``_GROUP_BINS`` share a group,
    coded code_a * k_b + code_b; every other variable is a group of its own.
    Tables marginalised from a pass add each bin's weights in another
    order, so variables share only when every weight is integral and the
    (nonnegative) weights total below 2**53: then every partial sum is an
    exact integer and every order gives the same doubles.
    """
    variables, w = dataset.variables, dataset.weights
    exact = dataset.total_weight < 2.0**53 and np.array_equal(w, np.rint(w))
    groups, i = [], 0
    while i < len(variables):
        if exact and i + 1 < len(variables) and variables[i].k * variables[i + 1].k <= _GROUP_BINS:
            a, b = variables[i], variables[i + 1]
            groups.append(([i, i + 1], (a.codes * b.k + b.codes).astype(np.uint8)))
            i += 2
        else:
            groups.append(([i], variables[i].codes))
            i += 1
    return groups


def centred(joint: np.ndarray) -> np.ndarray:
    """C = P - p q^T of a joint distribution P with row marginal p and column marginal q."""
    return joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))


def pair_moments(dataset: CategoricalDataset) -> Iterator[tuple[int, int, np.ndarray]]:
    """Joint distributions P_ij of all pairs i <= j: weighted counts over the total.

    Yields (i, j, P_ij), each pair once, in pass order: a group's own
    pairs, then its pairs with each later group (``_groups``).  P_ij is
    k_i x k_j and sums to 1; P_ii is diagonal, its diagonal the 1-way
    distribution p_i.  This is the package's only loop over variable
    pairs and its only source of counts: the mean of ``pca.fit`` and
    every second moment (``centred``) derive from it.

    The tables come from one weighted ``bincount`` per pair of groups,
    keyed code_G * size_H + code_H, in O(N + size_G * size_H); each
    member pair's table is that table summed over the other members'
    axes.  A group's pass with itself is a bincount of its own code: it
    gives its members' joint table and their 1-way counts.  A pass over
    two singleton groups is one bincount of the pair's own key, so with
    fractional weights, where every group is a singleton, each table is
    that pair's bincount; with integral weights every partial sum is an
    exact integer, so the tables are bit-equal to it too.
    """
    variables, weights = dataset.variables, dataset.weights
    total = dataset.total_weight
    groups = _groups(dataset)
    for g, (members, code) in enumerate(groups):
        shape = [variables[i].k for i in members]
        own = np.bincount(code, weights=weights, minlength=prod(shape)).reshape(shape)
        if len(members) == 1:
            yield members[0], members[0], np.diag(own) / total
        else:
            a, b = members
            yield a, a, np.diag(own.sum(axis=1)) / total
            yield a, b, own / total
            yield b, b, np.diag(own.sum(axis=0)) / total
        for other, other_code in groups[g + 1:]:
            other_shape = [variables[j].k for j in other]
            key = np.multiply(code, prod(other_shape), dtype=np.intp)  # narrow codes would wrap
            key += other_code
            table = np.bincount(key, weights=weights, minlength=prod(shape + other_shape))
            table = table.reshape(shape + other_shape)
            for p, i in enumerate(members):
                for q, j in enumerate(other, len(members)):
                    rest = tuple(set(range(table.ndim)) - {p, q})
                    yield i, j, (table.sum(axis=rest) if rest else table) / total


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

    sigma_ii = tr(C_ii) / 2 and sigma_ij = ||C_ij||_* / 2, with
    C_ij = ``centred(P_ij)``, one SVD per unordered pair.  A
    single-category variable has an empty embedded block, so its
    covariances are exactly 0.
    """
    names = dataset.variable_names()
    out = np.zeros((len(names), len(names)))
    for i, j, p in pair_moments(dataset):
        if min(p.shape) < 2:
            continue
        c = centred(p)
        try:
            sigma = (np.trace(c) if i == j else covariance_svd(c)) / 2.0
        except NumericalError as exc:
            raise NumericalError(
                f"covariance failed for pair ({names[i]}, {names[j]}): {exc}",
                matrix=exc.matrix,
            ) from exc
        out[i, j] = out[j, i] = sigma
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
