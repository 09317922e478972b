"""Principal component analysis on concatenated simplex coordinates.

Each instance is represented by the concatenation of its variables'
embedded vertex coordinates; the covariance matrix of those vectors is
the block matrix whose (i, j) block is V_i^T C_ij V_j, the centred joint
distribution of the pair (``covariance.pair_moments``) rotated into
simplex coordinates.  This module is where the embedding is used: it
fixes the model's coordinates, the per-category score tables and the
edge/center atoms that make components readable; interpretation searches
those atoms through each block's category loadings g = V_i r, so it
forms no atom dictionary.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import numerics
from .covariance import pair_moments
from .dataset import CategoricalDataset, frequencies
from .errors import DataError
from .simplex import BasisAtom, build_simplex


@dataclass(frozen=True)
class LrsvLayout:
    """Block layout of the concatenated coordinate space.

    Variable i occupies ``widths[i]`` = k_i - 1 consecutive coordinates
    starting at ``offsets[i]``; ``dim`` is the total.
    """

    names: list[str]
    categories: list[list[str]]
    offsets: list[int]
    widths: list[int]
    dim: int

    def block(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i] + self.widths[i])


@dataclass(frozen=True)
class PcaModel:
    """Eigendecomposition of the block covariance matrix.

    ``eigenvectors`` holds component m in column m; eigenvalues are sorted
    descending and each eigenvector's largest-magnitude entry is made
    positive so repeated fits are bit-identical.
    """

    mean: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    layout: LrsvLayout

    @property
    def n_components(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class ComponentInterpretation:
    """A component expressed as coefficients on edge/center atoms.

    ``terms`` is sorted by coefficient magnitude, descending;
    ``residual_norm`` is what remains of the eigenvector after placing the
    terms back into their blocks.
    """

    component: int
    terms: list[tuple[float, BasisAtom]]
    residual_norm: float


def make_layout(dataset: CategoricalDataset) -> LrsvLayout:
    widths = [var.k - 1 for var in dataset.variables]
    offsets = [sum(widths[:i]) for i in range(len(widths))]
    cats = [list(var.categories) for var in dataset.variables]
    return LrsvLayout(dataset.variable_names(), cats, offsets, widths, sum(widths))


def fit(dataset: CategoricalDataset) -> PcaModel:
    """Eigendecompose the block covariance matrix of the dataset.

    Block (i, j) is V_i^T C_ij V_j: the pair's centred joint distribution
    from ``pair_moments`` in the simplex coordinates of both variables.
    Diagonal blocks are averaged with their transpose, so the matrix is
    exactly symmetric and ``sym_eig`` factors it without a copy; each
    eigenvector's sign is then fixed in place.
    """
    layout = make_layout(dataset)
    if layout.dim < 1:
        raise DataError("all variables are single-category; nothing to decompose")
    vertices = [build_simplex(var.k) for var in dataset.variables]
    block_cov = np.zeros((layout.dim, layout.dim))
    for i, j, c in pair_moments(dataset):
        a_ij = vertices[i].T @ c @ vertices[j]
        if i == j:
            a_ij = (a_ij + a_ij.T) / 2.0
        block_cov[layout.block(i), layout.block(j)] = a_ij
        block_cov[layout.block(j), layout.block(i)] = a_ij.T
    mean = np.concatenate(
        [frequencies(dataset, var.name) @ v for var, v in zip(dataset.variables, vertices)]
    )

    evals, evecs = numerics.sym_eig(block_cov)
    lead = np.array([column[np.argmax(np.abs(column))] for column in evecs.T])
    np.negative(evecs, out=evecs, where=lead < 0)
    return PcaModel(mean, evals, evecs, layout)


def _check_dataset_matches(model: PcaModel, dataset: CategoricalDataset) -> None:
    if dataset.variable_names() != model.layout.names or make_layout(dataset).widths != model.layout.widths:
        raise DataError("dataset does not match the fitted model layout")


def scores(model: PcaModel, dataset: CategoricalDataset, n_components: int) -> np.ndarray:
    """Project instances onto the leading components: an N x n_components array.

    Row a, column m holds (x(a) - mean) . e_m, summed block by block from
    per-variable k_i x n_components tables indexed by category code, so
    the N x dim coordinate matrix is never formed.
    """
    if not 1 <= n_components <= model.n_components:
        raise DataError(f"n_components must be in [1, {model.n_components}]")
    _check_dataset_matches(model, dataset)
    layout = model.layout
    vectors = model.eigenvectors[:, :n_components]
    values = np.zeros((dataset.n_instances, n_components))
    for i, var in enumerate(dataset.variables):
        block = layout.block(i)
        vertices = build_simplex(var.k)
        values += ((vertices - model.mean[block]) @ vectors[block])[var.codes]
    return values


def _pursue(g: np.ndarray, eps: float, max_terms: int):
    """Pursuit on loadings g (in place): ({(a, b): coefficient}, squared residual)."""
    k = g.size
    center_norm = np.sqrt((k - 1) / (2 * k))
    # in loading space, so eps >= 1 stops at once; under 64 machine epsilons only roundoff is left
    threshold = max(eps, 64 * np.finfo(float).eps) * np.linalg.norm(g)
    coefs: dict[tuple[int, int], float] = {}  # a < b: edge v_b - v_a; a == b: center v_a
    for _ in range(max(8 * max_terms, 32)):
        if np.linalg.norm(g) <= threshold:
            break
        lo, hi = float(g.min()), float(g.max())
        # correlations within 1e-9 (relative) of the best tie: the earlier atom wins
        floor = max(hi - lo, max(hi, -lo) / center_norm) * (1.0 - 1e-9)
        if hi - lo >= floor:  # both ends of such an edge lie that far from the other extreme
            ends = np.flatnonzero((g >= lo + floor) | (g <= hi - floor)).tolist()
            pick = next((a, b) for a, b in combinations(ends, 2) if abs(g[b] - g[a]) >= floor)
        else:
            pick = (int(np.argmax(np.abs(g) >= floor * center_norm)),) * 2
        if pick not in coefs and len(coefs) >= max_terms:
            break
        a, b = pick
        if a == b:  # g -= c V v_a = c (e_a - 1/k) / 2
            c = g[a] * (2 * k) / (k - 1)
            g += c / (2 * k)
            g[a] = 0.0
        else:  # g -= c V (v_b - v_a) = c (e_b - e_a) / 2
            c = g[b] - g[a]
            g[a] = g[b] = (g[a] + g[b]) / 2
        coefs[pick] = coefs.get(pick, 0.0) + float(c)
    return coefs, 2.0 * float(g @ g)


def interpret(
    model: PcaModel,
    component: int,
    max_terms: int = 4,
    eps: float = 0.05,
) -> ComponentInterpretation:
    """Expand one component (1-based) over edge/center atoms by matching pursuit.

    Per variable block r, greedily pick the atom most correlated with the
    residual, subtract its projection, and stop once the residual is at
    most ``eps`` times the block norm or ``max_terms`` distinct atoms are
    picked; re-picking an atom adds to its coefficient.  The atoms are
    overcomplete, so coefficients are a choice, not a basis expansion.
    The search runs on the category loadings g = V r, where
    V V^T = (I - 11^T/k)/2 gives ||r|| = sqrt(2) ||g||: the unit edge
    v_b - v_a correlates as |g_b - g_a|, so the best edge joins argmin g
    and argmax g, and the center v_a as |g_a| / sqrt((k-1)/(2k)).  Each
    step is O(k) and no atom vector is built.  Correlations within 1e-9
    (relative) of the best are ties, so roundoff never decides between
    atoms that tie exactly; a tie goes to the earlier atom in the order
    "edges (a, b) with a < b, then centers".  A null
    component, with eigenvalue at most 1e-12 of the eigenvalue total, is
    roundoff in every direction: it gets no terms and residual norm 1.
    """
    if not 1 <= component <= model.n_components:
        raise DataError(f"component must be in [1, {model.n_components}]")
    if max_terms < 1:
        raise DataError("max_terms must be >= 1")
    if not 0 <= eps < np.inf:
        raise DataError(f"eps must be finite and >= 0, got {eps}")
    if model.eigenvalues[component - 1] <= 1e-12 * model.eigenvalues.sum():
        return ComponentInterpretation(component, [], 1.0)
    layout = model.layout
    vector = model.eigenvectors[:, component - 1]

    collected: list[tuple[float, BasisAtom]] = []
    residual_sq = 0.0
    for i, name in enumerate(layout.names):
        block = vector[layout.block(i)]
        if not block.any():
            continue
        vertices = build_simplex(block.size + 1)
        coefs, block_sq = _pursue(vertices @ block, eps, max_terms)
        residual_sq += block_sq
        for (a, b), c in coefs.items():
            collected.append((c, BasisAtom("center" if a == b else "edge", name, a, b)))

    collected.sort(key=lambda term: -abs(term[0]))
    return ComponentInterpretation(component, collected, float(np.sqrt(residual_sq)))


def variable_importance(model: PcaModel, n_components: int) -> list[tuple[str, float]]:
    """Rank variables by eigenvalue-weighted energy in the leading components.

    importance_i = sum over the first n components of lambda_m times the
    squared norm of eigenvector m restricted to variable i's block.  Ties
    keep dataset order.
    """
    if not 1 <= n_components <= model.n_components:
        raise DataError(f"n_components must be in [1, {model.n_components}]")
    layout = model.layout
    n_vars = len(layout.names)
    energy = model.eigenvectors[:, :n_components] ** 2 @ model.eigenvalues[:n_components]
    importance = np.bincount(np.repeat(np.arange(n_vars), layout.widths), energy, n_vars)
    ranked = sorted(zip(layout.names, importance), key=lambda item: -item[1])
    return [(name, float(val)) for name, val in ranked]
