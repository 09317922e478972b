"""Principal component analysis on concatenated simplex coordinates.

A variable with k categories is embedded by placing each category at a
vertex of a regular (k-1)-simplex with unit edge length and centroid at
the origin.  With that normalization the squared Euclidean distance
between two embedded categories is exactly the 0/1 categorical distance,
which is what makes the embedded variance reduce to the Gini form.
V^T V = I/2 and V V^T = (I - 11^T/k)/2 for the k x (k-1) vertex matrix
V, so a direction r is carried losslessly by its category loadings g = V r
(summing to 0, ||r|| = sqrt(2) ||g||).

Each instance is represented by the concatenation of its variables'
embedded vertex coordinates; the covariance matrix of those vectors is
the block matrix whose (i, j) block is V_i^T C_ij V_j, the centred joint
distribution of the pair (``covariance.centred`` of a
``covariance.pair_moments`` table) rotated into simplex coordinates, and
their mean is p_i^T V_i, p_i the 1-way distribution yielded for (i, i).
This module is where the embedding is used: it fixes the model's
coordinates, the per-category score tables and the edge/center atoms
that make components readable; interpretation searches those atoms
through each block's loadings g, so it forms no atom dictionary.
"""

from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np

from .covariance import centred, pair_moments
from .dataset import CategoricalDataset
from .errors import DataError, NumericalError

# largest model dim (the sum of k - 1 over the variables): fitting holds about 5.3 dim x dim
# float64 matrices at its peak, so 4096 costs about 0.7 GB
MAX_DIM = 4096


@dataclass(frozen=True)
class BasisAtom:
    """An interpretive basis vector in one variable's simplex space, by name.

    ``kind`` is "edge" (vertex-to-vertex difference v_to - v_from, unit
    norm) or "center" (centroid-to-vertex, i.e. the vertex v_to itself,
    norm sqrt((k-1)/(2k))).  Edge atoms are stored oriented from the lower
    category index to the higher; either sign is usable downstream.
    """

    kind: str
    variable: str
    from_category: int
    to_category: int


def build_simplex(k: int) -> np.ndarray:
    """Return the (k, k-1) vertex matrix of the regular simplex, one row per category.

    Vertex i is the i-th column of the (k-1) x k Helmert matrix scaled by
    1/sqrt(2) (the scale is folded into each row's normalizer).  Helmert
    rows are orthogonal to each other and to the all-ones vector, which
    forces unit pairwise distances and a zero centroid; the construction
    is pure arithmetic in k and therefore bit-identical across calls.  For
    k = 1 the coordinate space is zero-dimensional.
    """
    if k < 1:
        raise DataError(f"category count must be >= 1, got {k}")
    vertices = np.zeros((k, k - 1))
    for j in range(1, k):
        s = 1.0 / np.sqrt(2.0 * j * (j + 1))
        vertices[:j, j - 1] = s
        vertices[j, j - 1] = -j * s
    return vertices


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
    """The dataset's names, categories and k - 1 block widths; the offsets and dim are the
    widths' running sums, taken in one pass."""
    widths = [var.k - 1 for var in dataset.variables]
    *offsets, dim = accumulate(widths, initial=0)
    cats = [list(var.categories) for var in dataset.variables]
    return LrsvLayout(dataset.variable_names(), cats, offsets, widths, dim)


def sym_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the symmetric matrix whose lower triangle m holds.

    ``eigh`` reads only that triangle, diagonal included, so m is factored
    without a symmetrized copy.  Returns (eigenvalues, eigenvectors) with
    eigenvector m in column m: LAPACK's ascending order reversed, as views,
    so exact ties keep one order.  A LAPACK failure is raised as
    ``NumericalError``; inputs are finite, as ``dataset._dataset`` bounds
    every count.  Its bytes hold for one numpy and BLAS build and thread
    count: ``OPENBLAS_NUM_THREADS=1``, which avoids OpenBLAS's first-call
    stall of up to a second in a fresh process (see the README) at some
    cost at large dim, can change the last printed digit of the model JSON.
    """
    try:
        evals, evecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}", matrix=m) from exc
    return evals[::-1], evecs[:, ::-1]


def fit(dataset: CategoricalDataset) -> PcaModel:
    """Eigendecompose the block covariance matrix of the dataset.

    Block (i, j) is V_i^T C_ij V_j: the pair's centred joint distribution
    P_ij from ``pair_moments`` in the simplex coordinates of both
    variables, with C_ii = diag(p_i) - p_i p_i^T.  The mean comes from the
    same loop: block i is p_i^T V_i, p_i as yielded for (i, i), so no
    count is taken outside ``pair_moments``.  Each block is stored once,
    at or below the block diagonal, as ``sym_eig`` reads only the lower
    triangle: of each diagonal block, that of its average with its
    transpose.  Eigenvector signs are then fixed in place; a dim over
    ``MAX_DIM`` is refused first.
    """
    layout = make_layout(dataset)
    if layout.dim < 1:
        raise DataError("all variables are single-category; nothing to decompose")
    if layout.dim > MAX_DIM:
        widest = sorted(dataset.variables, key=lambda var: -var.k)[:3]
        raise DataError(f"model dim {layout.dim} exceeds the limit of {MAX_DIM}; most categories: "
                        + ", ".join(f"{var.name!r} ({var.k})" for var in widest))
    vertices = [build_simplex(var.k) for var in dataset.variables]
    block_cov = np.zeros((layout.dim, layout.dim))
    mean = np.empty(layout.dim)
    for i, j, p in pair_moments(dataset):
        if i == j:
            mean[layout.block(i)] = p @ vertices[i]
            p = np.diag(p)  # k_i x k_i, within the dim x dim budget: k_i <= dim + 1
        a_ij = vertices[i].T @ centred(p) @ vertices[j]
        block_cov[layout.block(j), layout.block(i)] = (a_ij + a_ij.T) / 2.0 if i == j else a_ij.T

    evals, evecs = sym_eig(block_cov)
    # |evecs| transposed into the spent block matrix: a C-contiguous row per component, so
    # argmax (the first largest magnitude, as per column) takes no dim x dim copy
    top = np.argmax(np.abs(evecs.T, out=block_cov), axis=1)
    lead = np.take_along_axis(evecs, top[None], axis=0)[0]
    np.negative(evecs, out=evecs, where=lead < 0)
    return PcaModel(mean, evals, evecs, layout)


def scores(model: PcaModel, dataset: CategoricalDataset, n_components: int) -> np.ndarray:
    """Project instances onto the leading components: an N x n_components array.

    Row a, column m holds (x(a) - mean) . e_m, summed block by block from
    per-variable k_i x n_components tables indexed by category code, so
    the N x dim coordinate matrix is never formed.  The dataset's
    ``make_layout`` must equal the model's: the same variables, in the same
    order, with the same categories in the same order.
    """
    if not 1 <= n_components <= model.n_components:
        raise DataError(f"n_components must be in [1, {model.n_components}]")
    layout = model.layout
    if make_layout(dataset) != layout:
        raise DataError("dataset does not match the fitted model layout")
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
    The search runs on the category loadings g = V r: the unit edge
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
