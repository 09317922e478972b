"""Regular-simplex vertex geometry for categorical variables.

A variable with k categories is embedded by placing each category at a
vertex of a regular (k-1)-simplex with unit edge length and centroid at
the origin.  With that normalization the squared Euclidean distance
between two embedded categories is exactly the 0/1 categorical distance,
which is what makes the embedded variance reduce to the Gini form.

V^T V = I/2 and V V^T = (I - 11^T/k)/2 for the k x (k-1) vertex matrix
V, so a direction r is carried losslessly by its category loadings g = V r
(summing to 0, ||r|| = sqrt(2) ||g||), where ``pca.interpret`` searches
the edge/center atoms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class BasisAtom:
    """An interpretive basis vector in one variable's simplex space.

    ``kind`` is "edge" (vertex-to-vertex difference, unit norm) or
    "center" (centroid-to-vertex, i.e. the vertex itself, norm
    sqrt((k-1)/(2k))).  Edge atoms are stored oriented from the lower
    category index to the higher; either sign is usable downstream.
    """

    kind: str
    variable: str
    from_category: int
    to_category: int
    vector: np.ndarray


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
