"""Regular-simplex vertex geometry for categorical variables.

A variable with k categories is embedded by placing each category at a
vertex of a regular (k-1)-simplex with unit edge length and centroid at
the origin.  With that normalization the squared Euclidean distance
between two embedded categories is exactly the 0/1 categorical distance,
which is what makes the embedded variance reduce to the Gini form.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class SimplexEmbedding:
    """Vertex coordinates of a regular simplex, one row per category.

    ``vertices`` has shape (k, k-1); for k = 1 the coordinate space is
    zero-dimensional.
    """

    k: int
    vertices: np.ndarray

    @property
    def dim(self) -> int:
        return self.k - 1


@dataclass(frozen=True)
class BasisAtom:
    """An interpretive basis vector in one variable's simplex space.

    ``kind`` is "edge" (vertex-to-vertex difference, unit norm) or
    "center" (centroid-to-vertex, norm sqrt((k-1)/(2k))).  Edge atoms are
    stored oriented from the lower category index to the higher; either
    sign is usable downstream.
    """

    kind: str
    variable: str
    from_category: int
    to_category: int
    vector: np.ndarray


def build_simplex(k: int) -> SimplexEmbedding:
    """Return the deterministic regular-simplex embedding for k categories.

    Vertex i is the i-th column of the (k-1) x k Helmert matrix scaled by
    1/sqrt(2) (the scale is folded into each row's normalizer).  Helmert
    rows are orthogonal to each other and to the all-ones vector, which
    forces unit pairwise distances and a zero centroid; the construction
    is pure arithmetic in k and therefore bit-identical across calls.
    """
    if k < 1:
        raise DataError(f"category count must be >= 1, got {k}")
    vertices = np.zeros((k, k - 1))
    for j in range(1, k):
        s = 1.0 / np.sqrt(2.0 * j * (j + 1))
        vertices[:j, j - 1] = s
        vertices[j, j - 1] = -j * s
    return SimplexEmbedding(k=k, vertices=vertices)


def basis_atoms(embedding: SimplexEmbedding, variable: str) -> list[BasisAtom]:
    """All edge and center atoms of one variable's simplex.

    Returns k(k-1)/2 edge atoms (one per unordered category pair, oriented
    low index -> high index) followed by k center atoms.  For k = 1 the
    space is zero-dimensional and the list is empty.
    """
    k = embedding.k
    if k == 1:
        return []
    v = embedding.vertices
    atoms = []
    for a in range(k):
        for b in range(a + 1, k):
            atoms.append(BasisAtom("edge", variable, a, b, v[b] - v[a]))
    for a in range(k):
        # centroid is the origin, so the center atom is the vertex itself
        atoms.append(BasisAtom("center", variable, a, a, v[a].copy()))
    return atoms
