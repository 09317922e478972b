"""Covariance, correlation, and PCA for categorical data via regular-simplex embeddings.

Categories are placed at the vertices of a unit-edge regular simplex, so
single-variable dispersion reduces to the Gini variance and the covariance
of a variable pair becomes an orthogonally-invariant quantity: the nuclear
norm of their embedded cross matrix, which is half the nuclear norm of
the centred joint distribution P_ij - p_i p_j^T.  The same embedding turns
a whole dataset into a block covariance matrix whose eigendecomposition gives
principal components that can be read as combinations of "category A vs
category B" directions.
"""

from .covariance import (
    centred,
    correlation_matrix,
    covariance_matrix,
    covariance_svd,
    pair_moments,
)
from .dataset import (
    CategoricalDataset,
    CategoricalVariable,
    load_contingency,
    load_csv,
)
from .errors import DataError, NumericalError, RspcaError
from .pca import (
    BasisAtom,
    ComponentInterpretation,
    LrsvLayout,
    PcaModel,
    build_simplex,
    fit,
    interpret,
    scores,
    variable_importance,
)

__version__ = "0.1.0"

__all__ = [
    "BasisAtom",
    "CategoricalDataset",
    "CategoricalVariable",
    "ComponentInterpretation",
    "DataError",
    "LrsvLayout",
    "NumericalError",
    "PcaModel",
    "RspcaError",
    "build_simplex",
    "centred",
    "correlation_matrix",
    "covariance_matrix",
    "covariance_svd",
    "fit",
    "interpret",
    "load_contingency",
    "load_csv",
    "pair_moments",
    "scores",
    "variable_importance",
]
