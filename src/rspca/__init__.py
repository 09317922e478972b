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
    correlation_matrix,
    covariance_matrix,
    covariance_svd,
    pair_moments,
)
from .dataset import (
    CategoricalDataset,
    CategoricalVariable,
    frequencies,
    from_columns,
    joint_table,
    load_contingency,
    load_csv,
)
from .errors import DataError, NumericalError, RspcaError
from .pca import (
    ComponentInterpretation,
    LrsvLayout,
    PcaModel,
    fit,
    interpret,
    scores,
    variable_importance,
)
from .simplex import BasisAtom, build_simplex

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
    "correlation_matrix",
    "covariance_matrix",
    "covariance_svd",
    "fit",
    "frequencies",
    "from_columns",
    "interpret",
    "joint_table",
    "load_contingency",
    "load_csv",
    "pair_moments",
    "scores",
    "variable_importance",
]
