"""Seeded synthetic categorical datasets with planted correlation structure.

The generative process is a single latent class per instance plus a noisy
per-variable emission: planted variables report a fixed permutation of the
latent class and are replaced by a uniform draw with probability
``noise``; the remaining variables are independent uniform draws.  The
planted block is what a variable-selection run should recover.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import CategoricalDataset, CategoricalVariable, _code_dtype, _dataset
from .emit import row_ranges
from .errors import DataError


@dataclass(frozen=True)
class SyntheticSpec:
    rows: int = 400
    n_vars: int = 10
    n_planted: int = 3
    classes: int = 3
    categories: int = 4
    noise: float = 0.1
    seed: int = 0


def planted_positions(n_vars: int, n_planted: int) -> list[int]:
    """Deterministic spread of the planted variables across the column order."""
    return [j for j in range(n_vars) if (j + 1) * n_planted // n_vars > j * n_planted // n_vars]


def _variable(name: str, draws: np.ndarray) -> CategoricalVariable:
    """The variable with labels ``c<draw>``, categories numbered by first appearance."""
    values, first, inverse = np.unique(draws, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.argsort(order).astype(_code_dtype(len(values)))  # code of each sorted value
    return CategoricalVariable(name, [f"c{v}" for v in values[order]], rank[inverse])


def generate(spec: SyntheticSpec) -> tuple[CategoricalDataset, list[str]]:
    """Generate a dataset; returns it with the planted variable names."""
    if spec.rows < 1 or spec.n_vars < 1:
        raise DataError("rows and vars must be >= 1")
    if not 0 <= spec.n_planted <= spec.n_vars:
        raise DataError("planted count must be between 0 and vars")
    if spec.classes < 2 or spec.categories < 2:
        raise DataError("classes and categories must be >= 2")
    if not 0.0 <= spec.noise <= 1.0:
        raise DataError("noise must be in [0, 1]")
    rng = np.random.default_rng(spec.seed)
    latent = rng.integers(0, spec.classes, size=spec.rows)
    planted = set(planted_positions(spec.n_vars, spec.n_planted))

    variables: list[CategoricalVariable] = []
    planted_no = 0
    noise_no = 0
    for j in range(spec.n_vars):
        if j in planted:
            planted_no += 1
            name = f"planted{planted_no}"
            perm = rng.permutation(spec.classes)
            codes = perm[latent]
            flips = rng.random(spec.rows) < spec.noise
            codes[flips] = rng.integers(0, spec.classes, size=int(flips.sum()))
        else:
            noise_no += 1
            name = f"noise{noise_no}"
            codes = rng.integers(0, spec.categories, size=spec.rows)
        variables.append(_variable(name, codes))
    dataset = _dataset(variables, np.ones(spec.rows))
    return dataset, [variables[j].name for j in sorted(planted)]


def write_csv(write, dataset: CategoricalDataset) -> None:
    """Write instance-level CSV of a generated dataset (unit weights), one row chunk per piece."""
    write(",".join(dataset.variable_names()) + "\n")
    for start, stop in row_ranges(dataset.n_instances):
        write("\n".join(dataset.instance_labels(start, stop, ",")) + "\n")
