"""Weighted column-oriented categorical datasets.

Two ingestion paths produce the same structure: instance-level CSV files
(one row per observation, optional weight column) and two-way contingency
tables (one weighted instance per nonzero cell).  Category encoding is
first-appearance order, so loading the same input twice yields identical
codes.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError

MISSING_LABEL = "(missing)"


@dataclass(frozen=True)
class CategoricalVariable:
    """One categorical column: ordered labels plus per-instance codes."""

    name: str
    categories: list[str]
    codes: np.ndarray

    @property
    def k(self) -> int:
        return len(self.categories)


@dataclass(frozen=True)
class CategoricalDataset:
    """A set of equal-length categorical variables with instance weights."""

    variables: list[CategoricalVariable]
    weights: np.ndarray

    @property
    def n_instances(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def variable(self, name: str) -> CategoricalVariable:
        for var in self.variables:
            if var.name == name:
                return var
        raise DataError(f"unknown variable {name!r}")

    def variable_names(self) -> list[str]:
        return [v.name for v in self.variables]

    def select(self, names: list[str]) -> "CategoricalDataset":
        """Dataset restricted to the given variables, in the given order."""
        if not names:
            raise DataError("empty variable selection")
        return CategoricalDataset([self.variable(n) for n in names], self.weights)

    def instance_labels(self, separator: str = "-") -> list[str]:
        """Joined category labels per instance, e.g. "light-fair"."""
        columns = [np.array(v.categories, dtype=object)[v.codes].tolist() for v in self.variables]
        return list(map(separator.join, zip(*columns)))


def _encode(values: list[str]) -> tuple[list[str], np.ndarray]:
    """First-appearance encoding: labels in input order, codes into them."""
    index = {val: code for code, val in enumerate(dict.fromkeys(values))}
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))
    return list(index), codes


def from_columns(
    names: list[str],
    columns: list[list[str]],
    weights=None,
) -> CategoricalDataset:
    """Build a dataset from label columns (the common tail of both loaders)."""
    if len(names) != len(set(names)):
        raise DataError("duplicate variable names")
    if not columns or not columns[0]:
        raise DataError("empty dataset")
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise DataError("columns differ in length")
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise DataError("weight vector length does not match instance count")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise DataError("weights must be finite and nonnegative")
    with np.errstate(over="ignore"):
        total = w.sum()
    if not np.isfinite(total):
        raise DataError("total weight is not finite (weights too large to sum)")
    if total <= 0:
        raise DataError("total weight must be positive")
    variables = []
    for name, col in zip(names, columns):
        cats, codes = _encode(col)
        variables.append(CategoricalVariable(name, cats, codes))
    return CategoricalDataset(variables, w)


def load_csv(
    path,
    weight_column: str | None = None,
    missing_policy: str = "own",
    delimiter: str = ",",
) -> CategoricalDataset:
    """Load an instance-level CSV (UTF-8, optional BOM, mandatory header row).

    Every non-weight column becomes a categorical variable.  Empty cells
    are missing values: with ``missing_policy="own"`` they become the
    literal category "(missing)", with ``"drop"`` the whole row is
    discarded.
    """
    if missing_policy not in ("own", "drop"):
        raise DataError(f"unknown missing policy {missing_policy!r}")
    if len(delimiter) != 1:
        raise DataError(f"delimiter must be a single character, got {delimiter!r}")
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh, delimiter=delimiter))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file (header row required)")
    header = rows[0]
    if len(header) != len(set(header)):
        raise DataError(f"{path}: duplicate header names")
    w_idx = None
    if weight_column is not None:
        if weight_column not in header:
            raise DataError(f"{path}: weight column {weight_column!r} not in header")
        w_idx = header.index(weight_column)
    var_idx = [i for i in range(len(header)) if i != w_idx]
    if not var_idx:
        raise DataError(f"{path}: no categorical columns")

    columns: list[list[str]] = [[] for _ in var_idx]
    weights: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) > len(header):
            raise DataError(f"{path}: line {lineno}: {len(row)} fields, expected {len(header)}")
        cells = row + [""] * (len(header) - len(row))
        values = [cells[i] for i in var_idx]
        if missing_policy == "drop" and any(v == "" for v in values):
            continue
        if w_idx is not None:
            try:
                w = float(cells[w_idx])
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: weight {cells[w_idx]!r} is not a number"
                ) from None
            if not np.isfinite(w) or w < 0:
                raise DataError(f"{path}: line {lineno}: negative or non-finite weight {w}")
        else:
            w = 1.0
        for col, val in zip(columns, values):
            col.append(val if val != "" else MISSING_LABEL)
        weights.append(w)
    if not weights:
        raise DataError(f"{path}: no usable rows")
    names = [header[i] for i in var_idx]
    return from_columns(names, columns, weights)


def load_contingency(path, row_variable: str = "row", col_variable: str = "col") -> CategoricalDataset:
    """Load a two-way contingency table as a weighted two-variable dataset.

    Format: header = corner cell then column labels; each body row = row
    label then nonnegative counts.  Every nonzero cell becomes one
    instance weighted by the cell value, so the dataset's total weight is
    the table total.
    """
    if row_variable == col_variable:
        raise DataError("row and column variables need distinct names")
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2 or len(rows[0]) < 2:
        raise DataError(f"{path}: not a contingency table (need labels plus cells)")
    col_labels = rows[0][1:]
    if len(col_labels) != len(set(col_labels)) or any(c == "" for c in col_labels):
        raise DataError(f"{path}: column labels must be unique and non-empty")
    row_col: list[str] = []
    col_col: list[str] = []
    weights: list[float] = []
    seen_rows = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(col_labels) + 1:
            raise DataError(
                f"{path}: line {lineno}: {len(row)} fields, expected {len(col_labels) + 1}"
            )
        label = row[0]
        if label in seen_rows:
            raise DataError(f"{path}: line {lineno}: duplicate row label {label!r}")
        seen_rows.add(label)
        for col_label, cell in zip(col_labels, row[1:]):
            try:
                count = float(cell)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: cell {cell!r} is not a number") from None
            if not np.isfinite(count) or count < 0:
                raise DataError(f"{path}: line {lineno}: negative or non-finite cell {cell!r}")
            if count > 0:
                row_col.append(label)
                col_col.append(col_label)
                weights.append(count)
    if not weights:
        raise DataError(f"{path}: table has no positive cells")
    return from_columns([row_variable, col_variable], [row_col, col_col], weights)


def frequencies(dataset: CategoricalDataset, variable: str) -> np.ndarray:
    """Weighted category probabilities, in category order; they sum to 1."""
    var = dataset.variable(variable)
    counts = np.bincount(var.codes, weights=dataset.weights, minlength=var.k)
    return counts / dataset.total_weight


def joint_table(dataset: CategoricalDataset, var_i: str, var_j: str) -> np.ndarray:
    """Weighted k_i x k_j co-occurrence counts of two variables."""
    vi = dataset.variable(var_i)
    vj = dataset.variable(var_j)
    flat = np.bincount(vi.codes * vj.k + vj.codes, weights=dataset.weights, minlength=vi.k * vj.k)
    return flat.reshape(vi.k, vj.k)
