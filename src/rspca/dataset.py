"""Weighted column-oriented categorical datasets.

Two ingestion paths produce the same structure: instance-level CSV files
(one row per observation, optional weight column) and two-way contingency
tables (one weighted instance per nonzero cell).  Category encoding is
first-appearance order, so loading the same input twice yields identical
codes.
"""

import csv
import re
from dataclasses import dataclass
from itertools import compress, islice

import numpy as np

from .errors import DataError

MISSING_LABEL = "(missing)"
_CHUNK_CELLS = 1 << 15  # cells load_csv parses per chunk: one chunk of strings is alive at a time
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # a byte that is not UTF-8, after surrogateescape


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


class _Encoder:
    """First-appearance encoding of one column, fed a piece at a time.

    ``labels`` maps each label to its code in order of first appearance;
    ``cells`` maps each raw cell seen so far to its code.  An empty cell
    gets the label ``empty``, so it shares a code with a cell that holds
    that label literally.
    """

    def __init__(self, empty: str = ""):
        self.empty = empty
        self.labels: dict[str, int] = {}
        self.cells: dict[str, int] = {}

    def encode(self, values) -> np.ndarray:
        """Codes of ``values``, registering the cells not seen before."""
        cells, labels = self.cells, self.labels
        try:  # most pieces after the first hold no new cell: one pass, not two
            return np.fromiter(map(cells.__getitem__, values), dtype=np.intp, count=len(values))
        except KeyError:
            pass
        for cell in dict.fromkeys(values):
            if cell not in cells:
                cells[cell] = labels.setdefault(self.empty if cell == "" else cell, len(labels))
        return np.fromiter(map(cells.__getitem__, values), dtype=np.intp, count=len(values))


def _dataset(variables: list[CategoricalVariable], weights: np.ndarray) -> CategoricalDataset:
    """The dataset, once the total of its (already checked) weights is finite and positive."""
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not np.isfinite(total):
        raise DataError("total weight is not finite (weights too large to sum)")
    if total <= 0:
        raise DataError("total weight must be positive")
    return CategoricalDataset(variables, weights)


def from_columns(
    names: list[str],
    columns: list[list[str]],
    weights=None,
) -> CategoricalDataset:
    """Build a dataset from label columns; an empty string is a label like any other."""
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
    variables = []
    for name, col in zip(names, columns):
        enc = _Encoder()
        codes = enc.encode(col)
        variables.append(CategoricalVariable(name, list(enc.labels), codes))
    return _dataset(variables, w)


def _record_error(path, message: str, record: list, records: list,
                  first_line: int = 1) -> DataError:
    """A ``DataError`` naming the physical line on which ``record`` starts.

    ``record`` is an element of ``records``, and ``records[0]`` starts on
    ``first_line``.  Each record takes one line plus one for every line
    break kept inside its quoted fields.
    """
    line = first_line
    for rec in records:
        if rec is record:
            break
        line += 1 + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in rec)
    return DataError(f"{path}: line {line}: {message}")


def _unreadable_record(path, delimiter: str) -> DataError:
    """Error naming the line of the first record that has a non-UTF-8 byte or is rejected.

    The text decoder reads ahead in blocks, so its error does not locate the
    byte: this reads the file again with undecodable bytes escaped.
    """
    line = 1
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            for record in reader:
                bad = _ESCAPED_BYTE.search("".join(record))
                if bad:
                    byte = ord(bad.group()) - 0xDC00
                    return DataError(f"{path}: line {line}: byte 0x{byte:02x} is not UTF-8")
                line = reader.line_num + 1
        except csv.Error as exc:
            return DataError(f"{path}: line {line}: {exc}")
    return DataError(f"{path}: changed while being read")


def _first_unparsable(cells) -> int:
    """Index of the first cell ``float`` rejects; one must exist."""
    for i, cell in enumerate(cells):
        try:
            float(cell)
        except ValueError:
            return i


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
    discarded.  Blank lines are skipped and short rows padded with empty
    cells.

    Rows are read in chunks of about ``_CHUNK_CELLS`` cells.  Each chunk is
    checked column by column, transposed and encoded, and then only its
    codes and weights are kept, so memory holds one chunk of cell strings
    plus N x vars integer codes and N weights; no list of all rows exists.

    An error names the physical line on which the offending record starts
    (a quoted field may span lines).  The first offending record in the
    file wins; within a record a field count beats an unparsable weight,
    which beats a negative or non-finite one.  A row dropped for a missing
    cell is not weight-checked.  A record that cannot be read at all (a
    byte that is not UTF-8, a field over the csv module's size limit) is
    reported as soon as reading meets it, ahead of errors in the earlier
    records of its chunk.
    """
    if missing_policy not in ("own", "drop"):
        raise DataError(f"unknown missing policy {missing_policy!r}")
    if len(delimiter) != 1:
        raise DataError(f"delimiter must be a single character, got {delimiter!r}")
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return _read_instances(path, csv.reader(fh, delimiter=delimiter),
                                   weight_column, missing_policy == "drop")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error):
        raise _unreadable_record(path, delimiter) from None


def _read_instances(path, reader, weight_column: str | None, drop: bool) -> CategoricalDataset:
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file (header row required)")
    width = len(header)
    if width != len(set(header)):
        raise DataError(f"{path}: duplicate header names")
    w_idx = None
    if weight_column is not None:
        if weight_column not in header:
            raise DataError(f"{path}: weight column {weight_column!r} not in header")
        w_idx = header.index(weight_column)
    var_idx = [i for i in range(width) if i != w_idx]
    if not var_idx:
        raise DataError(f"{path}: no categorical columns")

    encoders = [_Encoder(MISSING_LABEL) for _ in var_idx]
    code_parts: list[list[np.ndarray]] = [[] for _ in var_idx]
    weight_parts: list[np.ndarray] = []
    chunk_rows = max(1, _CHUNK_CELLS // width)
    while True:
        first_line = reader.line_num + 1
        chunk = list(islice(reader, chunk_rows))
        if not chunk:
            break
        rows = list(filter(None, chunk))  # blank lines come back as []
        lengths = list(map(len, rows))
        overlong = None
        if rows and max(lengths) > width:
            cut = next(i for i, n in enumerate(lengths) if n > width)
            overlong, rows = rows[cut], rows[:cut]
        if rows and min(lengths) < width:
            for row, n in zip(rows, lengths):
                if n < width:
                    row.extend([""] * (width - n))
        columns = list(zip(*rows))
        if drop and columns and any("" in columns[i] for i in var_idx):
            rows = list(compress(rows, map(all, zip(*(columns[i] for i in var_idx)))))
            columns = list(zip(*rows))
        weights = np.ones(len(rows))
        if w_idx is not None and rows:
            weights = _chunk_weights(path, chunk, first_line, rows, columns[w_idx])
        if overlong is not None:
            raise _record_error(path, f"{len(overlong)} fields, expected {width}",
                                overlong, chunk, first_line)
        if not rows:
            continue
        for enc, parts, i in zip(encoders, code_parts, var_idx):
            parts.append(enc.encode(columns[i]))
        weight_parts.append(weights)
    if not weight_parts:
        raise DataError(f"{path}: no usable rows")
    variables = []
    for enc, parts, i in zip(encoders, code_parts, var_idx):
        variables.append(CategoricalVariable(header[i], list(enc.labels), np.concatenate(parts)))
        parts.clear()  # so at most one variable's codes exist twice
    return _dataset(variables, np.concatenate(weight_parts))


def _chunk_weights(path, chunk: list, first_line: int, rows: list, cells: tuple) -> np.ndarray:
    """Parsed weight cells of ``rows``; raises for the first bad one in file order."""
    try:
        weights = np.fromiter(map(float, cells), dtype=float, count=len(cells))
        unparsable = len(cells)
    except ValueError:
        unparsable = _first_unparsable(cells)
        weights = np.fromiter(map(float, cells[:unparsable]), dtype=float, count=unparsable)
    bad = np.flatnonzero(~np.isfinite(weights) | (weights < 0))
    if bad.size:
        raise _record_error(path, f"negative or non-finite weight {float(weights[bad[0]])}",
                            rows[bad[0]], chunk, first_line)
    if unparsable < len(cells):
        raise _record_error(path, f"weight {cells[unparsable]!r} is not a number",
                            rows[unparsable], chunk, first_line)
    return weights


def load_contingency(path, row_variable: str = "row", col_variable: str = "col") -> CategoricalDataset:
    """Load a two-way contingency table as a weighted two-variable dataset.

    Format: header = corner cell then column labels; each body row = row
    label then nonnegative counts.  Every nonzero cell becomes one
    instance weighted by the cell value, so the dataset's total weight is
    the table total.  An error names the physical line on which the
    offending record starts.
    """
    if row_variable == col_variable:
        raise DataError("row and column variables need distinct names")
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error):
        raise _unreadable_record(path, ",") from None
    if len(rows) < 2 or len(rows[0]) < 2:
        raise DataError(f"{path}: not a contingency table (need labels plus cells)")
    col_labels = rows[0][1:]
    if len(col_labels) != len(set(col_labels)) or any(c == "" for c in col_labels):
        raise DataError(f"{path}: column labels must be unique and non-empty")
    row_col: list[str] = []
    col_col: list[str] = []
    weights: list[float] = []
    seen_rows = set()
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != len(col_labels) + 1:
            raise _record_error(path, f"{len(row)} fields, expected {len(col_labels) + 1}",
                                row, rows)
        label = row[0]
        if label in seen_rows:
            raise _record_error(path, f"duplicate row label {label!r}", row, rows)
        seen_rows.add(label)
        for col_label, cell in zip(col_labels, row[1:]):
            try:
                count = float(cell)
            except ValueError:
                raise _record_error(path, f"cell {cell!r} is not a number", row, rows) from None
            if not np.isfinite(count) or count < 0:
                raise _record_error(path, f"negative or non-finite cell {cell!r}", row, rows)
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
