import csv
import io
import re

import numpy as np
import pytest

from rspca import (BasisAtom, CategoricalVariable, DataError, build_simplex, covariance_matrix,
                   load_contingency)
from rspca import dataset as dataset_module
from rspca.dataset import _dataset, _Encoder
from rspca.pca import LrsvLayout, PcaModel
from rspca.emit import synthetic_csv

# Caithness eye/hair color table (Fisher 1940); rows = eye, columns = hair.
FISHER_CSV = (
    "eye\\hair,fair,red,medium,dark,black\n"
    "blue,326,38,241,110,3\n"
    "light,688,116,584,188,4\n"
    "medium,343,84,909,412,26\n"
    "dark,98,48,403,681,85\n"
)

FISHER_EYE_MARGINALS = [718, 1580, 1774, 1315]
FISHER_HAIR_MARGINALS = [1455, 286, 2137, 1391, 118]
FISHER_TOTAL = 5387


def written(emitter, *args) -> str:
    """Everything ``emitter(write, *args)`` writes, collected from its ``write`` calls."""
    out = io.StringIO()
    emitter(out.write, *args)
    return out.getvalue()


def to_csv_text(dataset) -> str:
    """The instance-level CSV ``synth`` writes for a dataset."""
    return written(synthetic_csv, dataset)


@pytest.fixture(scope="session")
def fisher_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "fisher.csv"
    path.write_text(FISHER_CSV, encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def fisher(fisher_path):
    return load_contingency(fisher_path, "eye", "hair")


def from_columns(names, columns, weights=None):
    """A dataset of label columns, each encoded by first appearance with the loaders'
    ``_Encoder`` and checked by their ``_dataset``; unit weights unless ``weights`` are given."""
    variables = []
    for name, column in zip(names, columns):
        encoder = _Encoder(name)
        codes = encoder.encode(column)
        variables.append(CategoricalVariable(name, list(encoder.labels), codes))
    return _dataset(variables, np.ones(len(columns[0])) if weights is None
                    else np.asarray(weights, dtype=float))


def random_dataset(rng, n_vars=2, max_rows=200, max_categories=5, weighted=True):
    """Small random weighted dataset for property tests."""
    n = int(rng.integers(5, max_rows + 1))
    names = [f"v{i}" for i in range(n_vars)]
    columns = []
    for _ in range(n_vars):
        k = int(rng.integers(1, max_categories + 1))
        columns.append([f"c{c}" for c in rng.integers(0, k, size=n)])
    weights = np.round(rng.uniform(0.0, 3.0, size=n), 3) if weighted else None
    if weights is not None and weights.sum() <= 0:
        weights[0] = 1.0
    return from_columns(names, columns, weights)


def frequencies(dataset, variable):
    """Weighted category probabilities of one variable from their own bincount; they sum to 1."""
    var = dataset.variable(variable)
    counts = np.bincount(var.codes, weights=dataset.weights, minlength=var.k)
    return counts / dataset.total_weight


def joint_table(dataset, var_i, var_j):
    """Weighted k_i x k_j co-occurrence counts of two variables from one bincount of the pair."""
    vi = dataset.variable(var_i)
    vj = dataset.variable(var_j)
    key = np.multiply(vi.codes, vj.k, dtype=np.intp)  # narrow codes would wrap around
    key += vj.codes
    return np.bincount(key, weights=dataset.weights, minlength=vi.k * vj.k).reshape(vi.k, vj.k)


def gini_variance(dataset, variable):
    """Gini variance (1 - sum p_k^2) / 2 as the package computes it: the diagonal of
    ``covariance_matrix``, half the trace of C_ii = diag(p) - p p^T."""
    return float(covariance_matrix(dataset.select([variable]))[0, 0])


def gini_double_sum(dataset, name):
    """Literal pairwise definition: average weighted disagreement over pairs."""
    codes = dataset.variable(name).codes
    w = dataset.weights
    total = w.sum()
    neq = (codes[:, None] != codes[None, :]).astype(float)
    return float(w @ neq @ w) / (2.0 * total * total)


def embedded_rows(dataset, name):
    """Simplex coordinates of one variable, one row per instance."""
    var = dataset.variable(name)
    return build_simplex(var.k)[var.codes]


def cross_double_sum(dataset, var_i, var_j):
    """Literal pairwise cross matrix (outer products of coordinate differences)."""
    vi = embedded_rows(dataset, var_i)
    vj = embedded_rows(dataset, var_j)
    w = dataset.weights
    total = w.sum()
    di = vi[:, None, :] - vi[None, :, :]
    dj = vj[:, None, :] - vj[None, :, :]
    return np.einsum("a,b,abi,abj->ij", w, w, di, dj) / (2.0 * total * total)


def half_centred_table(dataset, var_i, var_j):
    """(P_ij - p_i p_j^T) / 2 from the joint table: same singular values as the cross matrix."""
    joint = joint_table(dataset, var_i, var_j) / dataset.total_weight
    return (joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))) / 2.0


def atom_vector(atom, k):
    """The simplex-space vector an atom of a k-category variable names.

    An edge is v_to - v_from, a center the vertex v_to itself.
    """
    v = build_simplex(k)
    if atom.kind == "edge":
        return v[atom.to_category] - v[atom.from_category]
    return v[atom.to_category].copy()


def basis_atoms(k, variable):
    """The whole atom dictionary of a k-category variable, in its reference order.

    k(k-1)/2 edge atoms v_b - v_a (a < b, ordered by a then b) followed by
    the k center atoms v_a; empty for k = 1.
    """
    edges = [BasisAtom("edge", variable, a, b) for a in range(k) for b in range(a + 1, k)]
    return edges + [BasisAtom("center", variable, a, a) for a in range(k)]


def dictionary_pursuit(block, variable, max_terms=4, eps=0.05, tie=1e-9):
    """Reference matching pursuit of one block over its materialized dictionary.

    Each step takes the first atom, in ``basis_atoms`` order, whose
    correlation with the residual is within ``tie`` (relative) of the
    best, so roundoff never decides between atoms that tie exactly.
    Returns the (coefficient, atom) picks in order of first pick and the
    residual norm.
    """
    atoms = basis_atoms(block.size + 1, variable)
    dictionary = np.stack([atom_vector(atom, block.size + 1) for atom in atoms])
    norms = np.linalg.norm(dictionary, axis=1)
    resid = block.copy()
    coefs = {}
    for _ in range(max(8 * max_terms, 32)):
        if np.linalg.norm(resid) <= eps * np.linalg.norm(block):
            break
        correlation = np.abs(dictionary @ resid) / norms
        pick = int(np.argmax(correlation >= correlation.max() * (1.0 - tie)))
        if pick not in coefs and len(coefs) >= max_terms:
            break
        c = float(dictionary[pick] @ resid) / float(norms[pick] ** 2)
        coefs[pick] = coefs.get(pick, 0.0) + c
        resid = resid - c * dictionary[pick]
    return [(c, atoms[i]) for i, c in coefs.items()], float(np.linalg.norm(resid))


def block_model(blocks):
    """A one-component model whose eigenvector stacks the given blocks, variable v<i> per block."""
    widths = [block.size for block in blocks]
    offsets = [sum(widths[:i]) for i in range(len(widths))]
    cats = [[f"c{a}" for a in range(w + 1)] for w in widths]
    layout = LrsvLayout([f"v{i}" for i in range(len(blocks))], cats, offsets, widths, sum(widths))
    return PcaModel(np.zeros(layout.dim), np.ones(1), np.concatenate(blocks)[:, None], layout)


def haar_orthogonal(rng, n, count=1):
    """Stack of Haar-distributed orthogonal matrices."""
    out = np.empty((count, n, n))
    for i in range(count):
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        out[i] = q * np.sign(np.diag(r))
    return out


def procrustes_correlation(x, y):
    """Pearson r between y and x after the best orthogonal alignment of x to y."""
    u, _, vt = np.linalg.svd(x.T @ y)
    aligned = x @ (u @ vt)
    return float(np.corrcoef(aligned.ravel(), y.ravel())[0, 1])


def permute_table_columns(csv_text, order):
    """Contingency CSV with its value columns (and labels) reordered."""
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    out = [",".join([header[0]] + [header[1 + j] for j in order])]
    for line in lines[1:]:
        cells = line.split(",")
        out.append(",".join([cells[0]] + [cells[1 + j] for j in order]))
    return "\n".join(out) + "\n"


def reference_records(path, delimiter=","):
    """The records of a CSV file read one at a time: a list of ``(line, record)``.

    A record's line is the reader's ``line_num`` after the previous record,
    plus 1.  Reading stops at the first record that holds a byte that is not
    UTF-8 (a lone surrogate after surrogateescape) or that the reader
    rejects; it is kept as its error message, a ``str``, in place of the
    record.
    """
    try:
        with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            rows, end = [], 0
            while True:
                try:
                    row = next(reader)
                except StopIteration:
                    break
                except csv.Error as exc:
                    rows.append((end + 1, str(exc)))
                    break
                bad = re.search("[\udc80-\udcff]", "".join(row))
                if bad:
                    rows.append((end + 1, f"byte 0x{ord(bad.group()) - 0xDC00:02x} is not UTF-8"))
                    break
                rows.append((end + 1, row))
                end = reader.line_num
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    return rows


def reference_dataset(names, columns, weights):
    """``(names, categories, codes, weights)`` of label columns, each encoded by first
    appearance, once the total weight is positive and below 2**1023."""
    with np.errstate(over="ignore"):
        total = np.asarray(weights).sum()
    if not total < 2.0**1023:
        raise DataError("total weight must be below 2**1023 (weights too large to sum)")
    if total <= 0:
        raise DataError("total weight must be positive")
    categories, codes = [], []
    for col in columns:
        index = {}
        codes.append([index.setdefault(val, len(index)) for val in col])
        categories.append(list(index))
    return names, categories, codes, weights


def reference_load_csv(path, weight_column=None, missing_policy="own", delimiter=","):
    """Row-at-a-time instance CSV loader, the reference for ``load_csv``.

    It keeps every record (``reference_records``), then checks, pads and
    collects one row at a time, and encodes each finished column by first
    appearance.  Returns ``(names, categories, codes, weights)`` as plain
    lists, or raises the ``DataError`` that ``load_csv`` must raise.  An
    unreadable record is raised when the checks reach it.
    """
    if missing_policy not in ("own", "drop"):
        raise DataError(f"unknown missing policy {missing_policy!r}")
    if len(delimiter) != 1:
        raise DataError(f"delimiter must be a single character, got {delimiter!r}")
    rows = reference_records(path, delimiter)
    if not rows:
        raise DataError(f"{path}: empty file (header row required)")
    header = rows[0][1]
    if isinstance(header, str):
        raise DataError(f"{path}: line 1: {header}")
    if len(header) != len(set(header)):
        raise DataError(f"{path}: duplicate header names")
    for i, name in enumerate(header):
        if name == "" and weight_column != "":
            raise DataError(f"{path}: header column {i + 1} has an empty name")
    w_idx = None
    if weight_column is not None:
        if weight_column not in header:
            raise DataError(f"{path}: weight column {weight_column!r} not in header")
        w_idx = header.index(weight_column)
    var_idx = [i for i in range(len(header)) if i != w_idx]
    if not var_idx:
        raise DataError(f"{path}: no categorical columns")
    columns = [[] for _ in var_idx]
    weights = []
    for lineno, row in rows[1:]:
        if isinstance(row, str):
            raise DataError(f"{path}: line {lineno}: {row}")
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
            col.append(val if val != "" else "(missing)")
        weights.append(w)
    if not weights:
        raise DataError(f"{path}: no usable rows")
    return reference_dataset([header[i] for i in var_idx], columns, weights)


def reference_load_contingency(path, row_variable="row", col_variable="col"):
    """Row-at-a-time contingency-table loader, the reference for ``load_contingency``.

    It keeps every record (``reference_records``), checks the header and
    then one body row at a time, turns each positive cell into one weighted
    instance and encodes both label columns by first appearance.  Returns
    ``(names, categories, codes, weights)`` as plain lists, or raises the
    ``DataError`` that ``load_contingency`` must raise.  A label becomes a
    category at its first positive cell; once a row passes its checks, the
    row variable and then the column variable must hold at most
    ``rspca.dataset.MAX_CATEGORIES`` categories.
    """
    if row_variable == "" or col_variable == "":
        raise DataError("row and column variables need non-empty names")
    if row_variable == col_variable:
        raise DataError("row and column variables need distinct names")
    rows = reference_records(path)
    if rows and isinstance(rows[0][1], str):
        raise DataError(f"{path}: line 1: {rows[0][1]}")
    if len(rows) < 2 or len(rows[0][1]) < 2:
        raise DataError(f"{path}: not a contingency table (need labels plus cells)")
    col_labels = rows[0][1][1:]
    if len(col_labels) != len(set(col_labels)) or "" in col_labels:
        raise DataError(f"{path}: column labels must be unique and non-empty")
    row_col, col_col, weights, seen = [], [], [], set()
    for lineno, row in rows[1:]:
        if isinstance(row, str):
            raise DataError(f"{path}: line {lineno}: {row}")
        if not row:
            continue
        if len(row) != len(col_labels) + 1:
            raise DataError(f"{path}: line {lineno}: {len(row)} fields, expected {len(col_labels) + 1}")
        if row[0] in seen:
            raise DataError(f"{path}: line {lineno}: duplicate row label {row[0]!r}")
        seen.add(row[0])
        for col_label, cell in zip(col_labels, row[1:]):
            try:
                count = float(cell)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: cell {cell!r} is not a number") from None
            if not np.isfinite(count) or count < 0:
                raise DataError(f"{path}: line {lineno}: negative or non-finite cell {cell!r}")
            if count > 0:
                row_col.append(row[0])
                col_col.append(col_label)
                weights.append(count)
        cap = dataset_module.MAX_CATEGORIES
        for name, labels in ((row_variable, row_col), (col_variable, col_col)):
            if len(set(labels)) > cap:
                raise DataError(f"variable {name!r} has more than {cap} categories")
    if not weights:
        raise DataError(f"{path}: table has no positive cells")
    return reference_dataset([row_variable, col_variable], [row_col, col_col], weights)
