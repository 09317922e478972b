"""Weighted column-oriented categorical datasets and their three sources.

Instance-level CSV files (one row per observation, optional weight
column), two-way contingency tables (one weighted instance per nonzero
cell) and a seeded generator of planted correlation structure
(``generate``) produce the same structure.  Category encoding is
first-appearance order, so loading the same input twice yields identical
codes.

``load_csv`` reads its file as bytes, a chunk of ``_CHUNK_CELLS`` cells at
a time (``_chunk_rows``), and each ``label_chunks`` chunk of output rows
holds as many label cells.  A plain chunk (ASCII without ``"``, NUL or a
CR that is not directly before an LF, read with those CRs dropped; every
line exactly as wide as the header; variable cells of at most 8 bytes; no
line over the csv module's field limit; every kept weight a finite,
nonnegative float) is split and encoded with numpy.  At the first chunk
that is not plain the load switches, one way, to the csv module for that
chunk's bytes and the rest of the file, so every error about a record
comes from that one path and a pipe loads as the file does.  Weights and
contingency cells are parsed one way (``_numbers``), as Python's
``float`` parses them, a sequence of cells at a time.
"""

import csv
import io
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice

import numpy as np

from .errors import DataError

MISSING_LABEL = "(missing)"
# most categories one variable may have: each pair's joint table is k_i x k_j
# float64, and a model's block matrix dim x dim, so 4096 already costs 134 MB
MAX_CATEGORIES = 4096
# cells per chunk of rows, read by load_csv or written as labels: one chunk of strings is alive
# at a time
_CHUNK_CELLS = 1 << 15
_JOIN_PARTS = 256  # per-chunk arrays of one column's codes (or of weights) load_csv joins into one
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # a byte that is not UTF-8, after surrogateescape
_BOM = b"\xef\xbb\xbf"
# most rows ``generate`` draws: a column of rows int64 draws must have a byte size numpy can hold
_MAX_ROWS = np.iinfo(np.intp).max // 8
# [n] masks a little-endian uint64 to its first n bytes
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _chunk_rows(width: int) -> int:
    """Rows of ``width`` cells in one chunk: ``_CHUNK_CELLS`` cells, or one row if it is wider."""
    return max(1, _CHUNK_CELLS // width)


def _code_dtype(k: int) -> type:
    """Narrowest unsigned dtype of the codes 0..k-1: uint8 up to 256 categories, else uint16,
    which holds every code up to ``MAX_CATEGORIES`` (``_Encoder`` refuses a column past it)."""
    return np.uint8 if k <= 256 else np.uint16


@dataclass(frozen=True)
class CategoricalVariable:
    """One categorical column: ordered labels plus per-instance codes.

    ``codes[a]`` indexes ``categories``.  The loaders store codes as uint8
    when k <= 256 and as uint16 otherwise (they refuse a column as soon as
    it passes ``MAX_CATEGORIES`` categories), so a cell costs one or two
    bytes.  Arithmetic on codes needs a dtype that holds its result, as
    the pass key of ``covariance.pair_moments`` does: uint8 and uint16 wrap.
    """

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

    def instance_labels(self, start: int = 0, stop: int | None = None,
                        separator: str = "-") -> list[str]:
        """Joined category labels of instances start..stop-1, e.g. "light-fair"."""
        rows = slice(start, stop)
        columns = [labels[v.codes[rows]].tolist()
                   for labels, v in zip(self._label_arrays, self.variables)]
        return list(map(separator.join, zip(*columns)))

    @cached_property
    def _label_arrays(self) -> list[np.ndarray]:
        """Each variable's categories as an object array its codes index, built once."""
        return [np.array(v.categories, dtype=object) for v in self.variables]

    def label_chunks(self, separator: str = "-"):
        """``(start, stop, instance_labels(start, stop, separator))`` for consecutive chunks of
        ``_chunk_rows(vars)`` instances, covering them all in order: a chunk of output rows
        holds ``_CHUNK_CELLS`` label cells, as a chunk ``load_csv`` reads holds that many cells."""
        n, step = self.n_instances, _chunk_rows(len(self.variables))
        for start in range(0, n, step):
            stop = min(start + step, n)
            yield start, stop, self.instance_labels(start, stop, separator)


class _Encoder:
    """First-appearance encoding of one column, fed a piece at a time.

    ``labels`` maps each label to its code in order of first appearance;
    ``cells`` maps each raw cell seen so far to its code.  An empty cell
    gets the label ``empty``, so it shares a code with a cell that holds
    that label literally.  Each piece's codes take the narrowest dtype
    that holds every label registered so far.  A piece that takes the
    column past ``MAX_CATEGORIES`` labels raises a ``DataError`` naming
    the column ``name`` once its new cells are registered, so an ID-like
    column costs at most one piece of labels, not one per row of the file.
    """

    def __init__(self, name: str, empty: str = ""):
        self.name = name
        self.empty = empty
        self.labels: dict[str, int] = {}
        self.cells: dict[str, int] = {}

    def encode(self, values) -> np.ndarray:
        """Codes of ``values``, registering the cells not seen before."""
        cells, labels = self.cells, self.labels
        try:  # most pieces after the first hold no new cell: one pass, not two
            return np.fromiter(map(cells.__getitem__, values), dtype=_code_dtype(len(labels)),
                               count=len(values))
        except KeyError:
            pass
        for cell in dict.fromkeys(values):
            if cell not in cells:
                cells[cell] = labels.setdefault(self.empty if cell == "" else cell, len(labels))
        if len(labels) > MAX_CATEGORIES:
            raise DataError(f"variable {self.name!r} has more than {MAX_CATEGORIES} categories")
        return np.fromiter(map(cells.__getitem__, values), dtype=_code_dtype(len(labels)),
                           count=len(values))


def _dataset(variables: list[CategoricalVariable], weights: np.ndarray) -> CategoricalDataset:
    """The dataset, once the total of its (already checked, nonnegative) weights is positive and
    below 2**1023, half the largest double: then every bin of every count table is finite."""
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not total < 2.0**1023:
        raise DataError("total weight must be below 2**1023 (weights too large to sum)")
    if total <= 0:
        raise DataError("total weight must be positive")
    return CategoricalDataset(variables, weights)


def _records(reader, first_line: int = 1):
    """``(line, record)`` for the records of a csv reader, up to the first that cannot be read.

    ``line`` is ``first_line`` plus the reader's ``line_num`` after the previous record: the
    physical line the record starts on, if the reader starts on line ``first_line``.  An
    unreadable record (a ``csv.Error`` the reader raised, or a byte that is not UTF-8, left by
    surrogateescape as a lone surrogate) comes as its message, a ``str``.  One ``isascii``
    over a record's cells clears most records.
    """
    line = first_line
    try:
        for record in reader:
            text = "".join(record)
            if not text.isascii() and (bad := _ESCAPED_BYTE.search(text)):
                yield line, f"byte 0x{ord(bad.group()) - 0xDC00:02x} is not UTF-8"
                return
            yield line, record
            line = first_line + reader.line_num
    except csv.Error as exc:
        yield line, str(exc)


def load_csv(
    path,
    weight_column: str | None = None,
    missing_policy: str = "own",
    delimiter: str = ",",
) -> CategoricalDataset:
    """Load an instance-level CSV (UTF-8, optional BOM, mandatory header row).

    Every non-weight column becomes a categorical variable; its header
    cell, its name, must not be empty.  Empty cells are missing values:
    with ``missing_policy="own"`` they become the literal category
    "(missing)", with ``"drop"`` the whole row is discarded.  The first
    line is the header even when it is blank, which leaves no categorical
    columns; blank lines after it are skipped, and short rows are padded
    with empty cells.  The delimiter is one character, not CR or LF, at
    which the csv module would end a record.

    The file is opened once, in binary mode, and read in one pass, in
    chunks of about ``_CHUNK_CELLS`` cells, so memory holds one chunk plus
    N x vars codes of one or two bytes each and N weights, in at most
    ``_JOIN_PARTS`` arrays per column (``_add_part``); no list of all rows
    exists.  A chunk (the header line too) is *plain* when it is
    ASCII without ``"`` or NUL, every CR in it comes directly before an
    LF (it is then read with those CRs dropped, as the csv module reads a
    CR LF line end), every line has exactly the header's
    width of cells, every variable cell is at most 8 bytes, no line is
    longer than the csv module's field limit and every weight cell that
    the missing policy keeps parses to a finite, nonnegative float.  A
    plain chunk is split with numpy (``_plain_cells``) and encoded from
    one packed uint64 per cell (``_encode_packed``).  At the first chunk
    that is not plain the load switches, for good, to the csv module: it
    reads that chunk's bytes, then the rest of the file, as text, and each
    chunk is checked column by column, transposed and encoded.  Both paths
    hand a column's cells to the same ``_Encoder`` in file order, so labels
    and codes do not depend on where the switch falls, and every error
    about a record comes from the csv path.

    An error names the physical line on which the offending record starts
    (a quoted field may span lines): the lines of the plain chunks before
    the switch plus the csv reader's ``line_num`` after the record before
    it (``_records``).  The first offending record in the file wins;
    within a record a field count beats an unparsable weight, which beats
    a negative or non-finite one.  A row dropped for a missing cell is
    not weight-checked.  The text is decoded with surrogateescape, so a
    record holding a byte that is not UTF-8, or a field over the csv
    module's size limit, ends the record stream and cuts its chunk like a
    record with too many fields.  A chunk is checked before it is
    encoded, and the chunk that takes a column past ``MAX_CATEGORIES``
    categories ends the load (``_Encoder``), so no later record is read.
    """
    if missing_policy not in ("own", "drop"):
        raise DataError(f"unknown missing policy {missing_policy!r}")
    if len(delimiter) != 1:
        raise DataError(f"delimiter must be a single character, got {delimiter!r}")
    if delimiter in "\r\n":
        raise DataError(f"delimiter must not be a line break, got {delimiter!r}")
    try:
        with open(path, "rb") as fh:
            return _read_instances(path, fh, weight_column, missing_policy == "drop", delimiter)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc


def _csv_records(read: bytes, fh, first_line: int, delimiter: str):
    """``(line, record)`` for each record of bytes ``read``, starting physical line ``first_line``,
    then of the rest of binary file ``fh`` (``_records``).  ``read`` is whole lines, so no CR LF
    or UTF-8 sequence straddles the join, and ``fh`` is never sought: a pipe reads as a file."""
    text = chain(*(io.TextIOWrapper(source, encoding="utf-8", errors="surrogateescape", newline="")
                   for source in (io.BytesIO(read), fh)))
    return _records(csv.reader(text, delimiter=delimiter), first_line)


def _read_instances(path, fh, weight_column: str | None, drop: bool,
                    delimiter: str) -> CategoricalDataset:
    """Check the header and every record of binary file ``fh`` in file order; the dataset
    they hold."""
    limit = csv.field_size_limit()
    # a delimiter the csv module does nothing with but split at
    splits = delimiter.isascii() and delimiter not in '"\0'
    line = fh.readline().removeprefix(_BOM)
    text = _plain_text(line)
    text = text and text.removesuffix(b"\n")
    records = None  # the csv reader's (line, record) pairs, once the load has switched to it
    if splits and text and len(text) <= limit:
        header = text.decode().split(delimiter)
        line0 = 1
    else:
        records = _csv_records(line, fh, 1, delimiter)
        _, header = next(records, (1, None))
        if header is None:
            raise DataError(f"{path}: empty file (header row required)")
        if isinstance(header, str):
            raise DataError(f"{path}: line 1: {header}")
    width = len(header)
    if width != len(set(header)):
        raise DataError(f"{path}: duplicate header names")
    if "" in header and weight_column != "":
        raise DataError(f"{path}: header column {header.index('') + 1} has an empty name")
    w_idx = None
    if weight_column is not None:
        if weight_column not in header:
            raise DataError(f"{path}: weight column {weight_column!r} not in header")
        w_idx = header.index(weight_column)
    var_idx = [i for i in range(width) if i != w_idx]
    if not var_idx:
        raise DataError(f"{path}: no categorical columns")

    encoders = [_Encoder(header[i], MISSING_LABEL) for i in var_idx]
    code_parts: list[list[np.ndarray]] = [[] for _ in var_idx]
    weight_parts: list[np.ndarray] = []
    step = _chunk_rows(width)
    while records is None:
        lines = list(islice(fh, step))
        if not lines:
            break
        data = b"".join(lines)
        cells = _plain_cells(data, len(lines), width, var_idx, w_idx, drop, ord(delimiter), limit)
        if cells is None:
            records = _csv_records(data, fh, line0 + 1, delimiter)
            break
        keys, weights = cells
        line0 += len(lines)
        if weights.size:
            for parts, enc, codes in zip(code_parts, encoders, _encode_packed(encoders, keys)):
                _add_part(parts, codes, _code_dtype(len(enc.labels)))
            _add_part(weight_parts, weights, float)
    while records is not None:
        chunk = list(islice(records, step))
        if not chunk:
            break
        # the chunk's rows end before its first offending record, if it has one
        error = chunk.pop() if isinstance(chunk[-1][1], str) else None
        lines, rows = zip(*chunk) if chunk else ((), ())
        if not all(rows):  # blank lines come back as []
            keep = list(map(bool, rows))
            lines, rows = list(compress(lines, keep)), list(compress(rows, keep))
        lengths = list(map(len, rows))
        if rows and max(lengths) > width:
            cut = next(i for i, n in enumerate(lengths) if n > width)
            error = lines[cut], f"{lengths[cut]} fields, expected {width}"
            lines, rows = lines[:cut], rows[:cut]
        if rows and min(lengths) < width:
            for row, n in zip(rows, lengths):
                if n < width:
                    row.extend([""] * (width - n))
        columns = list(zip(*rows))
        if drop and columns and any("" in columns[i] for i in var_idx):
            keep = list(map(all, zip(*(columns[i] for i in var_idx))))
            lines, rows = list(compress(lines, keep)), list(compress(rows, keep))
            columns = list(zip(*rows))
        weights = np.ones(len(rows))
        if w_idx is not None and rows:
            weights = _chunk_weights(path, lines, columns[w_idx])
        if error is not None:
            raise DataError(f"{path}: line {error[0]}: {error[1]}")
        if not rows:
            continue
        for enc, parts, i in zip(encoders, code_parts, var_idx):
            _add_part(parts, enc.encode(columns[i]), _code_dtype(len(enc.labels)))
        _add_part(weight_parts, weights, float)
    if not weight_parts:
        raise DataError(f"{path}: no usable rows")
    variables = []
    for enc, parts, i in zip(encoders, code_parts, var_idx):
        codes = np.concatenate(parts, dtype=_code_dtype(len(enc.labels)))
        variables.append(CategoricalVariable(header[i], list(enc.labels), codes))
        parts.clear()  # so at most one variable's codes exist twice
    return _dataset(variables, np.concatenate(weight_parts))


def _add_part(parts: list[np.ndarray], part: np.ndarray, dtype) -> None:
    """Append one chunk's codes or weights to ``parts`` as ``dtype`` (for codes, that of the
    variable's labels so far), joining ``_JOIN_PARTS`` parts into one as they accumulate, so
    a long file leaves a few large arrays, not one small array per chunk."""
    parts.append(part.astype(dtype, copy=False))
    if len(parts) == _JOIN_PARTS:
        parts[:] = [np.concatenate(parts, dtype=dtype)]


def _plain_text(data: bytes) -> bytes | None:
    """``data`` with the CR of each CR LF dropped, when it is ASCII without a double quote, NUL
    or any other CR: text the csv module splits at every delimiter and line end and leaves as
    it is; otherwise None.  A lone CR, one at the end of ``data`` too, ends a record there."""
    if not data.isascii() or b'"' in data or b"\0" in data:
        return None
    crs = data.count(b"\r")
    if crs == 0:
        return data
    return data.replace(b"\r\n", b"\n") if crs == data.count(b"\r\n") else None


def _plain_cells(data: bytes, n_lines: int, width: int, var_idx: list[int], w_idx: int | None,
                 drop: bool, delimiter: int, limit: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The packed variable cells (vars x rows uint64) and weights of the rows the missing
    policy keeps, when ``data``, ``n_lines`` whole lines, is a plain chunk; otherwise None.

    A cell of at most 8 bytes packs into one little-endian uint64, its first byte lowest and
    zeros above its last, so distinct cells (which hold no NUL) get distinct keys and the
    empty cell gets 0.
    """
    data = _plain_text(data)
    if data is None:
        return None
    if not data.endswith(b"\n"):
        data += b"\n"  # the file's last line may lack its LF
    n = len(data)
    buf = np.frombuffer(data + bytes(8), dtype=np.uint8)  # 8 zero bytes after the last cell
    ends = np.flatnonzero((buf[:n] == delimiter) | (buf[:n] == 10))
    # each line holds one LF, so if every width-th cell end is a LF, every line has width cells
    if ends.size != n_lines * width or np.any(buf[ends[width - 1::width]] != 10):
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = (ends - starts).reshape(n_lines, width)
    starts = starts.reshape(n_lines, width)
    line_lengths = np.diff(ends[width - 1::width], prepend=-1) - 1
    var_lengths = lengths[:, var_idx]
    if var_lengths.max() > 8 or line_lengths.max() > limit or not line_lengths.all():
        return None  # a cell too wide to pack, a field the csv module rejects, a blank line
    if drop:
        keep = var_lengths.all(axis=1)
        starts, lengths, var_lengths = starts[keep], lengths[keep], var_lengths[keep]
    words = np.ndarray((n,), dtype="<u8", buffer=buf, strides=(1,))  # the 8 bytes from each offset
    keys = words[starts[:, var_idx].T] & _LOW_BYTES[var_lengths.T]
    if w_idx is None:
        return keys, np.ones(len(starts))
    w_starts = starts[:, w_idx].tolist()
    w_ends = (starts[:, w_idx] + lengths[:, w_idx]).tolist()
    weights = _numbers([data[a:b] for a, b in zip(w_starts, w_ends)])
    return None if isinstance(weights, tuple) else (keys, weights)


def _encode_packed(encoders: list[_Encoder], keys: np.ndarray) -> np.ndarray:
    """Codes (vars x rows) of packed cells, through each column's encoder.

    One stable argsort groups every column's equal keys; each column's
    distinct cells, in order of first appearance, go to its encoder, so
    it registers them exactly as it would register the whole column.
    """
    n_vars, n_rows = keys.shape
    keys = keys.astype(np.min_scalar_type(keys.max()))  # cells of 1 or 2 bytes sort by radix
    order = np.argsort(keys, axis=1, kind="stable")
    ranked = np.take_along_axis(keys, order, axis=1)
    first = np.ones((n_vars, n_rows), dtype=bool)  # each group's first cell, in sorted order
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
    counts = first.sum(axis=1)
    group = np.cumsum(first).reshape(n_vars, n_rows) - 1  # over all columns, in sorted order
    appearance = np.lexsort((order[first], np.repeat(np.arange(n_vars), counts)))
    cells = ranked[first][appearance].astype("<u8").view("S8").astype(str).tolist()
    bounds = np.cumsum(counts).tolist()
    code = np.empty(len(cells), dtype=np.intp)
    code[appearance] = np.concatenate([enc.encode(cells[lo:hi]) for enc, lo, hi
                                       in zip(encoders, [0, *bounds], bounds)])
    codes = np.empty((n_vars, n_rows), dtype=np.intp)
    np.put_along_axis(codes, order, code[group], axis=1)
    return codes


def _numbers(cells) -> np.ndarray | tuple[int, float | None]:
    """The finite, nonnegative floats that ``cells`` (str, or ASCII bytes) hold, parsed as
    ``float`` parses them, in one numpy conversion; if a cell is not such a number,
    ``(index, value)`` of the first that is not, its value None when it does not parse."""
    try:
        values = np.array(cells, dtype=float)
        if np.all(values >= 0) and np.all(values < np.inf):  # a NaN fails both
            return values
    except ValueError:
        pass
    values = []
    for i, cell in enumerate(cells):
        try:
            values.append(float(cell))
        except ValueError:
            return i, None
        if not 0 <= values[-1] < np.inf:
            return i, values[-1]
    return np.array(values)


def _chunk_weights(path, lines, cells: tuple) -> np.ndarray:
    """Parsed weight cells of the records that start on ``lines``; the first cell that is not a
    number, or is negative or not finite, raises."""
    weights = _numbers(cells)
    if isinstance(weights, tuple):
        i, weight = weights
        if weight is None:
            raise DataError(f"{path}: line {lines[i]}: weight {cells[i]!r} is not a number")
        raise DataError(f"{path}: line {lines[i]}: negative or non-finite weight {weight}")
    return weights


def load_contingency(path, row_variable: str = "row", col_variable: str = "col") -> CategoricalDataset:
    """Load a two-way contingency table as a weighted two-variable dataset.

    Format: header = corner cell then column labels; each body row = row
    label then nonnegative counts, parsed as weights are (``_numbers``).
    Every nonzero cell becomes one instance weighted by the cell value, so
    the dataset's total weight is the table total.  An error names the
    physical line on which the offending record starts; the first offending
    record in the file wins, an unreadable one included, and within a
    record the first bad cell.  The file is opened in binary mode and read
    in one pass through ``_csv_records``, as ``load_csv`` reads its csv
    path, so both decode, drop a BOM and count lines one way.
    A row or column label becomes a category at its first positive cell,
    and each record is encoded before the next is read, row label first,
    so the record that takes a variable past ``MAX_CATEGORIES`` ends the
    load (``_Encoder``).
    """
    if "" in (row_variable, col_variable):
        raise DataError("row and column variables need non-empty names")
    if row_variable == col_variable:
        raise DataError("row and column variables need distinct names")
    try:
        with open(path, "rb") as fh:
            records = _csv_records(fh.readline().removeprefix(_BOM), fh, 1, ",")
            return _read_table(path, records, row_variable, col_variable)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc


def _read_table(path, records, row_variable: str, col_variable: str) -> CategoricalDataset:
    """Check the header and each of ``records`` (``_records``) in file order, encoding each
    record's positive cells before the next is read; the dataset they hold.

    A record's cells are parsed at once (``_numbers``).  Its row label, then the labels of the
    columns whose first positive cell it holds, in column order, go through the encoders; each
    column's code is then kept by position, so a record costs O(columns) numpy work.
    """
    header = next(records, (1, []))[1]
    if isinstance(header, str):
        raise DataError(f"{path}: line 1: {header}")
    first = next(records, None)
    if first is None or len(header) < 2:
        raise DataError(f"{path}: not a contingency table (need labels plus cells)")
    col_labels = header[1:]
    if len(col_labels) != len(set(col_labels)) or any(c == "" for c in col_labels):
        raise DataError(f"{path}: column labels must be unique and non-empty")
    row_enc, col_enc = _Encoder(row_variable), _Encoder(col_variable)
    col_code = np.full(len(col_labels), -1, dtype=np.intp)  # by position, once it is a category
    row_codes: list[int] = []  # one per record with a positive cell
    col_codes: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    seen_rows = set()
    for line, row in chain([first], records):
        if isinstance(row, str):  # unreadable, and last
            raise DataError(f"{path}: line {line}: {row}")
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}: line {line}: {len(row)} fields, expected {len(header)}")
        label = row[0]
        if label in seen_rows:
            raise DataError(f"{path}: line {line}: duplicate row label {label!r}")
        seen_rows.add(label)
        counts = _numbers(row[1:])
        if isinstance(counts, tuple):
            i, count = counts
            cell = row[1 + i]
            if count is None:
                raise DataError(f"{path}: line {line}: cell {cell!r} is not a number")
            raise DataError(f"{path}: line {line}: negative or non-finite cell {cell!r}")
        positive = np.flatnonzero(counts)
        if not positive.size:
            continue
        row_codes.append(int(row_enc.encode([label])[0]))
        new = positive[col_code[positive] < 0]
        col_code[new] = col_enc.encode([col_labels[j] for j in new.tolist()])
        col_codes.append(col_code[positive])
        weights.append(counts[positive])
    if not weights:
        raise DataError(f"{path}: table has no positive cells")
    codes = (np.repeat(row_codes, list(map(len, weights))), np.concatenate(col_codes))
    return _dataset([CategoricalVariable(enc.name, list(enc.labels),
                                         c.astype(_code_dtype(len(enc.labels))))
                     for enc, c in zip((row_enc, col_enc), codes)], np.concatenate(weights))


@dataclass(frozen=True)
class SyntheticSpec:
    """One latent class per instance; a planted variable reports a fixed permutation of it,
    replaced by a uniform draw with probability ``noise``, and the others are uniform draws.
    The planted block is what a variable-selection run should recover."""

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
    if spec.rows > _MAX_ROWS:
        raise DataError(f"rows must be at most {_MAX_ROWS}")
    if not 0 <= spec.n_planted <= spec.n_vars:
        raise DataError("planted count must be between 0 and vars")
    if spec.classes < 2 or spec.categories < 2:
        raise DataError("classes and categories must be >= 2")
    if max(spec.classes, spec.categories) > MAX_CATEGORIES:
        raise DataError(f"classes and categories must be at most {MAX_CATEGORIES}")
    if not 0.0 <= spec.noise <= 1.0:
        raise DataError("noise must be in [0, 1]")
    if spec.seed < 0:
        raise DataError("seed must be >= 0")
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

