import csv
import io
import os
import threading
import tracemalloc
from contextlib import suppress
from functools import partial

import numpy as np
import pytest

from rspca import (
    DataError,
    covariance_matrix,
    dataset as dataset_module,
    fit,
    load_contingency,
    load_csv,
    pair_moments,
    scores,
    variable_importance,
)
from rspca.dataset import CategoricalDataset, CategoricalVariable
from rspca.dataset import SyntheticSpec, generate
from .conftest import (FISHER_CSV, FISHER_EYE_MARGINALS, FISHER_TOTAL, from_columns,
                       reference_load_contingency, reference_load_csv, to_csv_text)


def distribution(dataset, i, j):
    """P_ij from ``pair_moments``, looked up by variable index (i <= j)."""
    return next(p for a, b, p in pair_moments(dataset) if (a, b) == (i, j))


def marginal(dataset, i):
    """The 1-way distribution p_i, as ``pair_moments`` yields it for (i, i)."""
    return distribution(dataset, i, i)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    path = write(tmp_path, "A,B\nx,u\ny,v\nx,u\n")
    ds = load_csv(path)
    assert ds.variable_names() == ["A", "B"]
    assert ds.n_instances == 3
    assert np.all(ds.weights == 1.0)
    assert ds.variable("A").categories == ["x", "y"]
    assert list(ds.variable("A").codes) == [0, 1, 0]


def test_load_csv_is_deterministic(tmp_path):
    path = write(tmp_path, "A,B\nz,q\na,r\nz,q\nb,r\n")
    d1 = load_csv(path)
    d2 = load_csv(path)
    for v1, v2 in zip(d1.variables, d2.variables):
        assert v1.categories == v2.categories
        assert np.array_equal(v1.codes, v2.codes)


def test_load_csv_weight_column(tmp_path):
    path = write(tmp_path, "A,w\nx,2\ny,3\n")
    ds = load_csv(path, weight_column="w")
    assert ds.variable_names() == ["A"]
    assert ds.total_weight == 5.0


def test_load_csv_missing_own(tmp_path):
    path = write(tmp_path, "A,B\nx,\ny,v\n")
    ds = load_csv(path)
    assert ds.n_instances == 2
    assert "(missing)" in ds.variable("B").categories


def test_load_csv_missing_drop(tmp_path):
    path = write(tmp_path, "A,B\nx,\ny,v\n")
    ds = load_csv(path, missing_policy="drop")
    assert ds.n_instances == 1
    assert ds.variable("A").categories == ["y"]


def test_load_csv_all_rows_dropped(tmp_path):
    path = write(tmp_path, "A,B\nx,\n,v\n")
    with pytest.raises(DataError):
        load_csv(path, missing_policy="drop")


def test_load_csv_duplicate_header(tmp_path):
    path = write(tmp_path, "A,A\nx,y\n")
    with pytest.raises(DataError, match="duplicate header"):
        load_csv(path)


def test_load_csv_strips_utf8_bom(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfeye,hair\nblue,fair\ndark,red\n")
    assert load_csv(path).variable_names() == ["eye", "hair"]


def test_load_csv_rejects_multichar_delimiter(tmp_path):
    path = write(tmp_path, "A;;B\nx;;u\n")
    with pytest.raises(DataError, match="';;'"):
        load_csv(path, delimiter=";;")
    with pytest.raises(DataError):
        load_csv(path, delimiter="")


def test_joint_table_weighted_counts():
    ds = from_columns(
        ["A", "B"], [["x", "y", "x", "x"], ["u", "u", "v", "u"]], [0.5, 2.0, 1.25, 3.0]
    )
    counts = np.array([[3.5, 1.25], [2.0, 0.0]])
    assert np.array_equal(distribution(ds, 0, 1), counts / ds.total_weight)


def test_load_csv_unreadable():
    with pytest.raises(DataError):
        load_csv("/no/such/file.csv")


def test_load_csv_negative_weight_names_line(tmp_path):
    path = write(tmp_path, "A,w\nx,1\ny,-2\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(path, weight_column="w")


def test_load_csv_bad_weight_names_line(tmp_path):
    path = write(tmp_path, "A,w\nx,oops\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(path, weight_column="w")


def test_load_csv_overlong_row_names_line(tmp_path):
    path = write(tmp_path, "A,B\nx,y,z\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(path)


def test_load_csv_missing_weight_column(tmp_path):
    path = write(tmp_path, "A\nx\n")
    with pytest.raises(DataError, match="weight column"):
        load_csv(path, weight_column="w")


def test_load_contingency_fisher(fisher):
    eye = fisher.variable("eye")
    hair = fisher.variable("hair")
    assert eye.categories == ["blue", "light", "medium", "dark"]
    assert hair.categories == ["fair", "red", "medium", "dark", "black"]
    assert fisher.total_weight == FISHER_TOTAL
    assert fisher.n_instances == 20  # every cell is nonzero


def test_load_contingency_strips_utf8_bom(fisher, tmp_path):
    # a quoted corner cell holding the delimiter: a BOM left in place would split it
    text = '"eye,hair"' + FISHER_CSV[FISHER_CSV.index(","):]
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    ds = load_contingency(path, "eye", "hair")
    assert ds.variable_names() == fisher.variable_names()
    for v1, v2 in zip(ds.variables, fisher.variables):
        assert v1.categories == v2.categories
        assert np.array_equal(v1.codes, v2.codes)
    assert np.array_equal(ds.weights, fisher.weights)


def test_load_contingency_single_cell(tmp_path):
    path = write(tmp_path, ",only\nrow,7\n")
    ds = load_contingency(path, "r", "c")
    assert ds.variable("r").k == 1
    assert ds.variable("c").k == 1
    assert ds.total_weight == 7.0


def test_load_contingency_skips_zero_cells(tmp_path):
    path = write(tmp_path, ",a,b\nu,3,0\nv,0,3\n")
    ds = load_contingency(path, "r", "c")
    assert ds.n_instances == 2
    assert ds.total_weight == 6.0


def test_load_contingency_negative_cell(tmp_path):
    path = write(tmp_path, ",a\nu,-1\n")
    with pytest.raises(DataError, match="line 2"):
        load_contingency(path, "r", "c")


def test_load_contingency_ragged(tmp_path):
    path = write(tmp_path, ",a,b\nu,1\n")
    with pytest.raises(DataError, match="line 2"):
        load_contingency(path, "r", "c")


def test_load_contingency_non_numeric_cell(tmp_path):
    path = write(tmp_path, ",a\nu,x\n")
    with pytest.raises(DataError, match="line 2"):
        load_contingency(path, "r", "c")


def test_load_contingency_same_names(tmp_path):
    path = write(tmp_path, ",a\nu,1\n")
    with pytest.raises(DataError):
        load_contingency(path, "x", "x")


NON_EMPTY = "row and column variables need non-empty names"


@pytest.mark.parametrize("text, load, reference, message", [
    # refused before any row is read, so the record with too many fields is never reached
    ("A,,B\nx,1,z,extra\n", load_csv, reference_load_csv,
     "{path}: header column 2 has an empty name"),
    (",a,b\nr,1,2\n", partial(load_contingency, row_variable=""),
     partial(reference_load_contingency, row_variable=""), NON_EMPTY),
    (",a,b\nr,1,2\n", partial(load_contingency, row_variable="", col_variable=""),
     partial(reference_load_contingency, row_variable="", col_variable=""), NON_EMPTY),
    # other refusals, each with its exact message
    ("", load_csv, reference_load_csv, "{path}: empty file (header row required)"),
    ("A\nx\n", partial(load_csv, missing_policy="keep"),
     partial(reference_load_csv, missing_policy="keep"), "unknown missing policy 'keep'"),
    ("", lambda path: variable_importance(fit(from_columns(["A"], [["x", "y"]])), 2), None,
     "n_components must be in [1, 1]"),
    ("", lambda path: from_columns(["A"], [["x", "y"]], [2.0**1022, 2.0**1022]), None,
     "total weight must be below 2**1023 (weights too large to sum)"),
], ids=["header-cell", "row-name", "both-names", "empty-file", "missing-policy",
        "importance-components", "total-weight-bound"])
def test_an_empty_variable_name_is_refused(tmp_path, text, load, reference, message):
    path = write(tmp_path, text)
    assert load_outcome(load, path) == message.format(path=path)
    if reference is not None:
        assert load_outcome(reference, path) == message.format(path=path)


def test_a_blank_header_cell_may_name_the_weight_column(tmp_path):
    path = write(tmp_path, "A,,B\nx,2,z\n")
    assert load_outcome(load_csv, path, weight_column="") == (
        ["A", "B"], [["x"], ["z"]], [[0], [0]], [2.0])


def test_load_contingency_all_zero(tmp_path):
    path = write(tmp_path, ",a\nu,0\n")
    with pytest.raises(DataError):
        load_contingency(path, "r", "c")


def test_frequencies_fisher_eye(fisher):
    freqs = marginal(fisher, 0)
    expected = [m / FISHER_TOTAL for m in FISHER_EYE_MARGINALS]
    assert fisher.variable("eye").categories == ["blue", "light", "medium", "dark"]
    assert np.allclose(freqs, expected, atol=1e-15)
    assert abs(freqs.sum() - 1.0) <= 1e-12


def test_frequencies_single_category():
    ds = from_columns(["A"], [["x", "x", "x"]])
    assert np.array_equal(marginal(ds, 0), [1.0])


def test_frequencies_uniform():
    ds = from_columns(["A"], [["a", "b", "c", "d"] * 5])
    for p in marginal(ds, 0):
        assert abs(p - 0.25) <= 1e-12


def test_contingency_round_trip(fisher_path, fisher):
    table = distribution(fisher, 0, 1)
    original = []
    for line in fisher_path.read_text().strip().split("\n")[1:]:
        original.append([float(c) for c in line.split(",")[1:]])
    assert np.array_equal(table, np.array(original) / fisher.total_weight)


def test_select_subset(fisher):
    sub = fisher.select(["hair"])
    assert sub.variable_names() == ["hair"]
    assert sub.total_weight == fisher.total_weight
    with pytest.raises(DataError):
        fisher.select([])


def test_instance_labels(fisher):
    labels = fisher.instance_labels()
    assert labels[0] == "blue-fair"
    assert len(set(labels)) == 20


@pytest.mark.parametrize("cells, rows", [(7, 2), (6, 2), (2, 1), (1 << 15, 10922)])
def test_label_chunks_hold_chunk_cells_label_cells(monkeypatch, cells, rows):
    monkeypatch.setattr(dataset_module, "_CHUNK_CELLS", cells)
    dataset = from_columns(["a", "b", "c"], [[f"{x}{i % 4}" for i in range(9)] for x in "abc"])
    assert dataset_module._chunk_rows(3) == rows  # a chunk narrower than a row holds one row
    for sep in ("-", ","):
        chunks = list(dataset.label_chunks(sep))
        assert [(a, b) for a, b, _ in chunks] == [(a, min(a + rows, 9)) for a in range(0, 9, rows)]
        assert [label for *_, labels in chunks for label in labels] == \
            dataset.instance_labels(separator=sep)


def test_a_total_weight_below_the_bound_gives_finite_moments():
    # the weights of a total just below the largest double, which overflows category x's
    # bincount and is refused, scaled below 2**1023
    weights = 0.49 * np.array([9.98718408256842e+306] * 18 + [1.0])
    dataset = from_columns(["c", "d"], [["x"] * 18 + ["y"], ["p", "q"] * 9 + ["p"]], weights)
    model = fit(dataset)
    assert np.isfinite(covariance_matrix(dataset)).all()
    assert all(np.isfinite(a).all() for a in (model.mean, model.eigenvalues, model.eigenvectors))


# Cells the generated CSVs draw from: quoted delimiters, quotes and line
# breaks, an empty cell and a literal missing label.
FUZZ_CELLS = ["a", "b", "c", "", "(missing)", "x,y", "x;y", 'say "hi"', "p\nq", "r\r\ns", "t\ru", " a"]
FUZZ_CELL_P = [0.2, 0.2, 0.12, 0.12, 0.08, 0.05, 0.05, 0.04, 0.04, 0.04, 0.03, 0.03]
FUZZ_WEIGHTS = ["1", "2.5", "0", "1_0", " 3 ", "1e308", "-1", "inf", "x", ""]
FUZZ_WEIGHT_P = [0.4, 0.2, 0.1, 0.1, 0.1, 0.04, 0.015, 0.015, 0.015, 0.015]
# Cells that are not ASCII: bytes that are not UTF-8 (lone surrogates, written
# back with surrogateescape) and one readable accented label.
FUZZ_NON_ASCII = ["\udcff", "x\udcc3", "\u00e9\udce9", "\u00e9"]


def fuzz_csv(rng, odd=None):
    """A random small instance CSV: (text, delimiter, width, weight column or None).

    With a second generator ``odd``, a quarter of the texts get one cell
    that is not ASCII or is too long to read, drawn from ``odd`` alone, so
    ``rng`` draws the same rows either way.  Lone surrogates stand for bytes
    that are not UTF-8; write the text with ``errors="surrogateescape"``.
    """
    width = int(rng.integers(1, 5))
    header = [f"h{i}" for i in range(width)]
    weight_column = w_pos = None
    if rng.random() < 0.5:
        weight_column, w_pos = "w", int(rng.integers(width))
        header[w_pos] = "w"
    if width > 1 and rng.random() < 0.02:
        header[1] = header[0]
    rows = [header]
    for _ in range(int(rng.integers(0, 25))):
        kind = rng.random()
        if kind < 0.06:
            rows.append([])
            continue
        n = width
        if kind < 0.16:
            n = int(rng.integers(1, width + 1))
        elif kind < 0.19:
            n = width + int(rng.integers(1, 3))
        row = list(rng.choice(FUZZ_CELLS, size=n, p=FUZZ_CELL_P))
        if "" in row and rng.random() < 0.5:
            row[int(rng.integers(n))] = "seen-in-a-row-with-a-blank"
        if w_pos is not None and w_pos < n:
            row[w_pos] = str(rng.choice(FUZZ_WEIGHTS, p=FUZZ_WEIGHT_P))
        rows.append(row)
    if odd is not None and odd.random() < 0.25:
        # a non-ASCII cell, in the header or a record, or a field over the csv module's limit
        row = rows[int(odd.integers(len(rows)))]
        cell = str(odd.choice(FUZZ_NON_ASCII)) if odd.random() < 0.5 else "z" * 131_073
        if row:
            row[int(odd.integers(len(row)))] = cell
        else:
            row.append(cell)
    delimiter = str(rng.choice([",", ";", "\t"]))
    buf = io.StringIO(newline="")
    csv.writer(buf, delimiter=delimiter, lineterminator=str(rng.choice(["\n", "\r\n"]))).writerows(rows)
    text = buf.getvalue()
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")
    return text, delimiter, width, weight_column


def load_outcome(load, path, **kwargs):
    """What a loader makes of a file: its plain-list result or its error message."""
    try:
        result = load(path, **kwargs)
    except DataError as exc:
        return str(exc)
    if isinstance(result, tuple):
        return result
    assert all(v.codes.dtype == (np.uint8 if v.k <= 256 else np.uint16) for v in result.variables)
    return (
        result.variable_names(),
        [v.categories for v in result.variables],
        [v.codes.tolist() for v in result.variables],
        result.weights.tolist(),
    )


def test_load_csv_matches_row_at_a_time_reference(tmp_path, monkeypatch):
    rng, odd = np.random.default_rng(2007), np.random.default_rng(1990)
    path = tmp_path / "fuzz.csv"
    kinds = {}
    cut_chunk_rows = set()
    for _ in range(2000):
        text, delimiter, width, weight_column = fuzz_csv(rng, odd)
        path.write_text(text, encoding="utf-8", errors="surrogateescape", newline="")
        chunk_rows = int(rng.integers(1, 8))
        monkeypatch.setattr(dataset_module, "_CHUNK_CELLS", chunk_rows * width)
        kwargs = {
            "weight_column": weight_column,
            "missing_policy": str(rng.choice(["own", "drop"])),
            "delimiter": delimiter,
        }
        expected = load_outcome(reference_load_csv, path, **kwargs)
        assert load_outcome(load_csv, path, **kwargs) == expected, (text, kwargs)
        kind = "ok" if isinstance(expected, tuple) else expected.split(": ")[-1].split(" ")[0]
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind in ("byte", "field") and "line 1:" not in expected:
            cut_chunk_rows.add(chunk_rows)
    # every outcome the generator aims at occurs often enough to mean something
    for kind in ("ok", "no", "total", "duplicate", "weight", "negative", "byte", "field"):
        assert kinds.get(kind, 0) >= 10, kinds
    assert sum(n for kind, n in kinds.items() if kind.isdigit()) >= 20, kinds
    # an unreadable record after the header cut a chunk at every chunk size
    assert cut_chunk_rows == set(range(1, 8)), cut_chunk_rows


# Cells of the mostly plain files: labels of one to eight bytes and empty
# cells, with weights that parse to finite, nonnegative floats.
PLAIN_CELLS = ["a", "b", "c10", "c7", "abcdefgh", ""]
PLAIN_CELL_P = [0.3, 0.2, 0.2, 0.15, 0.1, 0.05]
PLAIN_WEIGHTS = ["1", "2.5", "0", "0.25", "3e2"]
# Each anomaly and what it does to one cell (None: ``plain_fuzz_csv`` applies
# it to a line or to the whole text); a weight-* anomaly needs a weight column.
PLAIN_ANOMALIES = {
    "quote": lambda cell: f'"{cell}"',
    "lone-cr": lambda cell: "\r" + cell,  # a CR not before an LF ends the record there
    "cr-at-eof": None,
    "non-ascii": lambda cell: cell + "\u00e9",
    "non-utf8": lambda cell: cell + "\udcff",
    "nul": lambda cell: cell + "\0",
    "nine-bytes": lambda cell: "abcdefghi",
    "missing-label": lambda cell: "(missing)",
    "blank": None,
    "short": None,
    "long": None,
    "bom": None,
    "no-final-newline": None,
    "weight-empty": lambda cell: "",
    "weight-x": lambda cell: "x",
    "weight-negative": lambda cell: "-1",
    "weight-inf": lambda cell: "inf",
    # parses with float, but is a field over the csv module's limit
    "weight-over-field-limit": lambda cell: "0." + "0" * 140_000 + "1",
}


def plain_fuzz_csv(rng):
    """A random instance CSV that is plain but for at most one anomaly.

    Returns (text, delimiter, width, weight column or None, anomaly or
    None, line ends).  Half the texts get one ``PLAIN_ANOMALIES`` entry,
    at a random line (the header included) unless it is about the whole
    text or a weight.  Lines end in LF, in CR LF, or in either at random
    ("mixed").  Write the text with ``errors="surrogateescape"``.
    """
    width = int(rng.integers(1, 5))
    header = [f"h{i}" for i in range(width)]
    weight_column = w_pos = None
    if width > 1 and rng.random() < 0.7:
        weight_column, w_pos = "w", int(rng.integers(width))
        header[w_pos] = "w"
    n_rows = int(rng.integers(1, 30))
    cells = rng.choice(PLAIN_CELLS, size=(n_rows, width), p=PLAIN_CELL_P).astype(object)
    if w_pos is not None:
        cells[:, w_pos] = rng.choice(PLAIN_WEIGHTS, size=n_rows)
    rows = [header, *cells.tolist()]
    anomaly = None
    if rng.random() < 0.5:
        kinds = [kind for kind in PLAIN_ANOMALIES
                 if (w_pos is not None or not kind.startswith("weight"))
                 and (width > 1 or kind != "short")]
        anomaly = str(rng.choice(kinds))
        change = PLAIN_ANOMALIES[anomaly]
        at = int(rng.integers(1 if anomaly.startswith("weight") else 0, len(rows)))
        row = rows[at]
        if anomaly == "blank":
            rows.insert(at, [])
        elif anomaly == "short":
            row.pop()
        elif anomaly == "long":
            row.append("a")
        elif change is not None:
            i = w_pos if anomaly.startswith("weight") else int(rng.integers(width))
            row[i] = change(row[i])
    delimiter = str(rng.choice([",", ",", ";", "\t"]))
    ends = str(rng.choice(["lf", "lf", "crlf", "mixed"]))
    crs = rng.random(len(rows)) < {"lf": 0.0, "crlf": 1.0, "mixed": 0.5}[ends]
    text = "".join(delimiter.join(row) + ("\r\n" if cr else "\n") for row, cr in zip(rows, crs))
    if anomaly == "bom":
        text = "\ufeff" + text
    elif anomaly == "no-final-newline":
        text = text.removesuffix("\n").removesuffix("\r")
    elif anomaly == "cr-at-eof":
        text = text.removesuffix("\n").removesuffix("\r") + "\r"
    return text, delimiter, width, weight_column, anomaly, ends


def test_load_csv_plain_chunks_match_row_at_a_time_reference(tmp_path, monkeypatch):
    """Mostly plain files, each anomaly placed so the switch to the csv path falls at every
    chunk boundary, load as the reference loads them."""
    rng = np.random.default_rng(1990)
    path = tmp_path / "plain.csv"
    switches = []
    csv_records = dataset_module._csv_records

    def recording_csv_records(read, fh, first_line, delimiter):
        switches.append(first_line)
        return csv_records(read, fh, first_line, delimiter)

    monkeypatch.setattr(dataset_module, "_csv_records", recording_csv_records)
    kinds, fast, switch_chunks = {}, {"lf": 0, "crlf": 0, "mixed": 0}, set()
    for _ in range(1000):
        text, delimiter, width, weight_column, anomaly, ends = plain_fuzz_csv(rng)
        data = text.encode("utf-8", errors="surrogateescape")
        path.write_bytes(data)
        chunk_rows = int(rng.integers(1, 6))
        monkeypatch.setattr(dataset_module, "_CHUNK_CELLS", chunk_rows * width)
        kwargs = {
            "weight_column": weight_column,
            "missing_policy": str(rng.choice(["own", "drop"])),
            "delimiter": delimiter,
        }
        switches.clear()
        expected = load_outcome(reference_load_csv, path, **kwargs)
        assert load_outcome(load_csv, path, **kwargs) == expected, (text, kwargs)
        kinds[anomaly] = kinds.get(anomaly, 0) + 1
        if not switches:
            fast[ends] += isinstance(expected, tuple)
        elif switches[0] > 1:  # past the header: count the whole chunks read before the switch
            switch_chunks.add((switches[0] - 2) // chunk_rows)
    # files with each kind of line end load wholly on the fast path, every anomaly occurs often
    # enough to mean something, and the switch falls at the first few chunk boundaries
    assert fast["lf"] >= 100 and fast["crlf"] >= 50 and fast["mixed"] >= 50, fast
    assert all(kinds.get(kind, 0) >= 10 for kind in PLAIN_ANOMALIES), kinds
    assert set(range(6)) <= switch_chunks, switch_chunks


def plain_rows(n_rows: int) -> list[str]:
    """Lines of a plain two-variable file: a header and ``n_rows`` records."""
    return ["A,B\n"] + [f"c{i % 7},d{i % 3}\n" for i in range(n_rows)]


@pytest.mark.parametrize("variant", ["quoted", "crlf"])
def test_a_late_switch_loads_the_dataset_of_the_plain_file(tmp_path, monkeypatch, variant):
    monkeypatch.setattr(dataset_module, "_CHUNK_CELLS", 2 * 50)  # 50 rows per chunk
    lines = plain_rows(400)
    plain = load_outcome(load_csv, write(tmp_path, "".join(lines)))
    if variant == "quoted":  # chunk 6 holds the first quoted label
        label, rest = lines[301].split(",")
        lines[301] = f'"{label}",{rest}'
        switch = 301
    else:  # chunks 6 and 7 end their lines in CR LF, which is plain, but the last in a lone CR
        lines[301:] = [line.replace("\n", "\r\n") for line in lines[301:]]
        lines[-1] = lines[-1].removesuffix("\n")
        switch = 351
    path = tmp_path / "switched.csv"
    path.write_bytes("".join(lines).encode())
    handed = []
    csv_records = dataset_module._csv_records
    monkeypatch.setattr(dataset_module, "_csv_records",
                        lambda read, fh, first_line, delimiter: handed.append((first_line, read))
                        or csv_records(read, fh, first_line, delimiter))
    assert load_outcome(load_csv, path) == plain
    # the switching chunk's bytes, CRs included, starting on its physical line
    assert handed == [(switch + 1, "".join(lines[switch:switch + 50]).encode())]


def fifo_load(tmp_path, data: bytes):
    """What ``load_csv`` makes of ``data`` read through a FIFO, fed by one writer thread."""
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)

    def feed():
        with suppress(BrokenPipeError), open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return load_outcome(load_csv, fifo)
    finally:
        writer.join(timeout=60)
        assert not writer.is_alive()


@pytest.mark.parametrize("data", [
    b'"A",B\nx,y\nz,w\n',  # a quoted header
    b'A,B\n"x",y\nz,w\n',  # a quoted first record
    b"A,B\n" + b"x,1\n" * 20000 + b'"y",2\n',  # a switch after 20000 plain rows
    b"A,B\r\nx,y\r\nz,w\r",  # CR LF line ends, the last a lone CR
], ids=["quoted-header", "quoted-record", "late-switch", "lone-cr"])
def test_a_fifo_loads_as_the_file_does(tmp_path, data):
    path = tmp_path / "file.csv"
    path.write_bytes(data)
    expected = load_outcome(load_csv, path)
    assert not isinstance(expected, str), expected
    assert fifo_load(tmp_path, data) == expected


def test_a_record_error_after_the_switch_names_its_physical_line(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset_module, "_CHUNK_CELLS", 2 * 50)
    lines = plain_rows(400)
    lines[120] = '"c\n1",d0\n'  # switches at chunk 2, and its record spans lines 121 and 122
    lines[330] = "c1,d1,extra\n"  # physical line 332
    path = write(tmp_path, "".join(lines))
    with pytest.raises(DataError, match="line 332: 3 fields, expected 2$"):
        load_csv(path)
    assert load_outcome(reference_load_csv, path) == load_outcome(load_csv, path)


# Labels and cells the generated contingency tables draw from: quoted
# delimiters, quotes and line breaks; zero, non-numeric, negative, infinite
# and very large counts (one of 1e308 is past the total's 2**1023 bound).
FUZZ_LABELS = ["x,y", 'say "hi"', "p\nq", "r\r\ns", "t\ru"]
FUZZ_COUNTS = ["1", "2.5", "0", " 3 ", "1_0", "1e308", "x", "", "-1", "inf", "nan"]
FUZZ_COUNT_P = [0.3, 0.15, 0.3, 0.05, 0.04, 0.06, 0.02, 0.02, 0.02, 0.02, 0.02]


def fuzz_table(rng, odd=None):
    """A random small contingency-table CSV, ragged and blank rows included.

    With a second generator ``odd``, a quarter of the texts get one cell
    that is not ASCII or is too long to read, as in ``fuzz_csv``.
    """
    n_cols = int(rng.integers(0, 5))
    labels = [f"c{j}" if rng.random() < 0.8 else f"c{j}{rng.choice(FUZZ_LABELS)}"
              for j in range(n_cols)]
    if n_cols > 1 and rng.random() < 0.05:
        labels[1] = labels[0]
    if n_cols and rng.random() < 0.05:
        labels[-1] = ""
    rows = [["eye\\hair"] + labels]
    for i in range(int(rng.integers(0, 6))):
        kind = rng.random()
        if kind < 0.08:
            rows.append([])
            continue
        label = f"r{i}" if rng.random() < 0.8 else str(rng.choice(FUZZ_LABELS + ["", "r0"]))
        n = n_cols + 1 if kind > 0.15 else int(rng.integers(1, n_cols + 3))
        rows.append([label] + list(rng.choice(FUZZ_COUNTS, size=n - 1, p=FUZZ_COUNT_P)))
    if odd is not None and odd.random() < 0.25:
        row = rows[int(odd.integers(len(rows)))]
        cell = str(odd.choice(FUZZ_NON_ASCII)) if odd.random() < 0.5 else "z" * 131_073
        if row:
            row[int(odd.integers(len(row)))] = cell
        else:
            row.append(cell)
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator=str(rng.choice(["\n", "\r\n"]))).writerows(rows)
    text = buf.getvalue()
    return text.rstrip("\r\n") if rng.random() < 0.2 else text


def test_load_contingency_matches_row_at_a_time_reference(tmp_path):
    rng, odd = np.random.default_rng(1940), np.random.default_rng(5387)
    path = tmp_path / "fuzz.csv"
    kinds = {}
    for _ in range(2000):
        text = fuzz_table(rng, odd)
        path.write_text(text, encoding="utf-8", errors="surrogateescape", newline="")
        expected = load_outcome(reference_load_contingency, path)
        assert load_outcome(load_contingency, path) == expected, text
        kind = "ok" if isinstance(expected, tuple) else expected.split(": ")[-1].split(" ")[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    # every outcome the generator aims at occurs often enough to mean something
    for kind in ("ok", "not", "column", "duplicate", "cell", "negative", "table", "total",
                 "byte", "field"):
        assert kinds.get(kind, 0) >= 10, kinds
    assert sum(n for kind, n in kinds.items() if kind.isdigit()) >= 10, kinds


@pytest.mark.parametrize("cap", [2, 3])
def test_contingency_category_cap_matches_the_reference(tmp_path, monkeypatch, cap):
    # a small cap meets the fuzz tables' few labels: row label first, then the record's columns
    monkeypatch.setattr(dataset_module, "MAX_CATEGORIES", cap)
    rng, odd = np.random.default_rng([1940, cap]), np.random.default_rng([5387, cap])
    path = tmp_path / "fuzz.csv"
    capped = {}
    for _ in range(1000):
        text = fuzz_table(rng, odd)
        path.write_text(text, encoding="utf-8", errors="surrogateescape", newline="")
        expected = load_outcome(reference_load_contingency, path)
        assert load_outcome(load_contingency, path) == expected, text
        if isinstance(expected, str) and expected.endswith(f"more than {cap} categories"):
            capped[expected] = capped.get(expected, 0) + 1
    for name in ("row", "col"):
        assert capped.get(f"variable {name!r} has more than {cap} categories", 0) >= 10, capped


def test_load_csv_line_numbers_count_quoted_line_breaks(tmp_path):
    path = write(tmp_path, 'A,B\n"x\ny",u\n"1\r\n2\r3",v\n\nz,v,w\n')
    with pytest.raises(DataError, match="line 8: 3 fields, expected 2"):
        load_csv(path)


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 1000])
def test_load_csv_earlier_weight_error_beats_later_field_count(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(dataset_module, "_CHUNK_CELLS", 2 * chunk_rows)
    path = write(tmp_path, "A,w\nx,1\ny,-1\nz,1,extra\n")
    with pytest.raises(DataError, match="line 3: negative or non-finite weight -1.0"):
        load_csv(path, weight_column="w")
    path = write(tmp_path, "A,w\nx,1\ny,oops\nz,-1\nz,1,extra\n")
    with pytest.raises(DataError, match="line 3: weight 'oops' is not a number"):
        load_csv(path, weight_column="w")


def test_load_csv_tall_peak_memory(tmp_path):
    path = tmp_path / "tall.csv"
    path.write_text(to_csv_text(generate(SyntheticSpec(rows=20000, n_vars=40, categories=6, seed=1))[0]))
    tracemalloc.start()
    try:
        ds = load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n_instances == 20000 and len(ds.variables) == 40
    assert peak < 24 * 2**20


def test_a_load_of_many_chunks_joins_its_parts_in_bounded_heap(tmp_path, monkeypatch):
    # one array of codes per variable and one of weights per chunk, all 1250 of them kept to
    # the end, peaked at 3.5 times the arrays returned
    monkeypatch.setattr(dataset_module, "_CHUNK_CELLS", 32)  # 16 rows per chunk
    path = write(tmp_path, "A,B\n" + "".join(f"a{i % 5},b{i % 3}\n" for i in range(20_000)))
    tracemalloc.start()
    try:
        ds = load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n_instances == 20_000
    assert peak < 2.5 * (ds.weights.nbytes + sum(v.codes.nbytes for v in ds.variables))


@pytest.mark.parametrize("quote", [None, 0, 150], ids=["plain", "csv", "switch"])
@pytest.mark.parametrize("parts", [2, 3])
def test_joined_parts_keep_codes_across_the_one_to_two_byte_switch(tmp_path, monkeypatch, quote,
                                                                   parts):
    # A passes 256 labels at row 257, after parts of uint8 codes have been joined
    monkeypatch.setattr(dataset_module, "_CHUNK_CELLS", 3 * 7)  # 7 rows per chunk
    monkeypatch.setattr(dataset_module, "_JOIN_PARTS", parts)
    rng = np.random.default_rng(parts)
    a = np.concatenate([np.arange(300), rng.integers(0, 300, 400)])
    b, w = rng.integers(0, 3, 700), rng.integers(1, 4, 700)
    rows = [f"c{x},d{y},{z}\n" for x, y, z in zip(a, b, w)]
    if quote is not None:  # the csv path from the chunk holding this row on
        rows[quote] = '"' + rows[quote].replace(",", '",', 1)
    path = write(tmp_path, "A,B,w\n" + "".join(rows))
    outcome = load_outcome(load_csv, path, weight_column="w")
    assert outcome == load_outcome(reference_load_csv, path, weight_column="w")
    assert len(outcome[1][0]) == 300


def test_unreadable_byte_does_not_hide_an_earlier_record_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"A,w\nx,-1\ny,\xff\n")
    with pytest.raises(DataError, match="line 2: negative or non-finite weight -1.0"):
        load_csv(path, weight_column="w")
    path.write_bytes(b"A,w\nx,1\ny,1,extra\n\"" + b"z" * 140_000 + b'",1\n')
    with pytest.raises(DataError, match="line 3: 3 fields, expected 2"):
        load_csv(path, weight_column="w")


@pytest.mark.parametrize("chunk_rows", [1, 2, 1000])
def test_unreadable_record_is_reported_when_the_records_before_it_pass(tmp_path, monkeypatch,
                                                                      chunk_rows):
    monkeypatch.setattr(dataset_module, "_CHUNK_CELLS", 2 * chunk_rows)
    path = tmp_path / "bad.csv"
    for data, line in [(b"A,\xff\nx,1\n", 1), (b"A,w\nx,1\n\ny,2\nz,\xff\nq,-1\n", 5)]:
        path.write_bytes(data)
        with pytest.raises(DataError, match=f"line {line}: byte 0xff is not UTF-8"):
            load_csv(path)
    # line 3 is dropped for its missing cell, so its weight is not checked
    path.write_bytes(b"A,w\nx,1\n,oops\n\"" + b"z" * 140_000 + b'",1\n')
    with pytest.raises(DataError, match="line 4: field larger than field limit"):
        load_csv(path, weight_column="w", missing_policy="drop")


@pytest.mark.parametrize("contingency", [False, True], ids=["csv", "contingency"])
def test_each_loader_opens_its_input_once(tmp_path, monkeypatch, contingency):
    # 3000 rows put the bad byte past the text decoder's first 8 KiB block
    path = tmp_path / "bad.csv"
    head = b",a\n" if contingency else b"A,B\n"
    path.write_bytes(head + b"".join(b"r%d,1\n" % i for i in range(3000)) + b"s,\xff\n")
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(dataset_module, "open", counting_open, raising=False)
    with pytest.raises(DataError, match="line 3002: byte 0xff is not UTF-8"):
        (load_contingency if contingency else load_csv)(path)
    assert opened == [path]


def test_too_many_categories_names_the_variable(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset_module, "MAX_CATEGORIES", 3)
    path = write(tmp_path, "A,B\n" + "".join(f"a{i % 3},b{i}\n" for i in range(4)))
    with pytest.raises(DataError, match="^variable 'B' has more than 3 categories$"):
        load_csv(path)
    assert load_csv(write(tmp_path, "A\na0\na1\n\na2\na0\n")).variable("A").k == 3
    path = write(tmp_path, ",u,v,w,z\nr,1,0,2,0\ns,0,3,0,1\n")
    with pytest.raises(DataError, match="^variable 'col' has more than 3 categories$"):
        load_contingency(path)
    with pytest.raises(DataError, match="^variable 'v' has more than 3 categories$"):
        from_columns(["v"], [["a", "b", "c", "d"]])


def test_contingency_stops_at_the_record_that_passes_the_category_cap(tmp_path):
    # line 3 takes 'col' to 4097 categories; line 4, whose field count is wrong, is never read
    cols = 4097
    path = write(tmp_path, "".join([
        "," + ",".join(f"c{j}" for j in range(cols)) + "\n",
        "r0," + ",".join("1" if j < 4000 else "0" for j in range(cols)) + "\n",
        "r1," + ",".join(["1"] * cols) + "\n",
        "r2,1\n"]))
    with pytest.raises(DataError, match="^variable 'col' has more than 4096 categories$"):
        load_contingency(path)


def test_contingency_columns_without_a_positive_cell_are_not_categories(tmp_path):
    cols = 4100
    path = write(tmp_path, "".join([
        "," + ",".join(f"c{j}" for j in range(cols)) + "\n",
        *(f"r{i}," + ",".join("2" if j % 4 == i and j < 4096 else "0" for j in range(cols)) + "\n"
          for i in range(4))]))
    ds = load_contingency(path)
    assert [var.k for var in ds.variables] == [4, 4096]
    assert set(ds.variable("col").categories) == {f"c{j}" for j in range(4096)}
    assert ds.total_weight == 2 * 4096


def test_contingency_unreadable_byte_does_not_hide_an_earlier_record_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b",a,b\nr,1,-1\ns,\xff,1\n")
    with pytest.raises(DataError, match="line 2: negative or non-finite cell '-1'"):
        load_contingency(path)
    for data, line in [(b",a\xff\nr,1\n", 1), (b",a\ns,\xff\n", 2), (b",a\nr,0\n\ns,\xff\n", 4)]:
        path.write_bytes(data)
        with pytest.raises(DataError, match=f"line {line}: byte 0xff is not UTF-8"):
            load_contingency(path)


@pytest.mark.parametrize("k, dtype", [(256, np.uint8), (257, np.uint16)])
def test_codes_take_one_byte_up_to_256_categories_and_two_above(tmp_path, k, dtype):
    labels = [f"c{a}" for a in range(k)]
    csv_path = write(tmp_path, "A,B\n" + "".join(f"{c},x\n" for c in labels))
    table_path = write(tmp_path, "," + ",".join(labels) + "\nr," + ",".join(["1"] * k) + "\n",
                       "table.csv")
    synthetic, _ = generate(SyntheticSpec(rows=20 * k, n_vars=1, n_planted=0, categories=k, seed=1))
    for var in [load_csv(csv_path).variable("A"), load_contingency(table_path).variable("col"),
                from_columns(["A"], [labels]).variable("A"), synthetic.variables[0]]:
        assert var.k == k and var.codes.dtype == dtype
    for ds in [load_csv(csv_path), load_contingency(table_path)]:
        assert all(v.codes.dtype == np.uint8 for v in ds.variables if v.k == 1)


def test_narrow_codes_give_the_results_of_intp_codes():
    # 300 x 300 joint keys reach 89 999, past uint16: a key built in the codes' dtype wraps
    rng = np.random.default_rng(300)
    columns = [[f"c{a}" for a in np.concatenate([rng.permutation(300), rng.integers(0, 300, 2000)])]
               for _ in range(2)]
    narrow = from_columns(["u", "v"], columns, rng.uniform(0.5, 2.0, 2300))
    wide = CategoricalDataset([CategoricalVariable(v.name, v.categories, v.codes.astype(np.intp))
                               for v in narrow.variables], narrow.weights)
    assert [v.codes.dtype for v in narrow.variables] == [np.uint16, np.uint16]
    for (i, j, p), (a, b, q) in zip(pair_moments(narrow), pair_moments(wide)):
        assert (i, j) == (a, b) and np.array_equal(p, q)
    assert np.array_equal(covariance_matrix(narrow), covariance_matrix(wide))
    model, model_wide = fit(narrow), fit(wide)
    assert np.array_equal(model.eigenvalues, model_wide.eigenvalues)
    assert np.array_equal(model.eigenvectors, model_wide.eigenvectors)
    assert np.array_equal(scores(model, narrow, 3), scores(model, wide, 3))


def test_over_65536_distinct_values_reach_the_cardinality_guard(tmp_path):
    # past 65 536 labels the codes would not fit uint16; the load ends in the chunk that
    # passes 4096 labels, long before
    rows = [f"{i},x\n" for i in range(70_000)]
    message = "^variable 'id' has more than 4096 categories$"
    with pytest.raises(DataError, match=message):
        load_csv(write(tmp_path, "id,B\n" + "".join(rows)))
    with pytest.raises(DataError, match=message):
        from_columns(["id"], [[str(i) for i in range(70_000)]])
    # a record error in the chunk that passes the cap still wins; a later one is never read
    with pytest.raises(DataError, match="line 10: 3 fields, expected 2$"):
        load_csv(write(tmp_path, "id,B\n" + "".join(rows[:8]) + "a,b,c\n" + "".join(rows[8:])))
    with pytest.raises(DataError, match=message):
        load_csv(write(tmp_path, "id,B\n" + "".join(rows) + "a,b,c\n"))


def test_an_id_column_is_refused_in_bounded_memory(tmp_path):
    # checking the cap only after the whole load kept every row's label: a 38 MB peak
    path = write(tmp_path, "id,B\n" + "".join(f"{i},x\n" for i in range(200_000)))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="^variable 'id' has more than 4096 categories$"):
            load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
