"""The streamed writers against per-element references built here and the joined writers."""

import csv
import io
import json
import tracemalloc
from decimal import Decimal
from xml.sax import saxutils

import numpy as np
import pytest

from rspca import dataset as dataset_module
from rspca import emit
from rspca.cli import main
from rspca.covariance import correlation_matrix
from rspca.dataset import _chunk_rows, load_csv
from rspca.pca import fit, interpret, scores
from rspca.dataset import SyntheticSpec, generate
from . import joined
from .conftest import from_columns, strict_json, to_csv_text, written

EDGE_VALUES = [
    0.0, -0.0, 1.0, -1.0, 1e-5, 1.5e-7, 123456789012.0, 1e12, 1e15, 1e16,
    5e-324, 1e300, 1 / 3, float("inf"), -float("inf"), float("nan"),
    # the edges of json_join's "%.12g" fields: 1e-4, 1e11, near-integers, tiny
    float(np.nextafter(1e-4, 0)), 1e-4, float(np.nextafter(1e11, 0)), 1e11, 99999999999.99999,
    -float(np.nextafter(1e11, 0)), 3 + 1e-11, -(3 + 1e-11), 1 - 1e-13, 1 + 5e-12, 1 + 1e-10,
    4.5, 1e13, 1e14, float(np.finfo(float).tiny), float(np.nextafter(np.finfo(float).tiny, 0)),
]


def decimal_ties() -> list[float]:
    """Doubles n / 2**j whose 13th and last significant digit is an exact 5, so that
    ``"%.12g"`` rounds them half to even, and their negatives."""
    ties = [1234567890.125, -1234567890.125]
    for j in range(1, 60):
        for n in (1, 3, 7, 11, 1001, 4097, 33333, 123456789, 987654321):
            x = n / 2**j
            digits = Decimal(x).normalize().as_tuple().digits
            if 1e-11 <= x < 1e11 and len(digits) == 13 and digits[-1] == 5:
                ties += [x, -x]
    return ties


def near_ties() -> list[float]:
    """The doubles nearest 13-digit decimals whose last digit is 5, and their negatives: the
    double lies above or below the decimal, and that decides ``"%.12g"``'s way, though a
    double's product with a power of ten often rounds to exactly halfway."""
    leads = ("1.23456789012", "9.87654321098", "3.00000000000", "5.55555555555")
    return [sign * float(f"{lead}5e{k}") for k in range(-11, 11) for lead in leads
            for sign in (1, -1)]


def power_of_ten_neighbours() -> list[float]:
    """10**k for k = -11..11, the doubles on either side of it, a value below it whose 12
    digits round up to it, and their negatives."""
    values = []
    for k in range(-11, 12):
        p = 10.0**k
        values += [float(np.nextafter(p, 0)), p, float(np.nextafter(p, np.inf)),
                   float(f"9.9999999999996e{k - 1}")]
    return values + [-v for v in values]


# the edges of the numpy "%.12g" formatter: its halfway ties, the powers of ten where its
# exponent and its digits' carry change, and the ends of its range, 1e-11 and 1e11
EDGE_VALUES += [*decimal_ties(), *near_ties(), *power_of_ten_neighbours(), 1e-11, -1e-11,
                float(np.nextafter(1e-11, 0)), float(np.nextafter(1e11, 0))]


def round12(x: float) -> float:
    """The double nearest the 12-significant-digit decimal of x."""
    return float(emit.fmt(x))


def _jsonify(obj):
    if isinstance(obj, float):
        return round12(obj) if np.isfinite(obj) else None
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    return obj


def reference_json(obj) -> str:
    """The JSON reference: every float rounded to 12 digits (NaN and +-inf as None), then the
    standard encoder."""
    return json.dumps(_jsonify(obj), indent=2) + "\n"


def random_values(seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate([
        rng.standard_normal(3000) * 10.0 ** rng.uniform(-8, 17, 3000),
        np.ldexp(rng.uniform(-1, 1, 500), rng.integers(-1074, 1024, 500)),
        np.round(rng.standard_normal(300) * 1e3),
        np.round(rng.standard_normal(300), 3),
    ])


@pytest.mark.parametrize("values", [np.array(EDGE_VALUES), random_values()],
                         ids=["edge", "random"])
def test_json_join_matches_dumps_of_round12(values):
    cells = [f"{0.0 if x == 0.0 else x:.12g}" for x in values.tolist()]
    assert emit.fmt_all(values) == cells
    assert [emit.fmt(x) for x in values.tolist()] == cells
    numbers = [json.dumps(_jsonify(x)) for x in values.tolist()]
    assert [emit.json_number(x) for x in values.tolist()] == numbers
    for sep in (",", ",\n    "):
        assert emit.json_join(sep, values).split(sep) == numbers


def test_edge_values_hold_ties_rounded_each_way():
    for ties in (decimal_ties(), near_ties()):
        assert {Decimal(emit.fmt(x)) > Decimal(x) for x in ties} == {True, False}


def test_json_join_matches_json_number_on_any_floats():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.lists(st.floats() | st.floats(1e-11, 1e11), min_size=1, max_size=80),
                      st.sampled_from([",", ",\n    "]))
    def check(values, sep):
        x = np.resize(values, len(values) + emit._NUMPY_MIN)  # an array numpy formats
        for y in (x, -x):
            assert emit.json_join(sep, y).split(sep) == list(map(emit.json_number, y.tolist()))

    check()


def test_fmt_all_row_major_and_only_zero_loses_its_sign():
    cells = emit.fmt_all(np.array([[-0.0, 0.0], [-1e-320, 2.5]]))
    assert cells == ["0", "0", f"{-1e-320:.12g}", "2.5"]
    assert cells[2].startswith("-")


def reference_model_json(model):
    layout = model.layout
    return reference_json({
        "variables": [{"name": n, "categories": c} for n, c in zip(layout.names, layout.categories)],
        "layout": [
            {"variable": n, "offset": o, "width": w}
            for n, o, w in zip(layout.names, layout.offsets, layout.widths)
        ],
        "eigenvalues": [float(v) for v in model.eigenvalues],
        "eigenvectors": [
            [float(v) for v in model.eigenvectors[:, m]] for m in range(model.n_components)
        ],
        "mean": [float(v) for v in model.mean],
    })


def synth_wide():
    dataset, _ = generate(SyntheticSpec(rows=600, n_vars=6, n_planted=2, categories=40, seed=5))
    return dataset


def test_model_json_fisher(fisher):
    model = fit(fisher)
    assert written(emit.model_json, model) == reference_model_json(model)


def test_model_json_wide_synth():
    model = fit(synth_wide())
    assert model.layout.dim > 100
    assert written(emit.model_json, model) == reference_model_json(model)


def quoted_dataset():
    rng = np.random.default_rng(2)
    labels = ["x,1", 'say "hi"', "line\nbreak", "cr\rhere", "plain", "-0"]
    columns = [[labels[c] for c in rng.integers(0, len(labels), 50)],
               [f"c{c}" for c in rng.integers(0, 4, 50)]]
    return from_columns(["odd,name", "b"], columns, rng.uniform(0.0, 2.0, 50))


def csv_line(fields):
    """One record as the csv module writes it; a CRLF terminator makes it quote CR and LF."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2]


@pytest.mark.parametrize("make", [synth_wide, quoted_dataset], ids=["synth", "quoted"])
def test_scores_csv_and_labels_match_per_row_reference(make):
    dataset = make()
    for sep in ("-", ","):
        assert dataset.instance_labels(separator=sep) == [
            sep.join(v.categories[v.codes[a]] for v in dataset.variables)
            for a in range(dataset.n_instances)
        ]
    values = scores(fit(dataset), dataset, 3)
    labels = dataset.instance_labels()
    lines = [csv_line(["instance_id", "weight", "label", "pc1", "pc2", "pc3"])]
    for a in range(dataset.n_instances):
        lines.append(csv_line([str(a), emit.fmt(dataset.weights[a]), labels[a],
                               *(emit.fmt(v) for v in values[a])]))
    text = "".join(row_pieces(emit.scores_csv, labels, dataset.weights, values,
                              width=len(dataset.variables)))
    assert text == "\n".join(lines) + "\n"


def test_matrix_csv_quotes_names_and_blanks_undefined():
    matrix = np.array([[1.0, -0.0], [0.25, np.nan]])
    text = written(emit.matrix_csv, ["a,b", 'q"'], matrix)
    assert text == ',"a,b","q"""\n"a,b",1,0\n"q""",0.25,\n'


def fisher_interpretations(fisher):
    model = fit(fisher)
    return [emit.interpretation_json_obj(interpret(model, m), model) for m in (1, 2, 3)]


def constant_column_correlation():
    """Names and correlation matrix of a dataset with a zero-variance column."""
    rng = np.random.default_rng(4)
    columns = [[f"a{c}" for c in rng.integers(0, 3, 40)], ["only"] * 40,
               [f"b{c}" for c in rng.integers(0, 4, 40)]]
    dataset = from_columns(["a", "constant", "b"], columns, rng.uniform(0.5, 1.5, 40))
    rho = correlation_matrix(dataset)
    assert np.isnan(rho).any()
    return dataset.variable_names(), rho


def masked_correlation():
    """A correlation matrix as ``matrix`` writes it in JSON: NaN entries are None."""
    names, rho = constant_column_correlation()
    rows = [[None if np.isnan(x) else x for x in row] for row in rho.tolist()]
    return {"variables": names, "matrix": rows}


def test_matrix_json_writes_nan_as_null():
    names, rho = constant_column_correlation()
    text = written(emit.matrix, "json", names, rho)
    assert text == written(emit.to_json, masked_correlation())
    assert json.loads(text)["matrix"][1] == [None, None, None]


def mixed_rows(rows: int, cols: int) -> np.ndarray:
    """Values for the numpy formatter, with 0, integers, subnormals, +-inf, NaN and values
    outside 1e-11..1e11 among them, some first or last in their row."""
    rng = np.random.default_rng(rows * cols)
    values = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-13, 13, (rows, cols))
    odd = [0.0, -0.0, 3.0, -7.0, 5e-324, -1e-310, np.inf, -np.inf, np.nan, 1e11, 2e15, 1e-12]
    cells = rng.integers(0, values.size, values.size // 5 + 2)
    values.flat[cells] = rng.choice(odd, cells.size)
    values[::2, 0] = odd[rows % len(odd)]
    values[1::3, -1] = odd[cols % len(odd)]
    return values


ODD_TEXT = 'caf\u00e9 \u03c3\u00b2 \U0001f600 "q" back\\slash \x00\x1f\t\n\r \u2028 \x7f'

TO_JSON_CASES = {
    "empty": lambda fisher: [[], {}, [[]], [{}], {"a": []}, {"b": {}}, [[], [[]], {"c": [{}]}]],
    "floats": lambda fisher: EDGE_VALUES,
    "float64": lambda fisher: [np.float64(x) for x in EDGE_VALUES],
    "array1d": lambda fisher: np.array(EDGE_VALUES),
    "array2d": lambda fisher: np.resize(EDGE_VALUES, (len(EDGE_VALUES) // 8 + 1, 8)),
    "mixed_rows": lambda fisher: mixed_rows(7, 40),
    "one_long_row": lambda fisher: mixed_rows(1, 5000),
    "one_long_column": lambda fisher: mixed_rows(5000, 1),
    "rows_longer_than_a_block": lambda fisher: mixed_rows(3, emit._BLOCK_VALUES + 1),
    "uneven_blocks": lambda fisher: {"m": [mixed_rows(10, 1000), mixed_rows(2, 3)]},
    "arrays_in_dict": lambda fisher: {"v": np.array(EDGE_VALUES[:3]), "m": np.zeros((2, 0)),
                                      "e": np.array([])},
    "scalars": lambda fisher: [0, -7, 2**70, True, False, None, (1, 2.5, (None, "t")), ()],
    "text": lambda fisher: {ODD_TEXT: [ODD_TEXT, {"": ODD_TEXT}], "k": ODD_TEXT},
    "bare_scalar": lambda fisher: 1 / 3,
    "fisher_interpret": fisher_interpretations,
    "masked_correlation": lambda fisher: masked_correlation(),
}


def plain(obj):
    """obj with every ndarray replaced by its nested lists, for the reference encoder."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    return obj


@pytest.mark.parametrize("case", list(TO_JSON_CASES))
def test_to_json_matches_reference(case, fisher):
    obj = TO_JSON_CASES[case](fisher)
    assert written(emit.to_json, obj) == reference_json(plain(obj))


NON_FINITE = [np.nan, np.inf, -np.inf]


def non_finite_everywhere() -> dict:
    """NaN, inf and -inf as dict scalars, in 1-D arrays of fewer and of ``_NUMPY_MIN`` values,
    and first and last in rows of a 2-D array on both sides of its first two piece edges."""
    rng = np.random.default_rng(35)
    long = rng.standard_normal(emit._NUMPY_MIN)
    long[[0, 30, -1]] = NON_FINITE
    step = emit._BLOCK_VALUES // 100  # rows of 100 values a piece
    block = rng.standard_normal((2 * step + 1, 100))
    for row in (0, step - 1, step, 2 * step - 1, 2 * step):
        block[row, 0], block[row, -1] = NON_FINITE[row % 3], NON_FINITE[(row + 1) % 3]
    return {"nan": np.nan, "inf": np.inf, "-inf": -np.inf,
            "short": np.array([1.5, *NON_FINITE, 0.25]), "long": long, "block": block}


def test_to_json_writes_nan_and_infinities_as_null():
    obj = non_finite_everywhere()
    text = written(emit.to_json, obj)
    assert text == reference_json(plain(obj))
    parsed = strict_json(text)
    assert [parsed[key] for key in ("nan", "inf", "-inf")] == [None] * 3
    assert parsed["short"] == [1.5, None, None, None, 0.25]
    assert [parsed["long"][i] for i in (0, 30, -1)] == [None] * 3
    step = emit._BLOCK_VALUES // 100
    assert all(parsed["block"][row][col] is None
               for row in (0, step - 1, step, 2 * step - 1, 2 * step) for col in (0, -1))
    pieces = pieces_of(emit.to_json, obj["block"])
    blocks = [p for p in pieces if p.lstrip(",\n ").startswith("[") and "null" in p]
    assert len(blocks) == 3  # rows 0..step-1, step..2 step-1 and 2 step, each with a null


# labels that need CSV quoting or XML escaping
STREAM_LABELS = ["x,1", 'say "hi"', "line\nbreak", "cr\rhere", "a&b", "<i>&amp;</i>", "-0", "plain"]


def pieces_of(emitter, *args) -> list[str]:
    out: list[str] = []
    emitter(out.append, *args)
    return out


def row_pieces(emitter, labels: list[str], *args, width: int = 2) -> list[str]:
    """The pieces that ``emitter(write, *args)`` and the row writer it returns write, the row
    writer fed ``labels`` one chunk of ``_chunk_rows(width)`` rows at a time, as ``emit.pca``
    feeds it the labels of ``width`` variables."""
    out: list[str] = []
    rows = emitter(out.append, *args)
    step = _chunk_rows(width)
    for start in range(0, len(labels), step):
        stop = min(start + step, len(labels))
        rows(start, stop, labels[start:stop])
    return out


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("rows", [0, 1, 5, 6])  # 6 rows is a whole number of chunks of 1, 2 or 3
def test_streamed_scores_and_kl_plot_match_joined_writers(monkeypatch, chunk, rows):
    monkeypatch.setattr(dataset_module, "_CHUNK_CELLS", 2 * chunk)  # labels of 2 variables
    rng = np.random.default_rng(rows)
    labels = [STREAM_LABELS[a] + "-" + STREAM_LABELS[b]
              for a, b in rng.integers(0, len(STREAM_LABELS), (rows, 2))]
    weights = rng.uniform(0.0, 2.0, rows)
    values = rng.standard_normal((rows, 3))
    pieces = row_pieces(emit.scores_csv, labels, weights, values)
    assert "".join(pieces) == joined.scores_csv(weights, labels, values)
    assert len(pieces) == 1 + -(-rows // chunk)  # the header, then one piece per chunk
    if rows == 0:
        return
    args = ("pc1 & <x>", 'pc2 "y"')
    pieces = row_pieces(emit.scatter_svg, labels, values[:, 0], values[:, 1], *args)
    assert "".join(pieces) == \
        joined.scatter_svg(values[:, 0], values[:, 1], labels, *args, "KL-plot")
    assert max(piece.count("<circle") for piece in pieces) <= chunk


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_streamed_dataset_artifacts_match_joined_writers(monkeypatch, chunk):
    monkeypatch.setattr(dataset_module, "_CHUNK_CELLS", 2 * chunk)  # 2 variables
    dataset = quoted_dataset()
    assert dataset.n_instances == 50  # whole chunks of 1 row, a short last chunk of 3
    for start, stop in [(0, None), (0, 1), (3, 9), (48, 50), (50, 50)]:
        assert dataset.instance_labels(start, stop) == joined.instance_labels(dataset)[start:stop]
    model = fit(dataset)
    values = scores(model, dataset, 2)
    labels = joined.instance_labels(dataset)
    assert "".join(row_pieces(emit.scores_csv, labels, dataset.weights, values)) == \
        joined.scores_csv(dataset.weights, labels, values)
    assert written(emit.model_json, model) == reference_model_json(model)
    assert written(emit.scree_svg, model.eigenvalues) == joined.scree_svg(model.eigenvalues)
    synthetic, _ = generate(SyntheticSpec(rows=12, n_vars=3, seed=2))
    assert to_csv_text(synthetic) == joined.to_csv_text(synthetic)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_pca_scores_and_kl_plot_at_chunk_edges_match_joined_writers(tmp_path, extra):
    # one label list per chunk feeds both artifacts; labels need CSV quoting and XML escaping
    rows = _chunk_rows(2) + extra  # the instances in one chunk of labels of 2 variables
    rng = np.random.default_rng(rows)
    path = tmp_path / "d.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)  # a CR LF terminator makes it quote CR and LF
        out.writerow(["a", "b,c", "w"])
        for a, b, w in zip(rng.integers(0, 4, rows), rng.integers(0, len(STREAM_LABELS), rows),
                           rng.integers(1, 4, rows)):
            out.writerow([f"a{a}", STREAM_LABELS[b], w])
    prefix, svg = tmp_path / "run", tmp_path / "kl.svg"
    assert main(["pca", str(path), "--weights", "w", "--out", str(prefix), "--svg", str(svg)]) == 0
    dataset = load_csv(path, weight_column="w")
    model = fit(dataset)
    values = scores(model, dataset, 2)
    labels = joined.instance_labels(dataset)
    assert any("&" in label for label in labels) and any('"' in label for label in labels)
    assert (tmp_path / "run.scores.csv").read_bytes().decode() == \
        joined.scores_csv(dataset.weights, labels, values)
    x_label, y_label = (f"pc{m + 1} ({emit.variance_share(model, m)})" for m in (0, 1))
    assert svg.read_bytes().decode() == \
        joined.scatter_svg(values[:, 0], values[:, 1], labels, x_label, y_label, "KL-plot")


def test_model_json_writes_the_eigenvectors_in_pieces_of_whole_rows():
    model = fit(synth_wide())
    pieces = pieces_of(emit.model_json, model)
    dim = model.layout.dim
    step = emit._BLOCK_VALUES // dim  # rows a piece
    # a piece of the eigenvector matrix is its rows' text, after the separator from the last
    blocks = [json.loads("[" + p.lstrip(",\n ") + "]") for p in pieces
              if p.lstrip(",\n ").startswith("[") and p.endswith("]") and any(map(str.isdigit, p))]
    assert [len(rows) for rows in blocks[:-1]] == [step] * (len(blocks) - 1)
    assert 0 < len(blocks[-1]) <= step
    assert sum(blocks, []) == json.loads(reference_model_json(model))["eigenvectors"]


def test_to_json_of_a_2d_array_holds_no_more_than_a_block():
    values = np.random.default_rng(900).standard_normal((900, 900)) / 30  # eigenvector-like
    sizes = []
    tracemalloc.start()
    try:
        emit.to_json(lambda text: sizes.append(len(text)), values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 4096 values a piece hold about 0.8 MB; the whole matrix at once would hold 160 MB
    assert peak - max(sizes) < 2_000_000


def test_model_json_at_dim_900():
    dataset, _ = generate(SyntheticSpec(rows=2000, n_vars=8, n_planted=2, classes=4,
                                        categories=150, seed=3))
    model = fit(dataset)
    assert model.layout.dim == 900
    assert written(emit.model_json, model) == reference_model_json(model)


def test_matrix_json_of_300_variables_matches_reference():
    rng = np.random.default_rng(300)
    names = [f"v{j}" for j in range(300)]
    matrix = rng.uniform(-1, 1, (300, 300)) * 10.0 ** rng.uniform(-12, 3, (300, 300))
    matrix[:, 7] = matrix[7] = np.nan  # a constant variable's correlations
    matrix[3, 5] = 0.0
    matrix[5, 3] = 1.0
    rows = [[None if np.isnan(x) else x for x in row] for row in matrix.tolist()]
    assert written(emit.matrix, "json", names, matrix) == \
        reference_json({"variables": names, "matrix": rows})


def test_table_csv_writes_one_piece():
    for rows in (0, 1, 6, 7):
        columns = [[str(r) for r in range(rows)], [f'"{r}"' for r in range(rows)]]
        pieces = pieces_of(emit.table_csv, ["a", "b"], [iter(c) for c in columns])
        assert "".join(pieces) == joined.table_csv(["a", "b"], columns)
        assert len(pieces) == 1


def test_scree_svg_with_negative_eigenvalues_matches_joined():
    eigenvalues = np.array([2.5, 1.0, 1.0, 0.0, -1e-17, -0.25, -0.25])
    assert written(emit.scree_svg, eigenvalues) == joined.scree_svg(eigenvalues)


def test_escape_matches_saxutils():
    texts = [ODD_TEXT, "", "&", "&&amp;", "<>", "><", "a < b & c > d", "&lt;", '"\'', *STREAM_LABELS]
    rng = np.random.default_rng(3)
    texts += ["".join(rng.choice(list("&<>;a \"'"), 12)) for _ in range(200)]
    # characters XML cannot hold become U+FFFD
    xml_odd_text = ODD_TEXT.replace("\x00", "\ufffd").replace("\x1f", "\ufffd")
    expected = {ODD_TEXT: saxutils.escape(xml_odd_text)}
    for text in texts:
        assert emit._escape(text) == expected.get(text, saxutils.escape(text))


def test_scree_and_selection_tables_in_each_format():
    eigenvalues = np.array([2.0, 0.5])
    assert written(emit.scree, "csv", eigenvalues) == "mode,eigenvalue\n1,2\n2,0.5\n"
    assert json.loads(written(emit.scree, "json", eigenvalues)) == [
        {"mode": 1, "eigenvalue": 2.0}, {"mode": 2, "eigenvalue": 0.5}]
    ranking = [("a,b", 0.75), ("c", 0.25)]
    assert written(emit.selection, "csv", ranking, 1) == (
        'rank,variable,importance,selected\n1,"a,b",0.75,1\n2,c,0.25,0\n')
    assert json.loads(written(emit.selection, "json", ranking, 1)) == {
        "ranking": [{"variable": "a,b", "importance": 0.75}, {"variable": "c", "importance": 0.25}],
        "selected": ["a,b"]}
