"""The array-at-a-time writers against per-element references built here."""

import csv
import io
import json

import numpy as np
import pytest

from rspca import emit
from rspca.covariance import correlation_matrix
from rspca.dataset import from_columns
from rspca.pca import fit, interpret, scores
from rspca.synth import SyntheticSpec, generate

EDGE_VALUES = [
    0.0, -0.0, 1.0, -1.0, 1e-5, 1.5e-7, 123456789012.0, 1e12, 1e15, 1e16,
    5e-324, 1e300, 1 / 3, float("inf"), -float("inf"), float("nan"),
]


def round12(x: float) -> float:
    """The double nearest the 12-significant-digit decimal of x."""
    return float(emit.fmt(x))


def _jsonify(obj):
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    return obj


def reference_json(obj) -> str:
    """The JSON reference: every float rounded to 12 digits, then the standard encoder."""
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
def test_json_numbers_match_dumps_of_round12(values):
    cells = [f"{0.0 if x == 0.0 else x:.12g}" for x in values.tolist()]
    assert emit.fmt_all(values) == cells
    assert [emit.fmt(x) for x in values.tolist()] == cells
    assert emit.json_numbers(values) == [json.dumps(round12(x)) for x in values.tolist()]


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
    assert emit.model_json(model) == reference_model_json(model)


def test_model_json_wide_synth():
    model = fit(synth_wide())
    assert model.layout.dim > 100
    assert emit.model_json(model) == reference_model_json(model)


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
        assert dataset.instance_labels(sep) == [
            sep.join(v.categories[v.codes[a]] for v in dataset.variables)
            for a in range(dataset.n_instances)
        ]
    values = scores(fit(dataset), dataset, 3)
    labels = dataset.instance_labels()
    lines = [csv_line(["instance_id", "weight", "label", "pc1", "pc2", "pc3"])]
    for a in range(dataset.n_instances):
        lines.append(csv_line([str(a), emit.fmt(dataset.weights[a]), labels[a],
                               *(emit.fmt(v) for v in values[a])]))
    assert emit.scores_csv(dataset.weights, labels, values) == "\n".join(lines) + "\n"


def test_matrix_csv_quotes_names_and_blanks_undefined():
    matrix = np.array([[1.0, -0.0], [0.25, np.nan]])
    defined = np.array([[True, True], [True, False]])
    text = emit.matrix_csv(["a,b", 'q"'], matrix, defined)
    assert text == ',"a,b","q"""\n"a,b",1,0\n"q""",0.25,\n'


def fisher_interpretations(fisher):
    model = fit(fisher)
    return [emit.interpretation_json_obj(interpret(model, m), model) for m in (1, 2, 3)]


def masked_correlation():
    """A correlation matrix as ``matrix_json`` writes it, with a zero-variance column."""
    rng = np.random.default_rng(4)
    columns = [[f"a{c}" for c in rng.integers(0, 3, 40)], ["only"] * 40,
               [f"b{c}" for c in rng.integers(0, 4, 40)]]
    dataset = from_columns(["a", "constant", "b"], columns, rng.uniform(0.5, 1.5, 40))
    rho, defined = correlation_matrix(dataset)
    assert not defined.all()
    rows = [[x if ok else None for x, ok in zip(row, mask)]
            for row, mask in zip(rho.tolist(), defined.tolist())]
    return {"variables": dataset.variable_names(), "matrix": rows}


ODD_TEXT = 'caf\u00e9 \u03c3\u00b2 \U0001f600 "q" back\\slash \x00\x1f\t\n\r \u2028 \x7f'

TO_JSON_CASES = {
    "empty": lambda fisher: [[], {}, [[]], [{}], {"a": []}, {"b": {}}, [[], [[]], {"c": [{}]}]],
    "floats": lambda fisher: EDGE_VALUES,
    "float64": lambda fisher: [np.float64(x) for x in EDGE_VALUES],
    "array1d": lambda fisher: np.array(EDGE_VALUES),
    "array2d": lambda fisher: np.array(EDGE_VALUES).reshape(4, 4),
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
    assert emit.to_json(obj) == reference_json(plain(obj))
