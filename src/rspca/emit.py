"""Deterministic serialization of matrices, models, scores, and reports.

One formatter writes every number: ``"%.12g"`` (12 significant digits,
no trailing noise, -0 written as 0), mapped over a whole array's
``tolist()`` at a time.  A JSON number is what ``json.dumps(round12(x))``
writes, so the CSV and JSON forms of one matrix always agree digit for
digit; ``json_numbers`` produces that text for an array without building
a float tree for the pure-Python indenting encoder.  CSV fields holding
labels or names are quoted RFC 4180 style when they contain a comma,
double quote, CR or LF.
"""

import json

import numpy as np

from .pca import ComponentInterpretation, PcaModel, ScoreTable

_FMT12 = "%.12g".__mod__
_CSV_SPECIAL = ',"\r\n'


def fmt(x: float) -> str:
    """12-significant-digit decimal without trailing noise; -0 normalizes to 0."""
    return _FMT12(float(x) + 0.0)


def fmt_all(values) -> list[str]:
    """``fmt`` of every element of a float array, in row-major order."""
    # adding +0.0 turns -0.0 into 0.0 and leaves every other value unchanged
    return list(map(_FMT12, (np.asarray(values, dtype=float).ravel() + 0.0).tolist()))


def round12(x: float) -> float:
    """The double nearest the 12-significant-digit decimal of x."""
    return float(fmt(x))


def json_numbers(values) -> list[str]:
    """``json.dumps(round12(x))`` for every element of a float array.

    A fixed-notation decimal with a fractional part is already the
    shortest repr of the double it parses to (12 < 15 significant
    digits), so it is kept as is; integers, exponents (where ``repr``
    switches notation at 1e16, not 1e12, and subnormals lose digits),
    inf and nan go through ``json.dumps``.
    """
    return [s if "." in s and "e" not in s else json.dumps(float(s)) for s in fmt_all(values)]


def _json_array(items: list[str], depth: int) -> list[str]:
    """Pieces of a non-empty JSON array of encoded items, laid out as
    ``json.dumps(indent=2)`` nests it at depth."""
    inner = "\n" + "  " * (depth + 1)
    pieces = ["," + inner] * (2 * len(items) + 1)
    pieces[0] = "[" + inner
    pieces[1::2] = items
    pieces[-1] = "\n" + "  " * depth + "]"
    return pieces


def csv_fields(texts: list[str]) -> list[str]:
    """Labels as RFC 4180 CSV fields: quoted, with " doubled, when they hold , " CR or LF."""
    joined = "".join(texts)
    if not any(c in joined for c in _CSV_SPECIAL):
        return texts
    return [
        '"' + t.replace('"', '""') + '"' if any(c in t for c in _CSV_SPECIAL) else t
        for t in texts
    ]


def _jsonify(obj):
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    return obj


def to_json(obj) -> str:
    return json.dumps(_jsonify(obj), indent=2) + "\n"


def matrix_csv(names: list[str], matrix: np.ndarray, defined: np.ndarray | None = None) -> str:
    """Square matrix as CSV with a variable-name header row and column.

    Undefined entries (per the mask) are left empty.
    """
    names = csv_fields(names)
    n = len(names)
    cells = fmt_all(matrix)
    if defined is not None:
        cells = [c if ok else "" for c, ok in zip(cells, np.ravel(defined).tolist())]
    lines = ["," + ",".join(names)]
    lines.extend(name + "," + ",".join(cells[i * n:(i + 1) * n]) for i, name in enumerate(names))
    return "\n".join(lines) + "\n"


def matrix_json(names: list[str], matrix: np.ndarray, defined: np.ndarray | None = None) -> str:
    """Same matrix as {"variables": [...], "matrix": [[...]]}; undefined -> null."""
    rows = []
    for i in range(len(names)):
        row = []
        for j in range(len(names)):
            if defined is not None and not defined[i, j]:
                row.append(None)
            else:
                row.append(float(matrix[i, j]))
        rows.append(row)
    return to_json({"variables": names, "matrix": rows})


def scores_csv(table: ScoreTable) -> str:
    n_comp = table.values.shape[1]
    header = "instance_id,weight,label," + ",".join(f"pc{m + 1}" for m in range(n_comp))
    columns = [
        map(str, table.instance_ids.tolist()),
        fmt_all(table.weights),
        csv_fields(table.labels),
        *(fmt_all(column) for column in table.values.T),
    ]
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def model_json(model: PcaModel) -> str:
    """The fitted model as indented JSON, numbers as in ``to_json``.

    The small variables/layout head goes through ``json.dumps``; the float
    arrays (dim eigenvectors of length dim) are written row by row with
    ``json_numbers`` in the same layout.
    """
    layout = model.layout
    head = json.dumps(
        {
            "variables": [
                {"name": name, "categories": cats}
                for name, cats in zip(layout.names, layout.categories)
            ],
            "layout": [
                {"variable": name, "offset": off, "width": width}
                for name, off, width in zip(layout.names, layout.offsets, layout.widths)
            ],
        },
        indent=2,
    )
    vectors = model.eigenvectors.T[: model.n_components]
    arrays = {
        "eigenvalues": json_numbers(model.eigenvalues),
        "eigenvectors": ["".join(_json_array(json_numbers(v), 2)) for v in vectors],
        "mean": json_numbers(model.mean),
    }
    # head ends in "\n}": reopen the object, append the arrays, then join once
    parts = [head[:-2]]
    for key, items in arrays.items():
        parts.append(f',\n  "{key}": ')
        parts.extend(_json_array(items, 1))
    parts.append("\n}\n")
    return "".join(parts)


def atom_name(atom, categories: dict[str, list[str]], flip: bool = False) -> str:
    """Human-readable atom name, e.g. d[eye](medium->light) or c[hair](fair)."""
    cats = categories[atom.variable]
    if atom.kind == "edge":
        a, b = atom.from_category, atom.to_category
        if flip:
            a, b = b, a
        return f"d[{atom.variable}]({cats[a]}->{cats[b]})"
    return f"c[{atom.variable}]({cats[atom.to_category]})"


def interpretation_text(
    interp: ComponentInterpretation,
    model: PcaModel,
    total_variance: float,
) -> str:
    """Paper-style signed expansion of one component.

    Edge atoms are printed oriented so their coefficient is positive (the
    stored orientation is low index to high; flipping it flips the sign).
    """
    cats = dict(zip(model.layout.names, model.layout.categories))
    lam = float(model.eigenvalues[interp.component - 1])
    share = 100.0 * lam / total_variance if total_variance > 0 else 0.0
    lines = [f"component {interp.component} (eigenvalue {fmt(lam)}, {share:.1f}% of variance)"]
    for coef, atom in interp.terms:
        flip = atom.kind == "edge" and coef < 0
        shown = -coef if flip else coef
        lines.append(f"  {shown:+.4f} {atom_name(atom, cats, flip=flip)}")
    lines.append(f"  residual norm {fmt(interp.residual_norm)}")
    return "\n".join(lines) + "\n"


def interpretation_json_obj(interp: ComponentInterpretation, model: PcaModel) -> dict:
    cats = dict(zip(model.layout.names, model.layout.categories))
    terms = []
    for coef, atom in interp.terms:
        terms.append(
            {
                "coefficient": float(coef),
                "kind": atom.kind,
                "variable": atom.variable,
                "from": cats[atom.variable][atom.from_category],
                "to": cats[atom.variable][atom.to_category],
                "name": atom_name(atom, cats),
            }
        )
    return {
        "component": interp.component,
        "eigenvalue": float(model.eigenvalues[interp.component - 1]),
        "terms": terms,
        "residual_norm": float(interp.residual_norm),
    }
