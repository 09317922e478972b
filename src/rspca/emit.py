"""Deterministic serialization of matrices, models, scores, reports and plots.

Every artifact is made here, and a command's artifacts are one call:
``matrix``, ``interpretations``, ``scree`` and ``selection`` take the
format name and ``pca`` takes its outputs.  Below them is one writer per
format: ``to_json`` for JSON, ``table_csv`` for CSV and ``_frame`` for an
SVG plot.  Writers take the output's ``write`` and hand it the text a
piece at a time: one 1-D array of a JSON document, and for an output
with a row per instance (scores, KL-plot, synthetic CSV) one chunk of
rows from ``CategoricalDataset.label_chunks``: ``dataset._CHUNK_CELLS``
label cells, the chunk the loader reads, so there is one chunking rule.
The scores CSV and the KL-plot write their frame and return a row writer
that takes one chunk's labels from its caller: ``pca`` walks the chunks
once and builds each chunk's instance labels once for both.  A
``table_csv`` table (a vars x vars matrix, or a row per mode or per
variable) is far less text than the dim x dim model and is written as
one piece.  One formatter writes every number: ``"%.12g"`` (12
significant digits, no trailing noise, -0 written as 0), mapped over a
whole array's ``tolist()`` at a time, or, in the scores CSV, one ``%``
of a row template per chunk.  A JSON number is what ``json.dumps``
writes for the double nearest that decimal, so the CSV and JSON forms of
one matrix always agree digit for digit.  ``json_number`` writes one such number;
``json_join`` writes a whole 1-D array with one ``%`` over a template
of ``"%.12g"`` fields, because for a value x with

    tiny <= |x| < 1e11  and  |x - rint(x)| > 1e-10 |x|

(``tiny`` the least normal double) the ``"%.12g"`` text already is
``json.dumps`` of the double it parses to (``json_join`` says why); every
other value (zero, integer-like, large, subnormal, inf, nan) gets a
``"%s"`` field filled by ``json_number``.  CSV fields holding labels or
names are quoted RFC 4180 style when they contain a comma, double quote,
CR or LF.
An SVG plot is plain string assembly in a fixed 800x600 viewport with
fixed decimal formatting: the same data always yields the same bytes.
"""

import json
from itertools import chain

import numpy as np

from .dataset import CategoricalDataset
from .pca import ComponentInterpretation, PcaModel

_FMT12 = "%.12g".__mod__
_TINY = np.finfo(float).tiny
_CSV_SPECIAL = ',"\r\n'


def fmt(x: float) -> str:
    """12-significant-digit decimal without trailing noise; -0 normalizes to 0."""
    return _FMT12(float(x) + 0.0)


def fmt_all(values) -> list[str]:
    """``fmt`` of every element of a float array, in row-major order."""
    # adding +0.0 turns -0.0 into 0.0 and leaves every other value unchanged
    return list(map(_FMT12, (np.asarray(values, dtype=float).ravel() + 0.0).tolist()))


def json_number(x: float) -> str:
    """``json.dumps(float(fmt(x)))``."""
    return json.dumps(float(fmt(x)))


def json_join(sep: str, values) -> str:
    """``sep.join`` of ``json_number`` of every element of a float array, in one ``%``.

    A value x (after +0.0) with ``tiny <= |x| < 1e11`` and
    ``|x - rint(x)| > 1e-10 |x|`` gets a ``"%.12g"`` field, whose text is
    exactly ``json_number(x)``.  Rounding to 12 digits moves x by at most
    5e-12 |x|, so from 1e-4 up the text has a fractional part and no
    exponent, and 12 < 15 digits make it the ``repr`` of its double.  Below
    1e-4, a normal double's 12-digit exponent form is the one ``repr``
    writes (subnormals lose digits, hence ``tiny``).  Every other value
    (zero, integer-like, at least 1e11, subnormal, inf, nan) gets a
    ``"%s"`` field holding ``json_number(x)``.
    """
    x = np.asarray(values, dtype=float).ravel() + 0.0
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # inf - rint(inf) is nan, and nan is never same
        same = (a >= _TINY) & (a < 1e11) & (np.abs(x - np.rint(x)) > 1e-10 * a)
    numbers = x.tolist()
    fields = ["%.12g"] * len(numbers)
    for i in np.flatnonzero(~same).tolist():
        numbers[i] = json_number(numbers[i])
        fields[i] = "%s"
    return sep.join(fields) % tuple(numbers)


def csv_fields(texts: list[str]) -> list[str]:
    """Labels as RFC 4180 CSV fields: quoted, with " doubled, when they hold , " CR or LF."""
    joined = "".join(texts)
    if not any(c in joined for c in _CSV_SPECIAL):
        return texts
    return [
        '"' + t.replace('"', '""') + '"' if any(c in t for c in _CSV_SPECIAL) else t
        for t in texts
    ]


def _json_pieces(obj, depth: int, write) -> None:
    """Write obj's text, laid out as ``json.dumps`` nests it at depth with indent 2."""
    if isinstance(obj, float):
        write(json_number(obj))
        return
    if not isinstance(obj, (dict, list, tuple, np.ndarray)):
        write(json.dumps(obj))
        return
    opening, closing = ("{", "}") if isinstance(obj, dict) else ("[", "]")
    if len(obj) == 0:
        write(opening + closing)
        return
    inner = "\n" + "  " * (depth + 1)
    sep = "," + inner
    write(opening + inner)
    if isinstance(obj, np.ndarray) and obj.ndim == 1:
        write(json_join(sep, obj))
    elif isinstance(obj, dict):
        for n, (key, item) in enumerate(obj.items()):
            write((sep if n else "") + json.dumps(key) + ": ")
            _json_pieces(item, depth + 1, write)
    else:
        for n, item in enumerate(obj):
            if n:
                write(sep)
            _json_pieces(item, depth + 1, write)
    write("\n" + "  " * depth + closing)


def to_json(write, obj) -> None:
    """Write obj as ``json.dumps`` writes it with indent 2, plus a final newline.

    dicts (with str keys), lists, tuples and float ndarrays are walked.
    Every float is written as ``json_number`` writes it, and a 1-D array
    as one ``json_join`` piece, so one array's text is alive at a time.
    str, int, bool and None go through ``json.dumps`` one at a time.
    """
    _json_pieces(obj, 0, write)
    write("\n")


def table_csv(write, header: list[str], columns) -> None:
    """Write CSV of a header row and columns of already-encoded fields, as one piece."""
    write("\n".join(map(",".join, [header, *zip(*columns)])) + "\n")


def matrix(write, form: str, names: list[str], values: np.ndarray) -> None:
    """Write a square matrix as ``form``: csv or json."""
    (matrix_json if form == "json" else matrix_csv)(write, names, values)


def matrix_csv(write, names: list[str], matrix: np.ndarray) -> None:
    """Square matrix as CSV with a variable-name header row and column; a NaN cell is empty."""
    names = csv_fields(names)
    n = len(names)
    cells = [c if c != "nan" else "" for c in fmt_all(matrix)]
    table_csv(write, ["", *names], [names, *(cells[j::n] for j in range(n))])


def matrix_json(write, names: list[str], matrix: np.ndarray) -> None:
    """Same matrix as {"variables": [...], "matrix": [[...]]}; a NaN entry is null."""
    rows = [[None if np.isnan(x) else x for x in row] for row in np.asarray(matrix).tolist()]
    to_json(write, {"variables": names, "matrix": rows})


def scores_csv(write, weights: np.ndarray, values: np.ndarray):
    """Write the per-instance scores header: id, weight, label, then one column per component.

    Returns ``rows(start, stop, labels)``, which writes instances
    start..stop-1 (one ``label_chunks`` chunk) with one ``%`` of a row
    template, repeated once per row, over their fields in row-major order;
    ``labels`` are those instances' labels.
    """
    header = ["instance_id", "weight", "label", *(f"pc{m + 1}" for m in range(values.shape[1]))]
    write(",".join(header) + "\n")
    row = "%d,%.12g,%s" + ",%.12g" * values.shape[1] + "\n"

    def rows(start: int, stop: int, labels: list[str]) -> None:
        columns = [
            range(start, stop),
            (weights[start:stop] + 0.0).tolist(),  # +0.0 turns -0.0 into 0.0, as in fmt_all
            csv_fields(labels),
            *(values[start:stop].T + 0.0).tolist(),
        ]
        write(row * (stop - start) % tuple(chain.from_iterable(zip(*columns))))

    return rows


def pca(write: dict, dataset: CategoricalDataset, model: PcaModel, values: np.ndarray) -> None:
    """Write the model JSON to ``write["model"]`` and the KL-plot to ``write["svg"]`` when given,
    and the scores CSV to ``write["scores"]``, from one walk over ``label_chunks``."""
    if "model" in write:
        model_json(write["model"], model)
    writers = [scores_csv(write["scores"], dataset.weights, values)]
    if "svg" in write:
        titles = (f"pc{m + 1} ({variance_share(model, m)})" for m in (0, 1))
        writers.append(scatter_svg(write["svg"], values[:, 0], values[:, 1], *titles))
    for start, stop, labels in dataset.label_chunks():
        for rows in writers:
            rows(start, stop, labels)


def synthetic_csv(write, dataset: CategoricalDataset) -> None:
    """Write instance-level CSV of a generated dataset (unit weights), one ``label_chunks``
    chunk of rows per piece."""
    write(",".join(dataset.variable_names()) + "\n")
    for _, _, lines in dataset.label_chunks(","):
        write("\n".join(lines) + "\n")


def model_json(write, model: PcaModel) -> None:
    """Write the fitted model as indented JSON: variables, layout, eigenpairs and mean."""
    layout = model.layout
    to_json(
        write,
        {
            "variables": [
                {"name": name, "categories": cats}
                for name, cats in zip(layout.names, layout.categories)
            ],
            "layout": [
                {"variable": name, "offset": off, "width": width}
                for name, off, width in zip(layout.names, layout.offsets, layout.widths)
            ],
            "eigenvalues": model.eigenvalues,
            "eigenvectors": model.eigenvectors.T,
            "mean": model.mean,
        }
    )


def variance_share(model: PcaModel, m: int) -> str:
    """Component m's (0-based) percent of the total variance; 0 when the total is 0."""
    total = float(model.eigenvalues.sum())
    share = 100.0 * float(model.eigenvalues[m]) / total if total > 0 else 0.0
    return f"{share:.1f}% of variance"


def atom_name(atom, categories: dict[str, list[str]], flip: bool = False) -> str:
    """Human-readable atom name, e.g. d[eye](medium->light) or c[hair](fair)."""
    cats = categories[atom.variable]
    if atom.kind == "edge":
        a, b = atom.from_category, atom.to_category
        if flip:
            a, b = b, a
        return f"d[{atom.variable}]({cats[a]}->{cats[b]})"
    return f"c[{atom.variable}]({cats[atom.to_category]})"


def interpretation_text(interp: ComponentInterpretation, model: PcaModel) -> str:
    """Paper-style signed expansion of one component.

    Edge atoms are printed oriented so their coefficient is positive (the
    stored orientation is low index to high; flipping it flips the sign).
    """
    cats = dict(zip(model.layout.names, model.layout.categories))
    m = interp.component - 1
    lam = fmt(model.eigenvalues[m])
    lines = [f"component {interp.component} (eigenvalue {lam}, {variance_share(model, m)})"]
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


def interpretations(write, form: str, interps: list, model: PcaModel) -> None:
    """Write the components' expansions as ``form``: text or json."""
    if form == "json":
        to_json(write, [interpretation_json_obj(i, model) for i in interps])
    else:
        for i in interps:
            write(interpretation_text(i, model))


def scree(write, form: str, eigenvalues: np.ndarray) -> None:
    """Write the eigenvalue of each mode (numbered from 1) as ``form``: csv or json."""
    if form == "json":
        to_json(write, [{"mode": m, "eigenvalue": ev} for m, ev in enumerate(eigenvalues, 1)])
    else:
        table_csv(write, ["mode", "eigenvalue"],
                  [map(str, range(1, len(eigenvalues) + 1)), fmt_all(eigenvalues)])


def selection(write, form: str, ranking: list[tuple[str, float]], top: int) -> None:
    """Write a ranking, its first ``top`` variables selected, as ``form``: csv or json."""
    names, importance = zip(*ranking)
    if form == "json":
        to_json(write, {"ranking": [{"variable": n, "importance": v} for n, v in ranking],
                        "selected": names[:top]})
    else:
        ranks = range(1, len(ranking) + 1)
        table_csv(write, ["rank", "variable", "importance", "selected"],
                  [map(str, ranks), csv_fields(list(names)), fmt_all(importance),
                   ["1" if rank <= top else "0" for rank in ranks]])


WIDTH, HEIGHT = 800, 600
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 30, 40, 60
# characters XML 1.0 cannot hold (C0 controls but TAB, LF, CR; U+FFFE, U+FFFF): none is printable
_NOT_XML = dict.fromkeys([*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF], "\ufffd")


def _escape(text: str) -> str:
    """&, > and < as XML entities in ``xml.sax.saxutils.escape``'s order, ``_NOT_XML`` as U+FFFD."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;").translate(_NOT_XML)


def _axis_range(values: np.ndarray) -> tuple[float, float]:
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks from lo to hi."""
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _frame(write, title: str, x_range, y_range, x_label: str, y_label: str):
    """Write the opening tag, title, plot box, ticks and axis labels.

    Returns the data-to-pixel map; it takes floats or float arrays and
    does the same arithmetic on each element.
    """
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP

    def to_px(x, y):
        px = x0 + (x - x_range[0]) / (x_range[1] - x_range[0]) * (x1 - x0)
        py = y0 + (y - y_range[0]) / (y_range[1] - y_range[0]) * (y1 - y0)
        return px, py

    write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(title)}</text>\n'
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        f'fill="none" stroke="black"/>\n'
    )
    for tx in _ticks(*x_range):
        px, _ = to_px(tx, y_range[0])
        write(
            f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="black"/>\n'
            f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{tx:.3g}</text>\n'
        )
    for ty in _ticks(*y_range):
        _, py = to_px(x_range[0], ty)
        write(
            f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>\n'
            f'<text x="{x0 - 8}" y="{py + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{ty:.3g}</text>\n'
        )
    write(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(x_label)}</text>\n'
        f'<text x="18" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">{_escape(y_label)}</text>\n'
    )
    return to_px


_CIRCLE = '<circle cx="%.2f" cy="%.2f" r="3" fill="#1f6fb4"/>\n'
# one KL-plot point: its circle at (x, y), then its label at (x + 5, y - 4)
_MARK = _CIRCLE + '<text x="%.2f" y="%.2f" font-family="sans-serif" font-size="9">%s</text>\n'


def scatter_svg(write, xs: np.ndarray, ys: np.ndarray, x_label: str, y_label: str):
    """Write the frame of a labeled 2-D scatter of component scores, titled "KL-plot".

    Returns ``marks(start, stop, labels)``, which writes points
    start..stop-1 (one ``label_chunks`` chunk) with one ``%`` of a
    point template, ``labels`` being their labels, and closes the plot
    after the last point.
    """
    to_px = _frame(write, "KL-plot", _axis_range(xs), _axis_range(ys), x_label, y_label)

    def marks(start: int, stop: int, labels: list[str]) -> None:
        px, py = to_px(xs[start:stop], ys[start:stop])
        joined = "".join(labels)
        if "&" in joined or "<" in joined or ">" in joined or not joined.isprintable():
            labels = list(map(_escape, labels))
        fields = zip(px.tolist(), py.tolist(), (px + 5).tolist(), (py - 4).tolist(), labels)
        write(_MARK * (stop - start) % tuple(chain.from_iterable(fields)))
        if stop == len(xs):
            write("</svg>\n")

    return marks


def scree_svg(write, eigenvalues: np.ndarray) -> None:
    """Write an eigenvalue-versus-mode curve with markers, titled "eigenvalue vs mode number"."""
    ev = np.asarray(eigenvalues, dtype=float)
    modes = np.arange(1, len(ev) + 1, dtype=float)
    lo = min(0.0, float(ev.min()))
    to_px = _frame(
        write,
        "eigenvalue vs mode number",
        (0.5, len(ev) + 0.5),
        _axis_range(np.array([lo, float(ev.max())])),
        "mode number",
        "eigenvalue",
    )
    px, py = to_px(modes, ev)
    path = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px.tolist(), py.tolist()))
    write(f'<polyline points="{path}" fill="none" stroke="#1f6fb4" stroke-width="1.5"/>\n')
    write(_CIRCLE * len(ev) % tuple(chain.from_iterable(zip(px.tolist(), py.tolist()))))
    write("</svg>\n")
