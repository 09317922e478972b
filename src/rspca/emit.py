"""Deterministic serialization of matrices, models, scores, reports and plots.

Every artifact is made here, with one call per command (``scree --svg``
adds a ``scree_svg`` call): ``matrix``, ``interpretations``, ``scree``
and ``selection`` take the format name and ``pca`` takes its outputs.
Below them is one writer per format: ``to_json`` for every JSON
document, ``table_csv`` for CSV and ``_frame`` for an SVG plot.  Writers
take the output's ``write`` and hand it the text a piece at a time: one
1-D array of a JSON document, whole rows of a 2-D one holding about
``_BLOCK_VALUES`` numbers, and for an output with a row per instance
(scores, KL-plot, synthetic CSV) one chunk of rows from
``CategoricalDataset.label_chunks``: ``dataset._CHUNK_CELLS`` label
cells, the chunk the loader reads, so there is one chunking rule.  The
scores CSV and the KL-plot write their frame and return a row writer
that takes one chunk's labels from its caller: ``pca`` walks the chunks
once and builds each chunk's instance labels once for both.  A
``table_csv`` table (a vars x vars matrix, or a row per mode or per
variable) is far less text than the dim x dim model and is written as
one piece.

Every number is ``"%.12g"`` text (12 significant digits, no trailing
noise, -0 written as 0), and a JSON number is what ``json.dumps`` writes
for the double nearest that decimal (``json_number``), so the CSV and
JSON forms of one matrix agree digit for digit.  JSON has no NaN or
infinity: ``json_number`` writes them as ``null``, as ``JSON.stringify``
does (only ``corr`` holds one).  Two paths write a number.  CSV cells go
through Python's ``"%.12g"``, mapped over a whole array's ``tolist()``
or, in the scores CSV, one ``%`` of a row template per chunk.  A JSON
float array goes through ``_fields``: in one of at least ``_NUMPY_MIN``
values, the values with 1e-11 <= |x| < 1e11 that are not integer-like,
the bulk of a model, are formatted by numpy (``_g12``), digit for digit
as ``"%.12g"`` formats them, and that text already is their
``json_number`` (``json_join`` says why); every other value (zero,
integer-like, large, tiny, subnormal, inf, nan), and every value of a
smaller array, is written by ``json_number``.

CSV fields holding labels or names are quoted RFC 4180 style when they
contain a comma, double quote, CR or LF.  An SVG plot is plain string
assembly in a fixed 800x600 viewport with fixed decimal formatting: the
same data always yields the same bytes.
"""

import json
from functools import cache
from itertools import chain
from math import isfinite

import numpy as np

from .dataset import CategoricalDataset
from .pca import ComponentInterpretation, PcaModel

_FMT12 = "%.12g".__mod__
_CSV_SPECIAL = ',"\r\n'
_POW10 = np.array([float(10**p) for p in range(23)])  # 10**0 .. 10**22, each exactly a double
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter of a double into two 26-bit halves
# values per piece of a 2-D array's text, in whole rows: ``_fields`` holds about 200 bytes
# of temporaries a value (the arrays ``_g12`` computes, the byte rows and their text), so a
# piece costs about 0.8 MB, where the whole dim x dim model at once would cost 165 MB at
# dim 908; half as many values save 0.4 MB and cost about 5% more time
_BLOCK_VALUES = 4096
# fewer values than this are written by ``json_number`` one at a time: numpy's formatter
# costs about 60 us a call, no less, and a document of only such arrays (Fisher's model)
# never pays the first call's tables and code, about 0.6 MB of peak RSS
_NUMPY_MIN = 64


@cache
def _g12_tables():
    """The tables of ``_g12`` and ``_fields``; ``digits`` and ``templates`` are bytes
    viewed as 8-byte words.

    ``digits[g]``: the 4 ASCII digits of g = 0..9999, each followed by a 0xFF byte.
    ``zeros[g]``: the trailing decimal zeros of g as 4 digits (4 for 0).
    ``templates[c]``: 40 bytes of a number of class c = (sign * 23 + e + 11) * 12 + s - 1,
    for |x| = d.ddd... 10**e with s significant digits, e = -11..11: the sign, the ``0.``
    and zeros before the digits, 12 digit slots each followed by a point slot, and the
    exponent.  A kept digit slot is 0xFF, so AND-ing in ``digits`` writes the digit; every
    unused byte is NUL, to be deleted.  The last row is a ``%s`` field.
    """
    g = np.arange(10000, dtype=np.uint16)
    digits = np.full((10000, 8), 0xFF, np.uint8)
    for k, p in enumerate((1000, 100, 10, 1)):
        digits[:, 2 * k] = g // p % 10 + 48
    zeros = (g % 10 == 0).astype(np.uint8) + (g % 100 == 0) + (g % 1000 == 0) + (g == 0)
    sign = np.arange(2)[:, None, None, None]
    e = np.arange(-11, 12)[None, :, None, None]
    s = np.arange(1, 13)[None, None, :, None]
    fixed = e >= -4  # "%g" writes 10**-4 <= |x| < 10**12 without an exponent
    leading = fixed & (e < 0)  # 0.000ddd: "0." and -e - 1 zeros
    j = np.arange(5)
    t = np.zeros((2, 23, 12, 40), np.uint8)
    t[..., :1] = np.where(sign == 1, ord("-"), 0)
    t[..., 1:6] = np.where(leading & (j == 1), ord("."), 0) + \
        np.where(leading & ((j == 0) | (j >= 2) & (j - 2 < -e - 1)), ord("0"), 0)
    i = np.arange(12)
    t[..., 8:32:2] = np.where(i < np.where(fixed & (e >= 0), np.maximum(s, e + 1), s), 0xFF, 0)
    point = np.where(fixed, np.where((e >= 0) & (s > e + 1), e, -1), np.where(s > 1, 0, -1))
    t[..., 9:32:2] = np.where(i == point, ord("."), 0)
    j = np.arange(4)
    exponent = np.select([j == 0, j == 1, j == 2], [ord("e"), ord("-"), 48 + (-e) // 10],
                         48 + (-e) % 10)
    t[..., 32:36] = np.where(fixed, 0, exponent)  # e-05 .. e-11
    other = np.zeros((1, 40), np.uint8)
    other[0, :2] = tuple(b"%s")
    templates = np.concatenate([t.reshape(-1, 40), other])
    return digits.view(np.uint64)[:, 0], zeros, templates.view(np.uint64)


def _product_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b - fl(a * b) exactly (Dekker's product; numpy rounds every ufunc on its own)."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _words(text: str, n: int) -> np.ndarray:
    """text's ASCII bytes, NUL-padded to n 8-byte words."""
    return np.frombuffer(text.encode().ljust(8 * n, b"\0"), np.uint64)


def _g12(x: np.ndarray):
    """``"%.12g"`` by numpy for the values ``json_join`` writes that way (x after +0.0):
    ``fast``, which values those are, and each one's template class and 12 digits as
    three 4-digit groups.

    The fast values are 1e-11 <= |x| < 1e11 with ``|x - rint(x)| > 1e-10 |x|``.  With
    e = floor(log10 |x|), hi = |x| 10**(11 - e) is one rounding of the exact product
    (10**(11 - e) is a double), so rint(hi) is the 12 digits m, 10**11 <= m <= 10**12,
    unless hi is exactly halfway between two integers (hi < 2**40, so hi - m is exact):
    there the product's rounding error decides the way, and a zero error is a true tie,
    which rint rounds half to even, as Python's dtoa does.  A rounded log10 can put e
    one off only within a few ulps of a power of ten, where m rounds to that power at
    either e (one short, it reads 10**12, which carries).  Every other value gets the
    ``%s`` class.
    """
    _, zero_table, templates = _g12_tables()
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # inf - rint(inf) is nan, and nan is never fast
        fast = (a >= 1e-11) & (a < 1e11) & (np.abs(x - np.rint(x)) > 1e-10 * a)
    every = fast.all()
    if not every:
        a[~fast] = 1.0  # a stand-in, so every step below stays finite
    e = np.clip(np.floor(np.log10(a)), -11, 10).astype(np.intp)
    hi = a * _POW10[11 - e]
    m = np.rint(hi)
    tie = np.flatnonzero(np.abs(hi - m) == 0.5)
    if tie.size:
        error = _product_error(a[tie], _POW10[11 - e[tie]])
        m[tie] = np.where(error == 0, m[tie], np.floor(hi[tie]) + (error > 0))
    carry = m == 1e12  # 9.99...95 rounded up to 10, or e one short (see above)
    m[carry] = 1e11
    e += carry
    high, low = np.divmod(m.astype(np.int64), 10**8)
    mid, low = np.divmod(low, 10**4)
    zeros = np.take(zero_table, low)  # m has 12 - zeros significant digits
    rare = np.flatnonzero(low == 0)
    if rare.size:
        zeros[rare] += np.where(mid[rare] > 0, zero_table[mid[rare]], 4 + zero_table[high[rare]])
    cls = ((x < 0) * 23 + e + 11) * 12 + 11 - zeros
    if not every:
        cls[~fast] = len(templates) - 1
    return fast, cls, (high, mid, low)


def _fields(values: np.ndarray, sep: str, row_sep: str) -> str:
    """``json_number`` of every element of a 2-D float array: a row's joined by sep, rows
    joined by row_sep.

    An array of fewer than ``_NUMPY_MIN`` values is written one value at a time.  In a
    larger one each value is a row of bytes: the separator before it (a "]" mark before
    a row's first value, none before the first), then its ``_g12`` template with the
    digits AND-ed in.  Deleting the NULs leaves the text, and ``%`` fills the ``%s``
    fields.
    """
    cols = values.shape[1]
    x = values.ravel() + 0.0
    if not x.size:
        return ""
    if x.size < _NUMPY_MIN:
        texts = list(map(json_number, x.tolist()))
        return row_sep.join(sep.join(texts[i:i + cols]) for i in range(0, x.size, cols))
    fast, cls, groups = _g12(x)
    digits, _, body = _g12_tables()
    head = -(-len(sep) // 8)
    templates = np.empty((len(body), head + 5), np.uint64)
    templates[:, :head] = _words(sep, head)
    templates[:, head:] = body
    words = np.take(templates, cls, axis=0)
    words[::cols, :head] = _words("]", head)
    words[0, :head] = 0
    for k, group in enumerate(groups):
        words[:, head + 1 + k] &= np.take(digits, group)
    text = words.tobytes().translate(None, b"\0").decode()
    if cols < x.size:
        text = text.replace("]", row_sep)
    if not fast.all():
        text %= tuple(map(json_number, x[~fast].tolist()))
    return text


def fmt(x: float) -> str:
    """12-significant-digit decimal without trailing noise; -0 normalizes to 0."""
    return _FMT12(float(x) + 0.0)


def fmt_all(values) -> list[str]:
    """``fmt`` of every element of a float array, in row-major order."""
    # adding +0.0 turns -0.0 into 0.0 and leaves every other value unchanged
    return list(map(_FMT12, (np.asarray(values, dtype=float).ravel() + 0.0).tolist()))


def json_number(x: float) -> str:
    """``json.dumps(float(fmt(x)))`` of a finite x; ``null`` for NaN, inf and -inf, which
    JSON (RFC 8259) has no number for."""
    return json.dumps(float(fmt(x))) if isfinite(x) else "null"


def json_join(sep: str, values) -> str:
    """``sep.join`` of ``json_number`` of every element of a float array.

    A value x (after +0.0) with ``1e-11 <= |x| < 1e11`` and
    ``|x - rint(x)| > 1e-10 |x|`` is written by ``_fields``' numpy formatter
    as ``"%.12g"`` writes it, and that text is exactly ``json_number(x)``.
    Rounding to 12 digits moves x by at most 5e-12 |x|, so from 1e-4 up the
    text has a fractional part and no exponent, and 12 < 15 digits make it
    the ``repr`` of its double; below 1e-4, a normal double's 12-digit
    exponent form is the one ``repr`` writes.  Every other value (zero,
    integer-like, at least 1e11, below 1e-11, inf, nan), and every value of
    an array of fewer than ``_NUMPY_MIN``, is written by ``json_number``.
    """
    return _fields(np.asarray(values, dtype=float).reshape(1, -1), sep, "")


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
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.shape[1]:
        # each row laid out as at depth + 1, whole rows of about _BLOCK_VALUES values a piece
        row_inner = inner + "  "
        row_sep = inner + "]" + sep + "[" + row_inner
        step = max(1, _BLOCK_VALUES // obj.shape[1])
        for start in range(0, len(obj), step):
            block = np.asarray(obj[start:start + step], dtype=float)
            text = _fields(block, "," + row_inner, row_sep)
            write((sep if start else "") + "[" + row_inner + text + inner + "]")
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
    Every float is written as ``json_number`` writes it (NaN and +-inf as
    ``null``), a 1-D array as one ``json_join`` piece, and a 2-D array in
    pieces of whole rows of about ``_BLOCK_VALUES`` values, one alive at a
    time.  str, int, bool and None go through ``json.dumps`` one at a time.
    """
    _json_pieces(obj, 0, write)
    write("\n")


def table_csv(write, header: list[str], columns) -> None:
    """Write CSV of a header row and columns of already-encoded fields, as one piece."""
    write("\n".join(map(",".join, [header, *zip(*columns)])) + "\n")


def matrix(write, form: str, names: list[str], values: np.ndarray) -> None:
    """Write a square matrix as ``form``: csv, or json {"variables": [...], "matrix": [[...]]}."""
    if form == "json":
        to_json(write, {"variables": names, "matrix": values})
    else:
        matrix_csv(write, names, values)


def matrix_csv(write, names: list[str], matrix: np.ndarray) -> None:
    """Square matrix as CSV with a variable-name header row and column; a NaN cell is empty."""
    names = csv_fields(names)
    n = len(names)
    cells = [c if c != "nan" else "" for c in fmt_all(matrix)]
    table_csv(write, ["", *names], [names, *(cells[j::n] for j in range(n))])


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
    """One component's expansion as ``interpretations`` writes it in JSON: its number,
    eigenvalue and residual norm, and each term's coefficient, kind, variable, categories, name."""
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
