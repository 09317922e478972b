"""The join-based writers the streamed emitters replaced, kept as their reference.

Each builds its whole artifact as one string, as the package did before
its emitters wrote pieces into the output; tests compare the streamed
bytes against these.
"""

import json
from xml.sax.saxutils import escape

import numpy as np

from rspca import build_simplex, centred, emit, pair_moments
from rspca.pca import make_layout
from rspca.emit import HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, WIDTH


def instance_labels(dataset, separator="-"):
    columns = [np.array(v.categories, dtype=object)[v.codes].tolist() for v in dataset.variables]
    return list(map(separator.join, zip(*columns)))


def _json_number(x):
    return json.dumps(float(emit.fmt(x)))


def _json_pieces(obj, depth, out):
    if isinstance(obj, float):
        out.append(_json_number(obj))
        return
    if not isinstance(obj, (dict, list, tuple, np.ndarray)):
        out.append(json.dumps(obj))
        return
    opening, closing = ("{", "}") if isinstance(obj, dict) else ("[", "]")
    if len(obj) == 0:
        out.append(opening + closing)
        return
    inner = "\n" + "  " * (depth + 1)
    sep = "," + inner
    out.append(opening + inner)
    if isinstance(obj, np.ndarray) and obj.ndim == 1:
        out.append(sep.join(map(_json_number, obj.tolist())))
    elif isinstance(obj, dict):
        for n, (key, item) in enumerate(obj.items()):
            out.append((sep if n else "") + json.dumps(key) + ": ")
            _json_pieces(item, depth + 1, out)
    else:
        for n, item in enumerate(obj):
            if n:
                out.append(sep)
            _json_pieces(item, depth + 1, out)
    out.append("\n" + "  " * depth + closing)


def to_json(obj):
    out = []
    _json_pieces(obj, 0, out)
    out.append("\n")
    return "".join(out)


def table_csv(header, columns):
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


def scores_csv(weights, labels, values):
    header = ["instance_id", "weight", "label", *(f"pc{m + 1}" for m in range(values.shape[1]))]
    columns = [
        map(str, range(len(weights))),
        emit.fmt_all(weights),
        emit.csv_fields(labels),
        *(emit.fmt_all(column) for column in values.T),
    ]
    return table_csv(header, columns)


def model_json(model):
    layout = model.layout
    return to_json(
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


def to_csv_text(dataset):
    lines = [",".join(dataset.variable_names()), *instance_labels(dataset, ",")]
    return "\n".join(lines) + "\n"


def _axis_range(values):
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo, hi, count=5):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


class _Canvas:
    def __init__(self, title):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
        ]

    def add(self, fragment):
        self.parts.append(fragment)

    def finish(self):
        self.parts.append("</svg>")
        return "\n".join(self.parts) + "\n"


def _frame(canvas, x_range, y_range, x_label, y_label):
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP

    def to_px(x, y):
        px = x0 + (x - x_range[0]) / (x_range[1] - x_range[0]) * (x1 - x0)
        py = y0 + (y - y_range[0]) / (y_range[1] - y_range[0]) * (y1 - y0)
        return px, py

    canvas.add(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        f'fill="none" stroke="black"/>'
    )
    for tx in _ticks(*x_range):
        px, _ = to_px(tx, y_range[0])
        canvas.add(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="black"/>')
        canvas.add(
            f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{tx:.3g}</text>'
        )
    for ty in _ticks(*y_range):
        _, py = to_px(x_range[0], ty)
        canvas.add(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>')
        canvas.add(
            f'<text x="{x0 - 8}" y="{py + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{ty:.3g}</text>'
        )
    canvas.add(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{escape(x_label)}</text>'
    )
    canvas.add(
        f'<text x="18" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">{escape(y_label)}</text>'
    )
    return to_px


def scatter_svg(xs, ys, labels, x_label, y_label, title):
    canvas = _Canvas(title)
    to_px = _frame(canvas, _axis_range(np.asarray(xs)), _axis_range(np.asarray(ys)), x_label, y_label)
    for x, y, label in zip(xs, ys, labels):
        px, py = to_px(float(x), float(y))
        canvas.add(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="#1f6fb4"/>')
        canvas.add(
            f'<text x="{px + 5:.2f}" y="{py - 4:.2f}" font-family="sans-serif" '
            f'font-size="9">{escape(label)}</text>'
        )
    return canvas.finish()


def scree_svg(eigenvalues, title="eigenvalue vs mode number"):
    ev = np.asarray(eigenvalues, dtype=float)
    modes = np.arange(1, len(ev) + 1, dtype=float)
    canvas = _Canvas(title)
    lo = min(0.0, float(ev.min()))
    to_px = _frame(
        canvas,
        (0.5, len(ev) + 0.5),
        _axis_range(np.array([lo, float(ev.max())])),
        "mode number",
        "eigenvalue",
    )
    points = [to_px(float(m), float(v)) for m, v in zip(modes, ev)]
    path = " ".join(f"{px:.2f},{py:.2f}" for px, py in points)
    canvas.add(f'<polyline points="{path}" fill="none" stroke="#1f6fb4" stroke-width="1.5"/>')
    for px, py in points:
        canvas.add(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="#1f6fb4"/>')
    return canvas.finish()


def sym_eig(m):
    """Symmetric eigendecomposition as the package computed it with whole-matrix copies."""
    m = np.asarray(m, dtype=float)
    scale = 1.0 + np.linalg.norm(m)
    if np.linalg.norm(m - m.T) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    sym = (m + m.T) / 2.0
    evals, evecs = np.linalg.eigh(sym)
    order = np.argsort(evals, kind="stable")[::-1]  # ties in one order on every CPU
    return evals[order], evecs[:, order]


def fit_eigenpairs(dataset):
    """fit's eigenpairs as the package computed them: mirrored blocks, ``sym_eig``, sign flip."""
    layout = make_layout(dataset)
    vertices = [build_simplex(var.k) for var in dataset.variables]
    block_cov = np.zeros((layout.dim, layout.dim))
    for i, j, p in pair_moments(dataset):
        a_ij = vertices[i].T @ centred(np.diag(p) if i == j else p) @ vertices[j]
        block_cov[layout.block(i), layout.block(j)] = a_ij
        block_cov[layout.block(j), layout.block(i)] = a_ij.T
    evals, evecs = sym_eig(block_cov)
    lead = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(evecs.shape[1])]
    return evals, np.where(lead < 0, -evecs, evecs)


def variable_importance(model, n_components):
    """Each variable's importance as the package computed it, block by block per component."""
    layout = model.layout
    importance = np.zeros(len(layout.names))
    for m in range(n_components):
        for i in range(len(layout.names)):
            block = model.eigenvectors[layout.block(i), m]
            importance[i] += model.eigenvalues[m] * float(block @ block)
    return importance
