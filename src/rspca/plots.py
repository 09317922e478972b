"""Minimal deterministic SVG emission for score scatters and scree curves.

Plain string assembly, fixed 800x600 viewport, fixed decimal formatting:
the same data always yields byte-identical markup.  Each plot is written
to the output's ``write`` as it is formatted: the frame line by line,
then the KL-plot's marks one ``CategoricalDataset.label_chunks`` chunk
per piece, handed with the labels its caller built for that chunk, and
the scree plot's (one per mode) as one piece.
"""

from itertools import chain

import numpy as np

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
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
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
