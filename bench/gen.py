"""Seeded inputs for the rspca benchmark.

The model is the one rspca's own generator uses (one latent class per row;
planted variables report a fixed permutation of it, replaced by a uniform
draw with probability ``noise``; the other variables are uniform noise), but
the code lives here so that a change to ``rspca.synth`` cannot change what
the benchmark feeds the program.  The program only ever sees the CSV bytes.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

# Fisher's Caithness eye x hair table, the bytes the test suite ships.
FISHER_CSV = (
    "eye\\hair,fair,red,medium,dark,black\n"
    "blue,326,38,241,110,3\n"
    "light,688,116,584,188,4\n"
    "medium,343,84,909,412,26\n"
    "dark,98,48,403,681,85\n"
)
MISSING_LABEL = "(missing)"


@dataclass(frozen=True)
class Spec:
    """Shape of one generated instance-level CSV."""

    rows: int
    n_vars: int
    n_planted: int
    classes: int
    categories: int
    noise: float = 0.1
    weighted: bool = False
    missing_rate: float = 0.0


@dataclass
class Table:
    """A generated input plus what the oracle needs to know about it.

    ``columns`` hold the labels exactly as the program will read them
    (empty cells already replaced by the missing label); ``weights`` are
    the values the CSV text parses back to.
    """

    names: list
    columns: list
    weights: np.ndarray
    planted: list
    text: str


def planted_positions(n_vars: int, n_planted: int) -> list:
    """Planted variables spread evenly across the column order."""
    return [j for j in range(n_vars) if (j + 1) * n_planted // n_vars > j * n_planted // n_vars]


def generate(spec: Spec, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    n = spec.rows
    latent = rng.integers(0, spec.classes, size=n)
    planted = set(planted_positions(spec.n_vars, spec.n_planted))
    names, codes = [], []
    n_planted = n_noise = 0
    for j in range(spec.n_vars):
        if j in planted:
            n_planted += 1
            names.append(f"planted{n_planted}")
            c = rng.permutation(spec.classes)[latent]
            flips = rng.random(n) < spec.noise
            c[flips] = rng.integers(0, spec.classes, size=int(flips.sum()))
        else:
            n_noise += 1
            names.append(f"noise{n_noise}")
            c = rng.integers(0, spec.categories, size=n)
        codes.append(c)
    cells = []
    for c in codes:
        col = np.array([f"c{v}" for v in range(int(c.max()) + 1)], dtype=object)[c]
        if spec.missing_rate > 0:
            col[rng.random(n) < spec.missing_rate] = ""
        cells.append(col)
    header = list(names)
    if spec.weighted:
        # quarters in (0, 2]: exact in binary, so the text parses back bit for bit
        weights = rng.integers(1, 9, size=n) / 4.0
        cells.append(np.array([f"{w:g}" for w in weights], dtype=object))
        header.append("w")
    else:
        weights = np.ones(n)
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in zip(*cells))
    columns = [np.where(col == "", MISSING_LABEL, col) for col in cells[: spec.n_vars]]
    return Table(
        names=names,
        columns=columns,
        weights=weights,
        planted=[names[j] for j in sorted(planted)],
        text="\n".join(lines) + "\n",
    )


def fisher() -> Table:
    """Fisher's table as the weighted two-variable dataset it stands for."""
    rows = [line.split(",") for line in FISHER_CSV.splitlines()]
    hair = rows[0][1:]
    eye_col, hair_col, weights = [], [], []
    for row in rows[1:]:
        for label, cell in zip(hair, row[1:]):
            eye_col.append(row[0])
            hair_col.append(label)
            weights.append(float(cell))
    return Table(
        names=["eye", "hair"],
        columns=[np.array(eye_col, dtype=object), np.array(hair_col, dtype=object)],
        weights=np.array(weights),
        planted=[],
        text=FISHER_CSV,
    )


def describe(table: Table) -> dict:
    """Rows, vars, dim, bytes and SHA-256 of one input, for the result record."""
    data = table.text.encode("utf-8")
    return {
        "rows": len(table.weights),
        "vars": len(table.names),
        "dim": int(sum(len(set(col)) - 1 for col in table.columns)),
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }
