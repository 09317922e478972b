"""Independent numpy oracle for rspca's outputs.

Nothing here imports rspca.  The expected values come straight from the
generated labels and weights through three identities of the method:

- the Gini variance of a variable is (1 - sum p^2) / 2;
- the covariance of a pair is half the nuclear norm of P_ij - p_i p_j^T;
- the RS-PCA spectrum is the nonzero spectrum of M / 2, where M is the
  block matrix of all P_ij - p_i p_j^T (P_ii = diag(p_i)).  A unit
  eigenvector of M / 2 carries the same per-variable energy as the model's
  eigenvector, so variable importance follows too.

Each ``check_*`` reads one artifact and raises ``CheckFailed`` naming what
disagrees.
"""

import re

import numpy as np

REL = 1e-9  # values are printed with 12 significant digits


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want) + 1e-15


class Oracle:
    """Expected values for one input, computed once per run."""

    def __init__(self, table, n_components: int = 2):
        self.names = list(table.names)
        self.weights = np.asarray(table.weights, dtype=float)
        self.total = float(self.weights.sum())
        self.n = len(self.weights)
        self.columns = [np.asarray(col) for col in table.columns]
        self.categories, self.codes, self.p = [], [], []
        for col in self.columns:
            cats, codes = np.unique(col, return_inverse=True)
            self.categories.append([str(c) for c in cats])
            self.codes.append(codes)
            self.p.append(np.bincount(codes, weights=self.weights, minlength=len(cats)) / self.total)
        v = len(self.names)
        self.gini = np.array([(1.0 - p @ p) / 2.0 for p in self.p])
        self.dim = int(sum(len(c) - 1 for c in self.categories))
        offsets = np.cumsum([0] + [len(c) for c in self.categories])
        full = np.zeros((offsets[-1], offsets[-1]))
        self.cov = np.diag(self.gini)
        for i in range(v):
            bi = slice(offsets[i], offsets[i + 1])
            full[bi, bi] = np.diag(self.p[i]) - np.outer(self.p[i], self.p[i])
            for j in range(i + 1, v):
                bj = slice(offsets[j], offsets[j + 1])
                block = self._joint(i, j) - np.outer(self.p[i], self.p[j])
                full[bi, bj] = block
                full[bj, bi] = block.T
                self.cov[i, j] = self.cov[j, i] = 0.5 * np.linalg.svd(block, compute_uv=False).sum()
        evals, evecs = np.linalg.eigh(full / 2.0)
        order = np.argsort(evals)[::-1]
        self.eigenvalues = evals[order][: self.dim]
        lead = evecs[:, order[:n_components]]
        energy = np.array(
            [(lead[offsets[i] : offsets[i + 1]] ** 2).sum(axis=0) for i in range(v)]
        )
        self.importance = energy @ self.eigenvalues[:n_components]
        self.labels = ["-".join(cells) for cells in zip(*self.columns)]

    def _joint(self, i: int, j: int) -> np.ndarray:
        ki, kj = len(self.categories[i]), len(self.categories[j])
        flat = np.bincount(
            self.codes[i] * kj + self.codes[j], weights=self.weights, minlength=ki * kj
        )
        return flat.reshape(ki, kj) / self.total

    def top(self, count: int) -> list:
        return [self.names[i] for i in np.argsort(-self.importance, kind="stable")[:count]]

    # ---- artifact checks -------------------------------------------------

    def _matrix(self, text: str, what: str) -> list:
        lines = text.splitlines()
        _require(lines and lines[0] == "," + ",".join(self.names), f"{what}: header {lines[:1]}")
        rows = [line.split(",") for line in lines[1:]]
        _require([r[0] for r in rows] == self.names, f"{what}: row names")
        return [r[1:] for r in rows]

    def check_cov(self, text: str) -> None:
        for i, row in enumerate(self._matrix(text, "cov")):
            for j, cell in enumerate(row):
                _require(
                    _close(float(cell), self.cov[i, j], REL),
                    f"cov[{self.names[i]},{self.names[j]}] = {cell}, oracle {self.cov[i, j]!r}",
                )

    def check_corr(self, text: str) -> None:
        scale = np.sqrt(self.gini)
        for i, row in enumerate(self._matrix(text, "corr")):
            _require(row[i] == "1", f"corr diagonal of {self.names[i]} is {row[i]!r}")
            for j, cell in enumerate(row):
                want = self.cov[i, j] / (scale[i] * scale[j])
                _require(_close(float(cell), want, REL), f"corr[{i},{j}] = {cell}, oracle {want!r}")

    def _check_spectrum(self, evals, what: str) -> None:
        _require(len(evals) == self.dim, f"{what}: {len(evals)} eigenvalues, dim {self.dim}")
        total = float(self.gini.sum())
        _require(_close(float(np.sum(evals)), total, REL), f"{what}: sum {np.sum(evals)!r} != Gini {total!r}")
        lead = self.eigenvalues[:5]
        _require(
            np.allclose(evals[: len(lead)], lead, rtol=0, atol=REL * lead[0]),
            f"{what}: leading eigenvalues {list(evals[:5])} != oracle {list(lead)}",
        )

    def check_model(self, model: dict) -> None:
        _require([v["name"] for v in model["variables"]] == self.names, "model: variable order")
        _require(
            [sorted(v["categories"]) for v in model["variables"]] == self.categories,
            "model: category sets",
        )
        self._check_spectrum(np.array(model["eigenvalues"]), "model")
        _require(len(model["mean"]) == self.dim, "model: mean length")

    def check_scores(self, text: str, n_components: int) -> None:
        lines = text.splitlines()
        pcs = ",".join(f"pc{m + 1}" for m in range(n_components))
        _require(lines[0] == "instance_id,weight,label," + pcs, f"scores: header {lines[0]!r}")
        _require(len(lines) == self.n + 1, f"scores: {len(lines) - 1} rows, expected {self.n}")
        rows = [line.split(",") for line in lines[1:]]
        _require(all(r[0] == str(a) for a, r in enumerate(rows)), "scores: instance ids")
        _require(
            np.array_equal(np.array([float(r[1]) for r in rows]), self.weights), "scores: weights"
        )
        _require([r[2] for r in rows] == self.labels, "scores: labels")
        values = np.array([[float(c) for c in r[3:]] for r in rows])
        w = self.weights / self.total
        for m in range(n_components):
            lam = self.eigenvalues[m]
            mean = float(w @ values[:, m])
            var = float(w @ values[:, m] ** 2)
            _require(abs(mean) <= 1e-9 * np.sqrt(lam) + 1e-12, f"scores: pc{m + 1} weighted mean {mean!r}")
            _require(_close(var, lam, 1e-8), f"scores: pc{m + 1} weighted variance {var!r} != {lam!r}")

    def check_svg(self, text: str, points: int, what: str) -> None:
        _require(text.lstrip().startswith("<svg") and text.rstrip().endswith("</svg>"), f"{what}: not an SVG")
        _require(text.count("<circle") == points, f"{what}: {text.count('<circle')} points, expected {points}")

    _HEAD = re.compile(r"component (\d+) \(eigenvalue ([^,]+), [0-9.]+% of variance\)$")
    _TERM = re.compile(r"  [+-]\d+\.\d{4} ([dc])\[(.+?)\]\((.+)\)$")

    def check_interpret(self, text: str, n_components: int, first_term: str | None = None) -> None:
        cats = dict(zip(self.names, self.categories))
        blocks = re.split(r"\n(?=component )", text.rstrip("\n"))
        _require(len(blocks) == n_components, f"interpret: {len(blocks)} components")
        for m, block in enumerate(blocks):
            lines = block.splitlines()
            head = self._HEAD.match(lines[0])
            _require(head is not None and int(head.group(1)) == m + 1, f"interpret: header {lines[0]!r}")
            lam = float(head.group(2))
            _require(
                abs(lam - self.eigenvalues[m]) <= REL * self.eigenvalues[0],
                f"interpret: component {m + 1} eigenvalue {lam!r}, oracle {self.eigenvalues[m]!r}",
            )
            _require(lines[-1].startswith("  residual norm "), "interpret: residual line")
            terms = lines[1:-1]
            _require(terms, f"interpret: component {m + 1} has no terms")
            for line in terms:
                term = self._TERM.match(line)
                _require(term is not None and term.group(2) in cats, f"interpret: term {line!r}")
                ends = term.group(3).split("->") if term.group(1) == "d" else [term.group(3)]
                _require(all(e in cats[term.group(2)] for e in ends), f"interpret: term {line!r}")
            if m == 0 and first_term is not None:
                _require(terms[0].split()[1] == first_term, f"interpret: first term {terms[0]!r}")

    def check_select(self, text: str, expected: list) -> None:
        lines = text.splitlines()
        _require(lines[0] == "rank,variable,importance,selected", f"select: header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        _require(sorted(r[1] for r in rows) == sorted(self.names), "select: variables")
        chosen = [r[1] for r in rows if r[3] == "1"]
        _require(sorted(chosen) == sorted(expected), f"select: chose {chosen}, expected {expected}")
        index = {name: i for i, name in enumerate(self.names)}
        peak = float(self.importance.max())
        for r in rows:
            want = self.importance[index[r[1]]]
            _require(abs(float(r[2]) - want) <= 1e-6 * peak, f"select: {r[1]} importance {r[2]}, oracle {want!r}")

    def check_scree(self, text: str) -> None:
        lines = text.splitlines()
        _require(lines[0] == "mode,eigenvalue", "scree: header")
        rows = [line.split(",") for line in lines[1:]]
        _require([r[0] for r in rows] == [str(m + 1) for m in range(len(rows))], "scree: modes")
        self._check_spectrum(np.array([float(r[1]) for r in rows]), "scree")
