"""Per-layer tracing of one rspca command, from outside the package.

Run as ``python bench/tracer.py SPANS_OUT COMMAND WORKLOAD SEED -- ARGV...``
with the checkout's ``src`` on PYTHONPATH.  It wraps the public functions
of each rspca module (every module-level name bound to the function, so
``rspca.cli.fit`` and ``rspca.pca.cross_matrix`` are both caught), runs
``rspca.cli.main(ARGV)`` in this process, keeps one span per call in
memory and writes them to SPANS_OUT as JSON when the command returns.

Per-cell helpers (``emit.fmt``, ``emit.round12``, ``emit._jsonify``,
``emit.to_json``) are deliberately not wrapped: their cost shows up as
their caller's self time.  Names a later version of rspca no longer has
are skipped.
"""

import functools
import json
import resource
import sys
import time

LAYERS = {
    "dataset": ["load_csv", "load_contingency", "joint_table", "frequencies",
                "CategoricalDataset.instance_labels"],
    "covariance": ["build_embeddings", "gini_variance", "cross_matrix", "covariance_svd",
                   "covariance_matrix", "correlation_matrix"],
    "numerics": ["svd", "sym_eig"],
    "simplex": ["build_simplex", "basis_atoms"],
    "pca": ["fit", "scores", "interpret", "scree", "variable_importance"],
    "emit": ["matrix_csv", "matrix_json", "scores_csv", "model_json",
             "interpretation_text", "interpretation_json_obj"],
    "plots": ["scatter_svg", "scree_svg"],
    "cli": ["main"],
}


def _peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _attributes(short: str, args, result) -> dict:
    """Counts taken where the work happens: output bytes, atoms, matrix size."""
    if isinstance(result, str):
        return {"bytes": len(result.encode("utf-8"))}
    if short == "sym_eig":
        return {"dim": int(args[0].shape[0])}
    if short == "basis_atoms":
        return {"atoms": len(result), "atom_bytes": int(sum(a.vector.nbytes for a in result))}
    if short == "interpret":
        return {"terms": len(result.terms)}
    return {}


class Tracer:
    """Holds the span stack and the finished spans of one process."""

    def __init__(self, context: dict):
        self.context = context
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        short = name.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self.stack[-1] if self.stack else None,
                    "rss_before_kb": _peak_kb()}
            self.spans.append(span)
            self.stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_after_kb"] = _peak_kb()
                self.stack.pop()
            span.update(_attributes(short, args, result))
            return result

        return traced

    def install(self, package: str = "rspca") -> int:
        """Wrap every listed function wherever a module of ``package`` binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        installed = 0
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"{package}.{layer}")
            if home is None:
                continue
            for dotted in names:
                owner, attr = home, dotted
                if "." in dotted:
                    cls, attr = dotted.split(".")
                    owner = getattr(home, cls, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None or not callable(original):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", original)
                if owner is not home:
                    setattr(owner, attr, wrapper)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                installed += 1
        return installed

    def records(self) -> list[dict]:
        return [dict(span, **self.context) for span in self.spans]


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = _union(
            [(max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children.get(s["id"], [])]
        )
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _union(intervals) -> float:
    """Total length covered by a set of [start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def busy(spans: list[dict]) -> float:
    """Time covered by any of the spans (nested calls of one name count once)."""
    return _union([(s["start"], s["end"]) for s in spans])


# name -> unit of every per-layer metric, in report order
LAYER_METRICS = {
    "dataset.load_csv_s": "s",
    "dataset.load_contingency_s": "s",
    "dataset.load_rss_rise_mb": "MB",
    "dataset.joint_table_s": "s",
    "dataset.joint_table_calls": "count",
    "covariance.cross_matrix_s": "s",
    "covariance.cross_matrix_calls": "count",
    "covariance.covariance_matrix_self_s": "s",
    "covariance.covariance_svd_s": "s",
    "numerics.svd_s": "s",
    "numerics.svd_calls": "count",
    "covariance.gini_variance_s": "s",
    "numerics.sym_eig_s": "s",
    "numerics.sym_eig_dim": "count",
    "pca.fit_s": "s",
    "pca.fit_self_s": "s",
    "pca.fit_rss_rise_mb": "MB",
    "pca.scores_s": "s",
    "pca.scores_self_s": "s",
    "pca.scores_dense_bytes": "bytes",
    "pca.scores_rss_rise_mb": "MB",
    "dataset.instance_labels_s": "s",
    "emit.scores_csv_s": "s",
    "plots.scatter_svg_s": "s",
    "plots.bytes_out": "bytes",
    "emit.model_json_s": "s",
    "emit.bytes_out": "bytes",
    "pca.interpret_s": "s",
    "pca.interpret_self_s": "s",
    "simplex.basis_atoms_s": "s",
    "simplex.atoms_built": "count",
    "simplex.atom_bytes": "bytes",
    "pca.interpret_atoms_used_ratio": "ratio",
    "pca.interpret_rss_rise_mb": "MB",
    "simplex.build_simplex_calls": "count",
    "simplex.build_simplex_s": "s",
    "dataset.frequencies_calls": "count",
    "pca.variable_importance_s": "s",
    "emit.matrix_csv_s": "s",
    "emit.interpretation_text_s": "s",
    "cli.self_s": "s",
}


def layer_metrics(spans: list[dict], rows: int, dim: int) -> dict:
    """Totals over one traced pass (all commands) for every LAYER_METRICS name.

    ``spans`` must have ids unique across the pass.  ``rows`` and ``dim``
    describe the input, for the dense N x dim score matrix the current
    ``scores`` builds (a computed size, not a measurement).
    """
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    names = {s["id"]: s["name"] for s in spans}
    own = self_times(spans)

    def calls(name):
        return by_name.get(name, [])

    def total(name, key):
        return sum(s.get(key, 0) for s in calls(name))

    def self_s(name):
        return sum(own[s["id"]] for s in calls(name))

    def rise_mb(*names_):
        return sum((s["rss_after_kb"] - s["rss_before_kb"]) / 1024 for n in names_ for s in calls(n))

    def bytes_out(layer):
        # outermost calls only, so a string passed up through a second wrapper counts once
        return sum(s.get("bytes", 0) for s in spans if s["name"].startswith(layer + ".")
                   and not names.get(s["parent"], "").startswith(layer + "."))

    atoms = total("simplex.basis_atoms", "atoms")
    out = {
        "dataset.load_rss_rise_mb": rise_mb("dataset.load_csv", "dataset.load_contingency"),
        "dataset.joint_table_calls": len(calls("dataset.joint_table")),
        "covariance.cross_matrix_calls": len(calls("covariance.cross_matrix")),
        "covariance.covariance_matrix_self_s": self_s("covariance.covariance_matrix"),
        "numerics.svd_calls": len(calls("numerics.svd")),
        "numerics.sym_eig_dim": max([s.get("dim", 0) for s in calls("numerics.sym_eig")], default=0),
        "pca.fit_self_s": self_s("pca.fit"),
        "pca.fit_rss_rise_mb": rise_mb("pca.fit"),
        "pca.scores_self_s": self_s("pca.scores"),
        "pca.scores_dense_bytes": rows * dim * 8 * len(calls("pca.scores")),
        "pca.scores_rss_rise_mb": rise_mb("pca.scores"),
        "plots.bytes_out": bytes_out("plots"),
        "emit.bytes_out": bytes_out("emit"),
        "pca.interpret_self_s": self_s("pca.interpret"),
        "simplex.atoms_built": atoms,
        "simplex.atom_bytes": total("simplex.basis_atoms", "atom_bytes"),
        # with no atoms built there is nothing unused to report
        "pca.interpret_atoms_used_ratio": total("pca.interpret", "terms") / atoms if atoms else 1.0,
        "pca.interpret_rss_rise_mb": rise_mb("pca.interpret"),
        "simplex.build_simplex_calls": len(calls("simplex.build_simplex")),
        "dataset.frequencies_calls": len(calls("dataset.frequencies")),
        "cli.self_s": self_s("cli.main"),
    }
    # every other metric is the busy time of the function it names
    for metric in LAYER_METRICS:
        if metric not in out:
            out[metric] = busy(calls(metric.removesuffix("_s")))
    return {metric: out[metric] for metric in LAYER_METRICS}


def main(argv: list[str]) -> int:
    spans_out, command, workload, seed, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT COMMAND WORKLOAD SEED -- ARGV...")
    import rspca.cli

    tracer = Tracer({"command": command, "workload": workload, "seed": int(seed)})
    tracer.install()
    try:
        code = rspca.cli.main(cli_argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.records(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
