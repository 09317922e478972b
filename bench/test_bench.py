"""Self-tests of the benchmark: generator, oracle, checks and span arithmetic.

Run with ``PYTHONPATH=src python3 -m pytest -q bench`` from the repository
root.  Only these tests call rspca directly, to show the oracle agrees with it.
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import gen
import harness
import oracle
import tracer

ROOT = Path(__file__).resolve().parent.parent
SMALL = gen.Spec(rows=300, n_vars=5, n_planted=2, classes=3, categories=4,
                 weighted=True, missing_rate=0.05)


def test_generator_is_byte_stable_and_seeded():
    a, b, c = gen.generate(SMALL, 7), gen.generate(SMALL, 7), gen.generate(SMALL, 8)
    assert a.text == b.text
    assert gen.describe(a) == gen.describe(b)
    assert a.text != c.text
    assert gen.describe(a)["sha256"] != gen.describe(c)["sha256"]
    assert a.planted == ["planted1", "planted2"]
    assert "(missing)" in set(np.concatenate(a.columns))


def test_oracle_matches_published_fisher_values():
    o = oracle.Oracle(gen.fisher())
    want = harness.FISHER_PUBLISHED
    assert o.cov[0, 0] == pytest.approx(want["gini_eye"], rel=1e-11)
    assert o.cov[1, 1] == pytest.approx(want["gini_hair"], rel=1e-11)
    assert o.cov[0, 1] == pytest.approx(want["sigma"], rel=1e-11)
    assert o.cov[0, 1] / np.sqrt(o.cov[0, 0] * o.cov[1, 1]) == pytest.approx(want["rho"], rel=1e-11)
    assert o.eigenvalues[0] == pytest.approx(want["lambda1"], rel=1e-11)
    assert o.dim == 7


def _rspca_outputs(tmp_path: Path, table, flags: list) -> dict:
    from rspca.cli import main

    inp = tmp_path / "in.csv"
    inp.write_text(table.text, encoding="utf-8", newline="")
    top = str(len(table.planted) or 1)
    runs = {
        "cov": ["cov", "--out", str(tmp_path / "cov.csv")],
        "corr": ["corr", "--out", str(tmp_path / "corr.csv")],
        "pca": ["pca", "--out", str(tmp_path / "run"), "--svg", str(tmp_path / "kl.svg")],
        "interpret": ["interpret", "--components", "2", "--out", str(tmp_path / "interp.txt")],
        "select": ["select", "--top", top, "--out", str(tmp_path / "select.csv")],
        "scree": ["scree", "--out", str(tmp_path / "scree.csv")],
    }
    for command, argv in runs.items():
        assert main([argv[0], str(inp), *flags, *argv[1:]]) == 0, command
    names = ("cov.csv", "corr.csv", "run.model.json", "run.scores.csv", "kl.svg", "interp.txt",
             "select.csv", "scree.csv")
    return {name: (tmp_path / name).read_text(encoding="utf-8") for name in names}


@pytest.mark.parametrize("name", ["fisher", "small"])
def test_oracle_accepts_rspca_outputs(tmp_path, name):
    if name == "fisher":
        table, flags = gen.fisher(), harness.WORKLOADS["fisher"]["flags"]
    else:
        table, flags = gen.generate(SMALL, 3), ["--weights", "w"]
    out = _rspca_outputs(tmp_path, table, flags)
    o = oracle.Oracle(table)
    o.check_cov(out["cov.csv"])
    o.check_corr(out["corr.csv"])
    o.check_model(json.loads(out["run.model.json"]))
    o.check_scores(out["run.scores.csv"], 2)
    o.check_svg(out["kl.svg"], o.n, "KL-plot")
    o.check_interpret(out["interp.txt"], 2, "d[hair](medium->fair)" if name == "fisher" else None)
    o.check_select(out["select.csv"], table.planted or o.top(1))
    o.check_scree(out["scree.csv"])


def test_oracle_agrees_with_rspca_library(tmp_path):
    import rspca

    table = gen.generate(SMALL, 5)
    path = tmp_path / "in.csv"
    path.write_text(table.text, encoding="utf-8")
    ds = rspca.load_csv(path, weight_column="w")
    o = oracle.Oracle(table)
    np.testing.assert_allclose(rspca.covariance_matrix(ds), o.cov, rtol=1e-12, atol=1e-15)
    model = rspca.fit(ds)
    np.testing.assert_allclose(model.eigenvalues, o.eigenvalues, rtol=0, atol=1e-13)
    got = dict(rspca.variable_importance(model, 2))
    np.testing.assert_allclose([got[n] for n in o.names], o.importance, rtol=1e-9)


def test_checks_reject_wrong_outputs(tmp_path):
    table = gen.generate(SMALL, 3)
    out = _rspca_outputs(tmp_path, table, ["--weights", "w"])
    o = oracle.Oracle(table)
    lines = out["cov.csv"].splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
    with pytest.raises(oracle.CheckFailed):
        o.check_cov("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    with pytest.raises(oracle.CheckFailed):
        o.check_select(out["select.csv"], ["noise1", "noise2"])
    rows = out["run.scores.csv"].splitlines()
    with pytest.raises(oracle.CheckFailed):
        o.check_scores("\n".join(rows[:-1]) + "\n", 2)


def test_self_time_subtracts_covered_child_time():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "start": 2.0, "end": 4.0},  # overlaps its sibling
        {"id": 3, "parent": 0, "start": 9.0, "end": 12.0},  # runs past its parent
        {"id": 4, "parent": 1, "start": 1.5, "end": 2.5},
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({0: 10 - 3 - 1, 1: 2 - 1, 2: 2, 3: 3, 4: 1})
    assert tracer.busy(spans[1:3]) == pytest.approx(3.0)


def test_tracer_wraps_every_binding_and_nests_spans():
    pkg = "benchfake"
    numerics = types.ModuleType(f"{pkg}.numerics")
    pca = types.ModuleType(f"{pkg}.pca")
    cli = types.ModuleType(f"{pkg}.cli")
    numerics.sym_eig = lambda m: np.linalg.eigh(m)
    pca.sym_eig = numerics.sym_eig  # as ``from .numerics import sym_eig`` binds it

    def fit(m):
        return pca.sym_eig(m)

    pca.fit = fit
    cli.fit = fit

    def main(argv):
        cli.fit(np.eye(3))
        cli.fit(np.eye(4))
        return 0

    cli.main = main
    modules = {m.__name__: m for m in (numerics, pca, cli)}
    sys.modules.update(modules)
    try:
        t = tracer.Tracer({"command": "x", "workload": "w", "seed": 1})
        assert t.install(pkg) == 3
        assert cli.fit is pca.fit and pca.sym_eig is numerics.sym_eig
        assert cli.main([]) == 0
    finally:
        for name in modules:
            del sys.modules[name]
    spans = t.records()
    assert [s["name"] for s in spans] == ["cli.main", "pca.fit", "numerics.sym_eig",
                                          "pca.fit", "numerics.sym_eig"]
    assert [s["parent"] for s in spans] == [None, 0, 1, 0, 3]
    assert spans[2]["dim"] == 3 and spans[4]["dim"] == 4
    assert all(s["seed"] == 1 and s["command"] == "x" for s in spans)
    own = tracer.self_times(spans)
    fit_span, eig_span = spans[1], spans[2]
    assert own[1] == pytest.approx((fit_span["end"] - fit_span["start"]) - (eig_span["end"] - eig_span["start"]))
    metrics = tracer.layer_metrics(spans, rows=10, dim=5)
    assert list(metrics) == list(tracer.LAYER_METRICS)
    assert metrics["numerics.sym_eig_dim"] == 4
    assert metrics["pca.fit_s"] == pytest.approx(sum(s["end"] - s["start"] for s in spans if s["name"] == "pca.fit"))


def test_summary_reports_percentile_only_with_ten_samples_beyond():
    assert set(harness.summarize(list(range(39)))) == {"median", "n"}
    s = harness.summarize(list(range(100)))
    assert s["median"] == 49.5 and s["n"] == 100 and s["p90"] == 89


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
