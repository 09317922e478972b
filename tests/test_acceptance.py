"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on the terminal.
"""

import time

import numpy as np
import pytest

from rspca import (
    correlation_matrix,
    covariance_matrix,
    covariance_svd,
    fit,
    interpret,
    load_contingency,
    scores,
    variable_importance,
)
from rspca.cli import main
from rspca.synth import SyntheticSpec, generate
from .conftest import (
    FISHER_CSV,
    atom_vector,
    cross_double_sum,
    gini_double_sum,
    gini_variance,
    haar_orthogonal,
    half_centred_table,
    permute_table_columns,
    procrustes_correlation,
    random_dataset,
    to_csv_text,
)
from .newton import covariance_newton


def check(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} ({name}): {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_fisher_variances(fisher):
    # the closed form assigns 0.36409 to the row variable (eye) and 0.34985
    # to the column variable (hair); reference sources disagree on which
    # label carries which value, so assert the unordered pair
    start = time.perf_counter()
    values = sorted([gini_variance(fisher, "eye"), gini_variance(fisher, "hair")])
    elapsed = time.perf_counter() - start
    expected = sorted([0.36409, 0.34985])
    ok = all(abs(v - e) <= 5e-5 for v, e in zip(values, expected)) and elapsed < 1.0
    check(1, "fisher variances", ok,
          f"got {values[0]:.5f}/{values[1]:.5f} in {elapsed:.3f}s")


def test_criterion_02_fisher_covariance(fisher):
    cross = half_centred_table(fisher, "eye", "hair")
    sigma = covariance_matrix(fisher)[0, 1]
    newton = covariance_newton(cross).sigma
    ok = abs(sigma - 0.081253) <= 5e-5 and abs(sigma - newton) <= 1e-8
    check(2, "fisher covariance", ok,
          f"svd {sigma:.6f}, newton delta {abs(sigma - newton):.2e}")


def test_criterion_03_fisher_correlation(fisher):
    rho, _ = correlation_matrix(fisher)
    ok = abs(rho[0, 1] - 0.2277) <= 5e-4
    check(3, "fisher correlation", ok, f"rho = {rho[0, 1]:.5f}")


def test_criterion_04_component_interpretation(fisher):
    model = fit(fisher)
    eps = 0.05
    expectations = {
        1: [("eye", {"medium", "light"}, 0.63), ("hair", {"medium", "fair"}, 0.76)],
        2: [("eye", {"dark", "light"}, 0.64), ("hair", {"dark", "medium"}, 0.68)],
    }
    ok = True
    notes = []
    for component, expected in expectations.items():
        result = interpret(model, component, max_terms=4, eps=eps)
        top_two = result.terms[:2]
        for variable, labels, magnitude in expected:
            found = [
                (coef, atom) for coef, atom in top_two
                if atom.kind == "edge" and atom.variable == variable
            ]
            if not found:
                ok = False
                notes.append(f"pc{component}: no dominant {variable} edge")
                continue
            coef, atom = found[0]
            cats = fisher.variable(variable).categories
            got_labels = {cats[atom.from_category], cats[atom.to_category]}
            if got_labels != labels:
                ok = False
                notes.append(f"pc{component}: {variable} edge {got_labels} != {labels}")
            if abs(abs(coef) - magnitude) > 0.05:
                ok = False
                notes.append(f"pc{component}: {variable} |coef| {abs(coef):.4f} vs {magnitude}")
            notes.append(f"pc{component} {variable} {abs(coef):.4f}")
        # per-block reconstruction residual within the configured threshold
        layout = model.layout
        vec = model.eigenvectors[:, component - 1]
        for i, name in enumerate(layout.names):
            block = vec[layout.block(i)]
            recon = np.zeros_like(block)
            for coef, atom in result.terms:
                if atom.variable == name:
                    recon += coef * atom_vector(atom, fisher.variable(name).k)
            if np.linalg.norm(block - recon) > eps * np.linalg.norm(block) + 1e-12:
                ok = False
                notes.append(f"pc{component}: {name} block residual above eps")
    check(4, "component interpretation", ok, "; ".join(notes))


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(2718)
    worst_gap = 0.0
    worst_excess = -np.inf
    for trial in range(100):
        n_rows = trial % 6 + 1
        n_cols = (trial // 6) % 6 + 1
        a = rng.normal(size=(n_rows, n_cols))
        cross = a
        sigma = covariance_svd(cross)
        newton = covariance_newton(cross).sigma
        worst_gap = max(worst_gap, abs(sigma - newton))
        n = max(n_rows, n_cols)
        padded = np.zeros((n, n))
        padded[:n_rows, :n_cols] = a
        rotations = haar_orthogonal(rng, n, 1000)
        traces = np.einsum("ij,kij->k", padded, rotations)
        worst_excess = max(worst_excess, float(traces.max() - sigma))
    ok = worst_gap <= 1e-8 and worst_excess <= 1e-9
    check(5, "oracle equivalence", ok,
          f"max newton gap {worst_gap:.2e}, max sampled excess {worst_excess:.2e}")


def test_criterion_06_gini_equivalence():
    worst = 0.0
    for seed in range(50):
        ds = random_dataset(np.random.default_rng(10_000 + seed))
        for name in ds.variable_names():
            closed = gini_variance(ds, name)
            brute = gini_double_sum(ds, name)
            tr = float(np.trace(cross_double_sum(ds, name, name)))
            worst = max(worst, abs(closed - brute), abs(closed - tr), abs(brute - tr))
    ok = worst <= 1e-10
    check(6, "gini equivalence", ok, f"max pairwise gap {worst:.2e}")


def test_criterion_07_conservation(fisher):
    datasets = [fisher]
    datasets += [random_dataset(np.random.default_rng(20_000 + s), n_vars=3) for s in range(5)]
    datasets.append(generate(SyntheticSpec(rows=150, seed=3))[0])
    worst_trace = 0.0
    worst_score = 0.0
    for ds in datasets:
        if sum(v.k - 1 for v in ds.variables) < 1:
            continue
        model = fit(ds)
        total = sum(gini_variance(ds, n) for n in ds.variable_names())
        worst_trace = max(worst_trace, abs(model.eigenvalues.sum() - total))
        values = scores(model, ds, model.n_components)
        w = ds.weights
        for m in range(model.n_components):
            var = float(w @ values[:, m] ** 2) / w.sum()
            worst_score = max(worst_score, abs(var - model.eigenvalues[m]))
    ok = worst_trace <= 1e-8 and worst_score <= 1e-8
    check(7, "conservation", ok,
          f"max trace gap {worst_trace:.2e}, max score-variance gap {worst_score:.2e}")


def test_criterion_08_invariance(tmp_path):
    base = tmp_path / "base.csv"
    base.write_text(FISHER_CSV, encoding="utf-8")
    ds1 = load_contingency(base, "eye", "hair")
    permuted = tmp_path / "permuted.csv"
    permuted.write_text(permute_table_columns(FISHER_CSV, [2, 4, 1, 0, 3]), encoding="utf-8")
    ds2 = load_contingency(permuted, "eye", "hair")

    cov_gap = np.max(np.abs(np.sort(np.diag(covariance_matrix(ds1)))
                            - np.sort(np.diag(covariance_matrix(ds2)))))
    sigma_gap = abs(covariance_matrix(ds1)[0, 1] - covariance_matrix(ds2)[0, 1])
    rho_gap = abs(correlation_matrix(ds1)[0][0, 1] - correlation_matrix(ds2)[0][0, 1])
    m1, m2 = fit(ds1), fit(ds2)
    eig_gap = float(np.max(np.abs(m1.eigenvalues - m2.eigenvalues)))

    labels2 = {label: j for j, label in enumerate(ds2.instance_labels())}
    order = [labels2[label] for label in ds1.instance_labels()]
    s1 = scores(m1, ds1, 7)
    s2 = scores(m2, ds2, 7)[order]
    d1 = np.linalg.norm(s1[:, None, :] - s1[None, :, :], axis=2)
    d2 = np.linalg.norm(s2[:, None, :] - s2[None, :, :], axis=2)
    dist_gap = float(np.max(np.abs(d1 - d2)))

    # independent product-form table
    lines = ["," + ",".join(f"b{j}" for j in range(4))]
    row_w, col_w = [3, 5, 2], [1, 4, 2, 3]
    for i, r in enumerate(row_w):
        lines.append(f"a{i}," + ",".join(str(r * c) for c in col_w))
    prod = tmp_path / "product.csv"
    prod.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds_ind = load_contingency(prod, "r", "c")
    indep_sigma = covariance_matrix(ds_ind)[0, 1]

    ok = (max(cov_gap, sigma_gap, rho_gap, eig_gap, dist_gap) <= 1e-9
          and indep_sigma <= 1e-10)
    check(8, "invariance", ok,
          f"relabel gaps <= {max(cov_gap, sigma_gap, rho_gap, eig_gap, dist_gap):.2e}, "
          f"independent sigma {indep_sigma:.2e}")


def test_criterion_09_variable_selection(tmp_path):
    start = time.perf_counter()
    spec = SyntheticSpec(rows=400, n_vars=10, n_planted=3, seed=0)
    ds, planted = generate(spec)

    data = tmp_path / "synth.csv"
    data.write_text(to_csv_text(ds), encoding="utf-8")
    out = tmp_path / "selected.json"
    code = main(["select", str(data), "--top", "3", "--format", "json", "--out", str(out)])
    import json

    selected = json.loads(out.read_text())["selected"]
    set_ok = code == 0 and sorted(selected) == sorted(planted)

    full = fit(ds)
    sub = fit(ds.select(selected))
    full_scores = scores(full, ds, 2)
    sub_scores = scores(sub, ds.select(selected), 2)
    r = procrustes_correlation(sub_scores, full_scores)
    elapsed = time.perf_counter() - start
    ok = set_ok and abs(r) >= 0.9 and elapsed < 10.0
    check(9, "variable selection", ok,
          f"selected {sorted(selected)}, |r| = {abs(r):.4f}, {elapsed:.2f}s")


def test_criterion_10_cli_determinism(tmp_path):
    fisher_file = tmp_path / "fisher.csv"
    fisher_file.write_text(FISHER_CSV, encoding="utf-8")
    synth_file = tmp_path / "synth.csv"
    assert main(["synth", "--rows", "80", "--seed", "6", "--out", str(synth_file)]) == 0

    flags = ["--contingency", "--row-name", "eye", "--col-name", "hair"]
    commands = [
        (["cov", str(fisher_file), *flags], [""]),
        (["corr", str(fisher_file), *flags, "--format", "json"], [""]),
        (["pca", str(fisher_file), *flags, "--components", "3"], [".model.json", ".scores.csv"]),
        (["interpret", str(fisher_file), *flags], [""]),
        (["scree", str(fisher_file), *flags], [""]),
        (["select", str(synth_file), "--top", "3"], [""]),
        (["synth", "--rows", "40", "--seed", "11"], [""]),
    ]
    ok = True
    for i, (argv, suffixes) in enumerate(commands):
        base_a = tmp_path / f"a{i}"
        base_b = tmp_path / f"b{i}"
        svg_args_a, svg_args_b = [], []
        if argv[0] in ("pca", "scree"):
            svg_args_a = ["--svg", str(tmp_path / f"a{i}.svg")]
            svg_args_b = ["--svg", str(tmp_path / f"b{i}.svg")]
        assert main([*argv, "--out", str(base_a), *svg_args_a]) == 0
        assert main([*argv, "--out", str(base_b), *svg_args_b]) == 0
        for suffix in suffixes:
            if (tmp_path / f"a{i}{suffix}").read_bytes() != (tmp_path / f"b{i}{suffix}").read_bytes():
                ok = False
        if svg_args_a:
            if (tmp_path / f"a{i}.svg").read_bytes() != (tmp_path / f"b{i}.svg").read_bytes():
                ok = False
    check(10, "cli determinism", ok, f"{len(commands)} commands byte-identical")
