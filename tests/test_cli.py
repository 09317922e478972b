import csv
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import rspca
from rspca import cli, emit, fit
from rspca import dataset as dataset_module
from rspca.cli import main
from rspca.dataset import SyntheticSpec, generate
from .conftest import FISHER_CSV, to_csv_text, written

FISHER_FLAGS = ["--contingency", "--row-name", "eye", "--col-name", "hair"]


@pytest.fixture()
def fisher_file(tmp_path):
    path = tmp_path / "fisher.csv"
    path.write_text(FISHER_CSV, encoding="utf-8")
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_cov_csv(fisher_file, capfd):
    assert run("cov", fisher_file, *FISHER_FLAGS) == 0
    out = capfd.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == ",eye,hair"
    cells = lines[1].split(",")
    assert abs(float(cells[2]) - 0.081253) <= 5e-5


def test_cov_single_column(tmp_path, capfd):
    path = tmp_path / "one.csv"
    path.write_text("A\nx\ny\nx\ny\n", encoding="utf-8")
    assert run("cov", path) == 0
    lines = capfd.readouterr().out.strip().split("\n")
    assert abs(float(lines[1].split(",")[1]) - 0.25) <= 1e-12


def test_cov_malformed_csv_names_line(tmp_path, capfd):
    path = tmp_path / "bad.csv"
    path.write_text("A,B\nx,y\nu,v,EXTRA\n", encoding="utf-8")
    assert run("cov", path) == 2
    assert "line 3" in capfd.readouterr().err


def test_cov_error_names_line_where_record_starts(tmp_path, capfd):
    path = tmp_path / "bad.csv"
    path.write_text('A,B\n"x\ny",u\nz,v,w\n', encoding="utf-8")
    assert run("cov", path) == 2
    assert "line 4: 3 fields, expected 2" in capfd.readouterr().err


def test_contingency_error_names_line_where_record_starts(tmp_path, capfd):
    path = tmp_path / "bad.csv"
    path.write_text(',a\n"u\nv",1\nw,x\n', encoding="utf-8")
    assert run("cov", path, "--contingency") == 2
    assert "line 4: cell 'x' is not a number" in capfd.readouterr().err


UNREADABLE = {
    # 3000 rows put the bad byte well past the text decoder's first 8 KiB block
    "byte": (b"bad,\xff\n", 3002, "byte 0xff is not UTF-8"),
    # the record starts on line 12 and its quoted field runs past the csv module's limit
    "field": (b'"big\nlabel' + b"z" * 140_000 + b'",1\n', 12, "field larger than field limit"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
@pytest.mark.parametrize("contingency", [False, True], ids=["csv", "contingency"])
def test_unreadable_record_is_one_line_naming_its_line(tmp_path, capfd, case, contingency):
    record, line, reason = UNREADABLE[case]
    rows = 3000 if case == "byte" else 10
    head = ",a\n" if contingency else "A,B\n"
    path = tmp_path / "bad.csv"
    path.write_bytes((head + "".join(f"r{i},1\n" for i in range(rows))).encode() + record + b"s,1\n")
    flags = ["--contingency"] if contingency else []
    assert run("cov", path, *flags) == 2
    err = capfd.readouterr().err
    assert err.startswith(f"error: {path}: line {line}: {reason}")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_cov_missing_file(capfd):
    assert run("cov", "/no/such/file.csv") == 2
    assert "error" in capfd.readouterr().err


def test_cov_json_and_csv_agree(fisher_file, tmp_path):
    csv_out = tmp_path / "m.csv"
    json_out = tmp_path / "m.json"
    assert run("cov", fisher_file, *FISHER_FLAGS, "--out", csv_out) == 0
    assert run("cov", fisher_file, *FISHER_FLAGS, "--format", "json", "--out", json_out) == 0
    payload = json.loads(json_out.read_text())
    lines = csv_out.read_text().strip().split("\n")
    for i, line in enumerate(lines[1:]):
        for j, cell in enumerate(line.split(",")[1:]):
            assert float(cell) == payload["matrix"][i][j]


def test_corr_values(fisher_file, capfd):
    assert run("corr", fisher_file, *FISHER_FLAGS) == 0
    lines = capfd.readouterr().out.strip().split("\n")
    row = lines[1].split(",")
    assert float(row[1]) == 1.0
    assert abs(float(row[2]) - 0.2277) <= 5e-4


def test_corr_constant_column_warns(tmp_path, capfd):
    path = tmp_path / "const.csv"
    path.write_text("A,B\nx,k\ny,k\nx,k\n", encoding="utf-8")
    assert run("corr", path, "--format", "json") == 0
    captured = capfd.readouterr()
    assert "warning" in captured.err
    payload = json.loads(captured.out)
    assert payload["matrix"][0][1] is None
    assert payload["matrix"][1][1] is None
    assert payload["matrix"][0][0] == 1.0


def test_pca_outputs(fisher_file, tmp_path):
    prefix = tmp_path / "run"
    svg = tmp_path / "kl.svg"
    code = run("pca", fisher_file, *FISHER_FLAGS, "--out", prefix, "--svg", svg)
    assert code == 0
    model = json.loads((tmp_path / "run.model.json").read_text())
    assert len(model["eigenvalues"]) == 7
    assert [v["name"] for v in model["variables"]] == ["eye", "hair"]
    scores_lines = (tmp_path / "run.scores.csv").read_text().strip().split("\n")
    assert scores_lines[0] == "instance_id,weight,label,pc1,pc2"
    assert len(scores_lines) == 21
    labels = {line.split(",")[2] for line in scores_lines[1:]}
    assert len(labels) == 20
    svg_text = svg.read_text()
    assert svg_text.startswith("<svg")
    assert "light-fair" in svg_text


def test_pca_svg_with_zero_total_variance(tmp_path, capfd):
    # only the last row has weight, so every variable is constant
    path = tmp_path / "zero.csv"
    path.write_text("a,b,w\nx,u,0\ny,v,0\nx,v,1\n", encoding="utf-8")
    svg = tmp_path / "kl.svg"
    assert run("pca", path, "--weights", "w", "--svg", svg) == 0
    svg_text = svg.read_text()
    assert "pc1 (0.0% of variance)" in svg_text
    assert "pc2 (0.0% of variance)" in svg_text


def test_cov_bom_header_names(tmp_path, capfd):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfeye,hair\nblue,fair\ndark,red\n")
    assert run("cov", path) == 0
    assert capfd.readouterr().out.split("\n")[0] == ",eye,hair"


def test_multichar_delimiter_is_input_error(tmp_path, capfd):
    path = tmp_path / "semi.csv"
    path.write_text("A;;B\nx;;u\n", encoding="utf-8")
    assert run("cov", path, "--delimiter", ";;") == 2
    err = capfd.readouterr().err
    assert "';;'" in err and "Traceback" not in err


def test_labels_and_names_with_csv_specials_are_quoted(tmp_path, capfd):
    path = tmp_path / "odd.csv"
    path.write_text('"a,b",c\n"x,1",y\n"say ""hi""",z\n"x,1",z\n', encoding="utf-8")
    prefix = tmp_path / "run"
    assert run("pca", path, "--out", prefix) == 0
    with open(f"{prefix}.scores.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance_id", "weight", "label", "pc1", "pc2"]
    assert [r[2] for r in rows[1:]] == ["x,1-y", 'say "hi"-z', "x,1-z"]
    assert all(len(r) == 5 for r in rows)
    for command in ("cov", "corr"):
        out = tmp_path / f"{command}.csv"
        assert run(command, path, "--out", out) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["", "a,b", "c"]
        assert [r[0] for r in rows[1:]] == ["a,b", "c"]
        assert all(len(r) == 3 for r in rows)
    assert run("select", path, "--top", "1") == 0
    rows = list(csv.reader(capfd.readouterr().out.splitlines()))
    assert sorted(r[1] for r in rows[1:]) == ["a,b", "c"]
    assert all(len(r) == 4 for r in rows)


HUGE_TOTAL = "a,b,w\nx,u,1e308\ny,v,1e308\nx,v,1e308\n"
# a total just below the largest double, while the bincount of category x overflows
EDGE_TOTAL = "c,d,w\n" + "".join(f"x,{d},9.98718408256842e+306\n" for d in "pq" * 9) + "y,p,1\n"


@pytest.mark.parametrize("text, args", [
    pytest.param(HUGE_TOTAL, ["cov"], id="cov"),
    pytest.param(HUGE_TOTAL, ["pca"], id="pca"),
    *(pytest.param(EDGE_TOTAL, args, id="edge-" + args[0]) for args in (
        ["cov"], ["corr"], ["pca", "--out", "run", "--svg", "kl.svg"], ["interpret"], ["scree"],
        ["select", "--top", "1"])),
])
def test_overflowing_total_weight_is_input_error(tmp_path, capfd, monkeypatch, text, args):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "huge.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args[0], path, "--weights", "w", *args[1:]) == 2
    assert capfd.readouterr() == (
        "", "error: total weight must be below 2**1023 (weights too large to sum)\n")
    assert [p.name for p in tmp_path.iterdir()] == ["huge.csv"]


def test_pca_zero_components(fisher_file, capfd):
    assert run("pca", fisher_file, *FISHER_FLAGS, "--components", "0") == 2
    assert "components" in capfd.readouterr().err


def test_pca_too_many_components(fisher_file):
    assert run("pca", fisher_file, *FISHER_FLAGS, "--components", "8") == 2


def test_pca_single_component_svg_writes_nothing(fisher_file, tmp_path, capfd):
    prefix = tmp_path / "run"
    args = ("--components", "1", "--out", prefix, "--svg", tmp_path / "kl.svg")
    assert run("pca", fisher_file, *FISHER_FLAGS, *args) == 2
    assert capfd.readouterr().err == "error: KL-plot needs at least 2 components\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fisher.csv"]


@pytest.mark.parametrize("eps", ["nan", "-1", "inf"])
def test_interpret_bad_eps_is_input_error(fisher_file, capfd, eps):
    assert run("interpret", fisher_file, *FISHER_FLAGS, "--eps", eps) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eps must be finite and >= 0") and captured.err.count("\n") == 1


def test_output_round_trip(tmp_path, capfd):
    # three pieces; the first ends between "\r" and "\n", and no newline is translated
    pieces = ["a" * 1000 + "\r", "\né", "€\n" * 1000]
    path = tmp_path / "big.txt"
    with cli._outputs({"out": str(path)}) as write:
        for piece in pieces:
            write["out"](piece)
    assert path.read_bytes() == "".join(pieces).encode("utf-8")
    with cli._outputs({"out": None}) as write:
        for piece in pieces:
            write["out"](piece)
    assert capfd.readouterr().out == "".join(pieces)


def test_output_replaces_a_longer_file_and_creates_as_open_does(tmp_path):
    path = tmp_path / "old.txt"
    path.write_bytes(b"x" * 10000)
    with cli._outputs({"out": str(path)}) as write:
        write["out"]("new\n")
    assert path.read_bytes() == b"new\n"
    with cli._outputs({"out": str(tmp_path / "new.txt")}) as write:
        write["out"]("new\n")
    assert (tmp_path / "new.txt").stat().st_mode == path.stat().st_mode


def test_interpret_names_dominant_atoms(fisher_file, capfd):
    assert run("interpret", fisher_file, *FISHER_FLAGS) == 0
    out = capfd.readouterr().out
    assert "d[eye](medium->light)" in out
    assert "d[hair](medium->fair)" in out
    assert "d[eye](dark->light)" in out
    assert "d[hair](dark->medium)" in out
    assert "residual norm" in out


def test_interpret_takes_its_defaults_from_pca_interpret(fisher_file, capfd, monkeypatch):
    monkeypatch.setattr(rspca.pca.interpret, "__defaults__", (1, 0.5))
    assert run("interpret", fisher_file, *FISHER_FLAGS) == 0
    model = fit(rspca.load_contingency(fisher_file, "eye", "hair"))
    expected = "".join(emit.interpretation_text(rspca.interpret(model, m), model) for m in (1, 2))
    assert capfd.readouterr().out == expected


def test_interpret_component_out_of_range(fisher_file):
    assert run("interpret", fisher_file, *FISHER_FLAGS, "--components", "99") == 2


def test_interpret_single_atom(tmp_path, capfd):
    path = tmp_path / "one.csv"
    path.write_text("A\nx\ny\nx\ny\n", encoding="utf-8")
    assert run("interpret", path, "--components", "1") == 0
    out = capfd.readouterr().out
    assert out.count("d[A]") == 1
    assert "residual norm 0" in out


def test_interpret_json(fisher_file, capfd):
    assert run("interpret", fisher_file, *FISHER_FLAGS, "--format", "json") == 0
    payload = json.loads(capfd.readouterr().out)
    assert payload[0]["component"] == 1
    names = [t["name"] for t in payload[0]["terms"][:2]]
    assert any("d[hair]" in n for n in names)


def test_scree_csv_and_svg(fisher_file, tmp_path, capfd):
    svg = tmp_path / "scree.svg"
    assert run("scree", fisher_file, *FISHER_FLAGS, "--svg", svg) == 0
    lines = capfd.readouterr().out.strip().split("\n")
    assert lines[0] == "mode,eigenvalue"
    assert len(lines) == 8
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values, reverse=True)
    assert svg.read_text().startswith("<svg")


# each command's stdout in one format, as its emit call writes the library's result on a dataset
LIBRARY_OUTPUT = {
    "cov": lambda form, ds, model: written(emit.matrix, form, ds.variable_names(),
                                           rspca.covariance_matrix(ds)),
    "corr": lambda form, ds, model: written(emit.matrix, form, ds.variable_names(),
                                            rspca.correlation_matrix(ds)),
    "interpret": lambda form, ds, model: written(
        emit.interpretations, form, [rspca.interpret(model, m) for m in (1, 2, 3)], model),
    "scree": lambda form, ds, model: written(emit.scree, form, model.eigenvalues),
    "select": lambda form, ds, model: written(emit.selection, form,
                                              rspca.variable_importance(model, 2), 1),
}
COMMAND_FLAGS = {"interpret": ["--components", "3"], "select": ["--top", "1"]}


@pytest.mark.parametrize("command, form", [
    (command, form) for command in LIBRARY_OUTPUT
    for form in (("text", "json") if command == "interpret" else ("csv", "json"))])
def test_each_command_writes_what_its_emit_call_writes(fisher_file, capfd, command, form):
    dataset = rspca.load_contingency(fisher_file, "eye", "hair")
    expected = LIBRARY_OUTPUT[command](form, dataset, fit(dataset))
    given = ["--format", form] if form == "json" else []  # the other format is the default
    assert run(command, fisher_file, *FISHER_FLAGS, *COMMAND_FLAGS.get(command, []), *given) == 0
    assert capfd.readouterr().out == expected


def test_scree_svg_is_what_emit_scree_svg_writes(fisher_file, tmp_path, capfd):
    svg = tmp_path / "scree.svg"
    assert run("scree", fisher_file, *FISHER_FLAGS, "--svg", svg) == 0
    eigenvalues = fit(rspca.load_contingency(fisher_file, "eye", "hair")).eigenvalues
    assert svg.read_text(encoding="utf-8") == written(emit.scree_svg, eigenvalues)
    assert capfd.readouterr().out == written(emit.scree, "csv", eigenvalues)


def test_select_recovers_planted(tmp_path, capfd):
    data = tmp_path / "synth.csv"
    assert run("synth", "--seed", "4", "--out", data) == 0
    assert run("select", data, "--top", "3", "--format", "json") == 0
    payload = json.loads(capfd.readouterr().out)
    assert sorted(payload["selected"]) == ["planted1", "planted2", "planted3"]
    assert len(payload["ranking"]) == 10


def test_select_csv_shape(tmp_path, capfd):
    data = tmp_path / "synth.csv"
    assert run("synth", "--rows", "60", "--out", data) == 0
    assert run("select", data, "--top", "2") == 0
    lines = capfd.readouterr().out.strip().split("\n")
    assert lines[0] == "rank,variable,importance,selected"
    assert len(lines) == 11
    assert lines[1].endswith(",1") and lines[3].endswith(",0")


def test_select_top_zero(tmp_path):
    data = tmp_path / "synth.csv"
    assert run("synth", "--rows", "30", "--out", data) == 0
    assert run("select", data, "--top", "0") == 2


def test_synth_stdout(capfd):
    assert run("synth", "--rows", "3", "--vars", "2", "--planted", "1") == 0
    lines = capfd.readouterr().out.strip().split("\n")
    assert len(lines) == 4
    assert "planted1" in lines[0]


def test_commands_are_deterministic(fisher_file, tmp_path):
    for args, outputs in [
        (["cov", fisher_file, *FISHER_FLAGS, "--out"], [""]),
        (["corr", fisher_file, *FISHER_FLAGS, "--format", "json", "--out"], [""]),
        (["pca", fisher_file, *FISHER_FLAGS, "--out"], [".model.json", ".scores.csv"]),
        (["scree", fisher_file, *FISHER_FLAGS, "--out"], [""]),
        (["interpret", fisher_file, *FISHER_FLAGS, "--out"], [""]),
    ]:
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run(*args, first) == 0
        assert run(*args, second) == 0
        for suffix in outputs:
            a = (tmp_path / ("a" + suffix)).read_bytes()
            b = (tmp_path / ("b" + suffix)).read_bytes()
            assert a == b


def test_importing_the_cli_pulls_in_no_network_or_xml_modules():
    # xml.sax.saxutils alone imports urllib.request, http.client, ssl and email
    src = str(Path(rspca.__file__).resolve().parents[1])
    code = "import sys, rspca.cli; print(sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True).stdout
    for name in ("xml.sax", "urllib.request", "ssl", "email"):
        assert f"'{name}'" not in loaded


@pytest.mark.parametrize("contingency", [False, True], ids=["csv", "contingency"])
def test_too_many_categories_is_one_line_input_error(tmp_path, capfd, monkeypatch, contingency):
    monkeypatch.setattr(dataset_module, "MAX_CATEGORIES", 3)
    path = tmp_path / "ids.csv"
    if contingency:
        path.write_text(",a\n" + "".join(f"r{i},1\n" for i in range(4)), encoding="utf-8")
        flags, name = ["--contingency"], "row"
    else:
        path.write_text("id,B\n" + "".join(f"{i},x\n" for i in range(4)), encoding="utf-8")
        flags, name = [], "id"
    for command in ("cov", "pca"):
        assert run(command, path, *flags) == 2
        assert capfd.readouterr().err == (
            f"error: variable '{name}' has more than 3 categories\n")


def test_a_model_over_max_dim_is_refused_before_it_is_built(tmp_path, capfd, monkeypatch):
    # 32 KB of CSV at dim 2 * 2099 + 1 = 4199: its block matrix alone would take 141 MB
    monkeypatch.chdir(tmp_path)
    Path("d.csv").write_text("A,B,C\n" + "".join(f"a{i},b{i},c{i % 2}\n" for i in range(2100)),
                             encoding="utf-8")
    start = time.perf_counter()
    assert run("pca", "d.csv", "--out", "run", "--svg", "kl.svg") == 2
    assert time.perf_counter() - start < 1.0  # a load and the check, no fit
    assert capfd.readouterr() == ("", "error: model dim 4199 exceeds the limit of 4096; "
                                      "most categories: 'A' (2100), 'B' (2100), 'C' (2)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


def test_earlier_record_error_beats_a_later_unreadable_byte(tmp_path, capfd):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"A,w\n" + b"x,1\n" * 3000 + b"y,-1\n" + b"z,1\n" * 10 + b"\xff,1\n")
    assert run("cov", path, "--weights", "w") == 2
    assert capfd.readouterr().err == (
        f"error: {path}: line 3002: negative or non-finite weight -1.0\n")


@pytest.mark.parametrize("command, flag, name", [
    ("cov", "--out", "x.csv"), ("pca", "--out", "run"), ("pca", "--svg", "kl.svg")])
def test_unwritable_output_is_one_line_input_error(fisher_file, tmp_path, capfd,
                                                   command, flag, name):
    missing = tmp_path / "missing" / "dir"
    assert run(command, fisher_file, *FISHER_FLAGS, flag, missing / name) == 2
    err = capfd.readouterr().err
    assert err.startswith(f"error: cannot write {missing / name}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.count(str(missing)) == 1 and err.endswith(": No such file or directory\n")


def test_empty_output_path_is_not_named_stdout(fisher_file, capfd):
    for command, flag in (("cov", "--out"), ("pca", "--svg")):
        assert run(command, fisher_file, *FISHER_FLAGS, flag, "") == 2
        assert capfd.readouterr() == ("", "error: cannot write : No such file or directory\n")


def test_empty_pca_prefix_is_one_line_input_error_and_writes_nothing(fisher_file, tmp_path,
                                                                     capfd, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("pca", fisher_file, *FISHER_FLAGS, "--out", "") == 2
    assert capfd.readouterr() == ("", "error: --out prefix is empty\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fisher.csv"]


def test_pca_prefix_naming_a_directory_writes_no_hidden_files(fisher_file, tmp_path, capfd):
    out = tmp_path / "out"
    out.mkdir()
    assert run("pca", fisher_file, *FISHER_FLAGS, "--out", f"{out}/") == 2
    assert capfd.readouterr() == (
        "", f"error: --out prefix {out}/ ends in a directory separator\n")
    assert list(out.iterdir()) == []


def test_unreadable_input_names_its_path_once(tmp_path, capfd):
    path = tmp_path / "missing.csv"
    for flags in ([], FISHER_FLAGS):
        assert run("cov", path, *flags) == 2
        assert capfd.readouterr().err == f"error: cannot read {path}: No such file or directory\n"


@pytest.mark.parametrize("command, flags", [
    ("pca", ["--out", "run", "--svg"]), ("pca", ["--svg"]),
    ("scree", ["--out", "run.scree.csv", "--svg"]), ("scree", ["--svg"])])
def test_unwritable_output_leaves_no_partial_output(fisher_file, tmp_path, capfd, monkeypatch,
                                                    command, flags):
    monkeypatch.chdir(tmp_path)
    assert run(command, fisher_file, *FISHER_FLAGS, *flags, "missing/kl.svg") == 2
    out, err = capfd.readouterr()
    assert out == "" and err == "error: cannot write missing/kl.svg: No such file or directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fisher.csv"]


@pytest.mark.parametrize("command, flags, kept", [
    ("pca", ["--out", "run", "--svg"], "run.model.json"),
    ("scree", ["--out", "/dev/null", "--svg"], "/dev/null")])
def test_unwritable_output_keeps_outputs_that_existed(fisher_file, tmp_path, capfd, monkeypatch,
                                                      command, flags, kept):
    monkeypatch.chdir(tmp_path)
    if kept != "/dev/null":
        (tmp_path / kept).write_text("old", encoding="utf-8")
    kind = os.stat(kept).st_mode
    assert run(command, fisher_file, *FISHER_FLAGS, *flags, "missing/kl.svg") == 2
    out, err = capfd.readouterr()
    assert out == "" and err == "error: cannot write missing/kl.svg: No such file or directory\n"
    assert os.stat(kept).st_mode == kind
    if kept != "/dev/null":
        assert (tmp_path / kept).read_text(encoding="utf-8") == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["fisher.csv"] + ([kept] if kept != "/dev/null" else []))


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("command, flags, same", [
    ("pca", ["--out", "run", "--svg", "run.scores.csv"], "run.scores.csv"),
    ("scree", ["--out", "x", "--svg", "x"], "x"),
    ("scree", ["--out", "x", "--svg", "./x"], "./x")])
def test_two_outputs_naming_one_file_are_one_line_input_error(fisher_file, tmp_path, capfd,
                                                              monkeypatch, command, flags, same,
                                                              existed):
    monkeypatch.chdir(tmp_path)
    if existed:
        Path(same).write_text("old", encoding="utf-8")
    assert run(command, fisher_file, *FISHER_FLAGS, *flags) == 2
    out, err = capfd.readouterr()
    assert out == "" and err == f"error: cannot write {same}: same file as another output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fisher.csv"] + [Path(same).name] * existed
    if existed:
        assert Path(same).read_text(encoding="utf-8") == "old"


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


def rspca_process(*argv, env=(), **kwargs):
    """``python -m rspca.cli ARGV`` in a child process, with stderr piped as text
    and ``env`` added to the environment."""
    env = dict(os.environ, **dict(env), PYTHONPATH=str(Path(rspca.__file__).resolve().parents[1]))
    return subprocess.Popen([sys.executable, "-m", "rspca.cli", *map(str, argv)], env=env,
                            stderr=subprocess.PIPE, text=True, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("text", [
    '"A",B\nx,y\nz,w\n', "A,B\n" + "x,1\n" * 20000 + '"y",2\n', "A,B\r\nx,y\r\nz,w\r"],
    ids=["quoted-header", "late-switch", "lone-cr"])
def test_cov_of_a_csv_read_from_a_pipe_is_cov_of_the_file(tmp_path, capfd, text):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    assert run("cov", path) == 0
    child = rspca_process("cov", "/dev/stdin", stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    assert child.communicate(text, timeout=60) == (capfd.readouterr().out, "")
    assert child.returncode == 0


@needs_dev_full
@pytest.mark.parametrize("command, flags", [
    ("cov", ["--out"]), ("pca", ["--out", "run", "--svg"]),
    ("scree", ["--out", "run.scree.csv", "--svg"])])
def test_failed_write_is_one_line_input_error_and_leaves_no_created_file(
        tmp_path, capfd, monkeypatch, command, flags):
    # 2000 rows: the KL-plot fails in a write, the smaller outputs when they close
    (tmp_path / "d.csv").write_text(to_csv_text(generate(SyntheticSpec(rows=2000))[0]),
                                    encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(command, "d.csv", *flags, "/dev/full") == 2
    out, err = capfd.readouterr()
    assert out == "" and err == "error: cannot write /dev/full: No space left on device\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


@needs_dev_full
def test_stdout_on_a_full_device_is_one_line_input_error(fisher_file, tmp_path):
    with open("/dev/full", "w") as full:
        child = rspca_process("cov", fisher_file, *FISHER_FLAGS, stdout=full, cwd=tmp_path)
        _, err = child.communicate(timeout=60)
    assert child.returncode == 2
    assert err == "error: cannot write <stdout>: No space left on device\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fisher.csv"]


def test_closed_pipe_on_stdout_is_one_line_input_error(tmp_path):
    # 3 MB of scores: far more than a pipe holds, so writes go on after the reader is gone
    (tmp_path / "d.csv").write_text(to_csv_text(generate(SyntheticSpec(rows=20000))[0]),
                                    encoding="utf-8")
    child = rspca_process("pca", "d.csv", "--svg", "kl.svg", stdout=subprocess.PIPE,
                          cwd=tmp_path)
    assert child.stdout.readline().startswith("instance_id,")
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=60) == 2
    assert err == "error: cannot write <stdout>: Broken pipe\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


def test_stdout_that_is_another_output_is_one_line_input_error(fisher_file, tmp_path):
    (tmp_path / "s.svg").write_text("old", encoding="utf-8")
    with open(tmp_path / "s.svg", "a") as same:
        child = rspca_process("pca", fisher_file, *FISHER_FLAGS, "--svg", "s.svg", stdout=same,
                              cwd=tmp_path)
        _, err = child.communicate(timeout=60)
    assert child.returncode == 2
    assert err == "error: cannot write s.svg: same file as another output\n"
    assert (tmp_path / "s.svg").read_text(encoding="utf-8") == "old"


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_a_pipe_that_is_two_outputs_is_one_line_input_error(tmp_path):
    # a pipe is one output, as a regular file is: scores and KL-plot would interleave in it
    (tmp_path / "d.csv").write_text(to_csv_text(generate(SyntheticSpec(rows=3000))[0]),
                                    encoding="utf-8")
    child = rspca_process("pca", "d.csv", "--svg", "/dev/stdout", stdout=subprocess.PIPE,
                          cwd=tmp_path)
    out, err = child.communicate(timeout=60)
    assert child.returncode == 2
    assert (out, err) == ("", "error: cannot write /dev/stdout: same file as another output\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


def test_a_device_may_take_several_outputs(fisher_file, capfd):
    # a character device is not one output: it may take both of scree's
    assert run("scree", fisher_file, *FISHER_FLAGS, "--out", "/dev/null",
               "--svg", "/dev/null") == 0
    assert capfd.readouterr() == ("", "")


def test_closed_stdout_is_one_line_input_error_and_no_path_takes_its_descriptor(
        fisher_file, tmp_path):
    # descriptor 1 is free, so a path opened before stdout would get it and take the scores
    child = rspca_process("pca", fisher_file, *FISHER_FLAGS, "--svg", "kl.svg", cwd=tmp_path,
                          preexec_fn=lambda: os.close(1))
    _, err = child.communicate(timeout=60)
    assert child.returncode == 2
    assert err == "error: cannot write <stdout>: Bad file descriptor\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fisher.csv"]


@pytest.mark.parametrize("encoding", ["ascii", "utf-16"])
def test_stdout_is_utf8_whatever_pythonioencoding_says(tmp_path, encoding):
    (tmp_path / "d.csv").write_text("a,b\n€,x\ny,z\n€,z\n", encoding="utf-8")
    assert run("pca", tmp_path / "d.csv", "--out", tmp_path / "run") == 0
    with open(tmp_path / "stdout.csv", "w") as out:
        child = rspca_process("pca", "d.csv", stdout=out, cwd=tmp_path,
                              env={"PYTHONIOENCODING": encoding})
        _, err = child.communicate(timeout=60)
    assert child.returncode == 0 and err == ""
    scores_csv = (tmp_path / "run.scores.csv").read_bytes()
    assert "€".encode("utf-8") in scores_csv
    assert (tmp_path / "stdout.csv").read_bytes() == scores_csv


@pytest.mark.parametrize("cell", [
    b"x\x01",
    pytest.param(b"x\x00", marks=pytest.mark.skipif(sys.version_info < (3, 11),
                                                    reason="csv reads NUL from Python 3.11 on"))],
    ids=["control", "nul"])
def test_kl_plot_text_is_well_formed_for_any_label(tmp_path, capfd, cell):
    path = tmp_path / "d.csv"
    path.write_bytes(b"a,b\n" + cell + b",y\nz,w\n")
    assert run("pca", path, "--out", tmp_path / "run", "--svg", tmp_path / "kl.svg") == 0
    assert capfd.readouterr() == ("", "")
    texts = ElementTree.parse(tmp_path / "kl.svg").iter("{http://www.w3.org/2000/svg}text")
    assert [t.text for t in texts][-2:] == ["x\ufffd-y", "z-w"]


def test_interpret_reports_a_null_component_without_atoms(tmp_path, capfd):
    # z has weight 0, so the third eigenvalue is roundoff and its eigenvector arbitrary
    path = tmp_path / "null.csv"
    path.write_text("a,b,w\nx,p,1\ny,q,2\nx,q,1\ny,p,3\nz,p,0\n", encoding="utf-8")
    assert run("interpret", path, "--weights", "w", "--components", "3") == 0
    out = capfd.readouterr().out
    assert out.split("component 3 ")[1].split("\n")[1:] == ["  residual norm 1", ""]
    assert out.count("residual norm") == 3
    assert run("interpret", path, "--weights", "w", "--components", "3", "--format", "json") == 0
    null = json.loads(capfd.readouterr().out)[2]
    assert null["terms"] == [] and null["residual_norm"] == 1.0


def test_pca_artifacts_are_written_in_bounded_memory(tmp_path, monkeypatch):
    # the scores CSV is 3.2 MB of text and the KL-plot 5.0 MB; writing them as
    # joined strings from a list of every label peaked at about 20 MB
    dataset, _ = generate(SyntheticSpec(rows=20000, n_vars=40, categories=6, seed=1))
    model = fit(dataset)
    monkeypatch.setattr(cli, "_fit", lambda args: (dataset, model, 2))
    prefix, svg = tmp_path / "run", tmp_path / "kl.svg"
    tracemalloc.start()
    try:
        code = run("pca", "unused.csv", "--out", prefix, "--svg", svg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert svg.stat().st_size > 4.5 * 10**6
    assert (tmp_path / "run.scores.csv").stat().st_size > 3 * 10**6
    assert peak < 8 * 2**20


def test_pca_writes_rows_in_chunks_of_chunk_cells_label_cells(tmp_path, monkeypatch):
    # a fixed 4096 rows per chunk held 163 840 label cells of 40 variables, not 32 768
    dataset, _ = generate(SyntheticSpec(rows=2000, n_vars=40, categories=6, seed=1))
    model = fit(dataset)
    monkeypatch.setattr(cli, "_fit", lambda args: (dataset, model, 2))
    pieces, outputs = {}, cli._outputs

    def recording(name, write):
        def record(text):
            pieces.setdefault(name, []).append(text)
            write(text)
        return record

    @contextmanager
    def recorded(paths):
        with outputs(paths) as write:
            yield {name: recording(name, w) for name, w in write.items()}

    monkeypatch.setattr(cli, "_outputs", recorded)
    assert run("pca", "unused.csv", "--out", tmp_path / "run", "--svg", tmp_path / "kl.svg") == 0
    rows = dataset_module._CHUNK_CELLS // 40
    assert [piece.count("\n") for piece in pieces["scores"]] == [1, rows, rows, 2000 - 2 * rows]
    assert max(piece.count("<circle") for piece in pieces["svg"]) == rows


@pytest.mark.parametrize("argv", [
    [], ["cov"], ["cov", "g.csv", "--weights"], ["scree", "g.csv", "--components", "3"],
    ["cov", "g.csv", "--bogus"], ["nope"], ["pca", "g.csv", "--components", "x"],
    ["cov", "g.csv", "--format", "xml"], ["cov", "g.csv", "--x\ny"], ["cov", "g.csv", "a\nb"]])
def test_usage_error_is_one_line_and_exits_2(capfd, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capfd.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ["cov", "pca", "scree"])
@pytest.mark.parametrize("flags, line", [
    (["--contingency", "--delimiter", ";"], "error: --delimiter applies only to instance CSVs\n"),
    (["--contingency", "--weights", "nope", "--missing", "drop"],
     "error: --weights applies only to instance CSVs\n"),
    (["--contingency", "--missing", "own"], "error: --missing applies only to instance CSVs\n"),
    (["--row-name", "eye", "--col-name", "hair"],
     "error: --row-name applies only to contingency tables\n"),
    (["--weights", "w", "--col-name", "hair"],
     "error: --col-name applies only to contingency tables\n"),
    (["--contingency", "--row-name", ""],
     "error: row and column variables need non-empty names\n")])
def test_a_flag_of_the_other_input_mode_is_one_line_input_error(fisher_file, tmp_path, capfd,
                                                               command, flags, line):
    # the input is never read: a flag of the other mode is refused, though its value would be
    # valid in its own mode, and so is an empty variable name
    out = tmp_path / "out"
    assert run(command, fisher_file, *flags, "--out", out) == 2
    assert capfd.readouterr() == ("", line)
    assert sorted(tmp_path.iterdir()) == [fisher_file]


FAILED_PAIR = "covariance failed for pair (eye, hair): SVD failed to converge: no convergence"
FAILED_EIGH = "eigendecomposition failed: no convergence"


@pytest.mark.parametrize("command, flags, kernel, line", [
    ("cov", ["--out", "x.csv"], "svd", FAILED_PAIR),
    ("corr", ["--format", "json"], "svd", FAILED_PAIR),
    ("cov", ["--row-name", "e\nye"], "svd", FAILED_PAIR.replace("eye", "e ye")),
    ("pca", ["--out", "run", "--svg", "kl.svg"], "eigh", FAILED_EIGH),
    ("select", ["--top", "1", "--out", "x.csv"], "eigh", FAILED_EIGH)])
def test_a_numerical_failure_is_one_line_exit_3_and_writes_nothing(fisher_file, tmp_path, capfd,
                                                                   monkeypatch, command, flags,
                                                                   kernel, line):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(np.linalg, kernel, fail)
    assert run(command, fisher_file, *FISHER_FLAGS, *flags) == 3
    assert capfd.readouterr() == ("", f"numerical failure: {line}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fisher.csv"]


@pytest.mark.parametrize("case", ["unreadable input", "record error", "unwritable output"])
def test_a_path_with_a_line_break_gives_one_line_input_error(fisher_file, tmp_path, capfd, case):
    bad = tmp_path / "bad\nrow.csv"
    bad.write_text("A,B\nx,y\nu,v,w\n", encoding="utf-8")
    argv, line = {
        "unreadable input": (
            ["cov", tmp_path / "no\nsuch.csv"],
            f"error: cannot read {tmp_path}/no such.csv: No such file or directory"),
        "record error": (
            ["cov", bad],
            f"error: {tmp_path}/bad row.csv: line 3: 3 fields, expected 2"),
        "unwritable output": (
            ["cov", fisher_file, *FISHER_FLAGS, "--out", tmp_path / "missing\ndir" / "x.csv"],
            f"error: cannot write {tmp_path}/missing dir/x.csv: No such file or directory"),
    }[case]
    assert run(*argv) == 2
    assert capfd.readouterr() == ("", line + "\n")


def test_zero_variance_warning_is_one_line_whatever_the_name(tmp_path, capfd):
    path = tmp_path / "const.csv"
    path.write_text('"a\nb",c\nx,u\nx,v\n', encoding="utf-8")
    assert run("corr", path) == 0
    assert capfd.readouterr().err == (
        "warning: zero-variance variables have undefined correlations: a b\n")


def test_select_refuses_a_top_over_the_variable_count_before_the_fit(fisher_file, capfd,
                                                                      monkeypatch):
    def fit(dataset):
        raise AssertionError("select fitted a model it was to refuse")

    monkeypatch.setattr(cli, "fit", fit)
    assert run("select", fisher_file, *FISHER_FLAGS, "--top", "3") == 2
    assert capfd.readouterr() == ("", "error: --top exceeds the 2 available variables\n")


def test_help_still_prints_the_usage(capfd):
    with pytest.raises(SystemExit) as exc:
        main(["cov", "--help"])
    assert exc.value.code == 0
    out, err = capfd.readouterr()
    assert out.startswith("usage: rspca cov ") and "--weights COL" in out and err == ""


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 72.8 TiB", "error: out of memory: Unable to allocate 72.8 TiB\n"),
    ("", "error: out of memory\n"),
    ("Unable to allocate\n8 GiB", "error: out of memory: Unable to allocate 8 GiB\n")])
def test_allocation_failure_is_one_line_input_error(capfd, monkeypatch, message, line):
    def generate(spec):
        raise MemoryError(message)

    monkeypatch.setattr(rspca.cli, "generate", generate)
    assert run("synth", "--rows", "10000000000000") == 2
    assert capfd.readouterr() == ("", line)


@pytest.mark.parametrize("rows", [2**60, 2**63 - 1, 10**20])
def test_synth_rows_past_numpy_sizes_is_one_line_input_error(tmp_path, capfd, rows):
    out = tmp_path / "synth.csv"
    assert run("synth", "--rows", rows, "--out", out) == 2
    assert capfd.readouterr() == ("", f"error: rows must be at most {2**60 - 1}\n")
    assert not out.exists()


def test_allocation_failure_while_writing_leaves_no_partial_output(fisher_file, tmp_path, capfd,
                                                                    monkeypatch):
    def model_json(write, model):
        write("{")
        raise MemoryError()

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.emit, "model_json", model_json)
    assert run("pca", fisher_file, *FISHER_FLAGS, "--out", "run", "--svg", "kl.svg") == 2
    assert capfd.readouterr() == ("", "error: out of memory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fisher.csv"]
