import csv
import json
import warnings

import pytest

from rspca import cli
from rspca.cli import main
from .conftest import FISHER_CSV

FISHER_FLAGS = ["--contingency", "--row-name", "eye", "--col-name", "hair"]


@pytest.fixture()
def fisher_file(tmp_path):
    path = tmp_path / "fisher.csv"
    path.write_text(FISHER_CSV, encoding="utf-8")
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_cov_csv(fisher_file, capsys):
    assert run("cov", fisher_file, *FISHER_FLAGS) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == ",eye,hair"
    cells = lines[1].split(",")
    assert abs(float(cells[2]) - 0.081253) <= 5e-5


def test_cov_single_column(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("A\nx\ny\nx\ny\n", encoding="utf-8")
    assert run("cov", path) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert abs(float(lines[1].split(",")[1]) - 0.25) <= 1e-12


def test_cov_malformed_csv_names_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("A,B\nx,y\nu,v,EXTRA\n", encoding="utf-8")
    assert run("cov", path) == 2
    assert "line 3" in capsys.readouterr().err


def test_cov_error_names_line_where_record_starts(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text('A,B\n"x\ny",u\nz,v,w\n', encoding="utf-8")
    assert run("cov", path) == 2
    assert "line 4: 3 fields, expected 2" in capsys.readouterr().err


def test_contingency_error_names_line_where_record_starts(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(',a\n"u\nv",1\nw,x\n', encoding="utf-8")
    assert run("cov", path, "--contingency") == 2
    assert "line 4: cell 'x' is not a number" in capsys.readouterr().err


UNREADABLE = {
    # 3000 rows put the bad byte well past the text decoder's first 8 KiB block
    "byte": (b"bad,\xff\n", 3002, "byte 0xff is not UTF-8"),
    # the record starts on line 12 and its quoted field runs past the csv module's limit
    "field": (b'"big\nlabel' + b"z" * 140_000 + b'",1\n', 12, "field larger than field limit"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
@pytest.mark.parametrize("contingency", [False, True], ids=["csv", "contingency"])
def test_unreadable_record_is_one_line_naming_its_line(tmp_path, capsys, case, contingency):
    record, line, reason = UNREADABLE[case]
    rows = 3000 if case == "byte" else 10
    head = ",a\n" if contingency else "A,B\n"
    path = tmp_path / "bad.csv"
    path.write_bytes((head + "".join(f"r{i},1\n" for i in range(rows))).encode() + record + b"s,1\n")
    flags = ["--contingency"] if contingency else []
    assert run("cov", path, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line {line}: {reason}")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_cov_missing_file(capsys):
    assert run("cov", "/no/such/file.csv") == 2
    assert "error" in capsys.readouterr().err


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


def test_corr_values(fisher_file, capsys):
    assert run("corr", fisher_file, *FISHER_FLAGS) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    row = lines[1].split(",")
    assert float(row[1]) == 1.0
    assert abs(float(row[2]) - 0.2277) <= 5e-4


def test_corr_constant_column_warns(tmp_path, capsys):
    path = tmp_path / "const.csv"
    path.write_text("A,B\nx,k\ny,k\nx,k\n", encoding="utf-8")
    assert run("corr", path, "--format", "json") == 0
    captured = capsys.readouterr()
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


def test_pca_svg_with_zero_total_variance(tmp_path, capsys):
    # only the last row has weight, so every variable is constant
    path = tmp_path / "zero.csv"
    path.write_text("a,b,w\nx,u,0\ny,v,0\nx,v,1\n", encoding="utf-8")
    svg = tmp_path / "kl.svg"
    assert run("pca", path, "--weights", "w", "--svg", svg) == 0
    svg_text = svg.read_text()
    assert "pc1 (0.0% of variance)" in svg_text
    assert "pc2 (0.0% of variance)" in svg_text


def test_cov_bom_header_names(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfeye,hair\nblue,fair\ndark,red\n")
    assert run("cov", path) == 0
    assert capsys.readouterr().out.split("\n")[0] == ",eye,hair"


def test_multichar_delimiter_is_input_error(tmp_path, capsys):
    path = tmp_path / "semi.csv"
    path.write_text("A;;B\nx;;u\n", encoding="utf-8")
    assert run("cov", path, "--delimiter", ";;") == 2
    err = capsys.readouterr().err
    assert "';;'" in err and "Traceback" not in err


def test_labels_and_names_with_csv_specials_are_quoted(tmp_path, capsys):
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
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert sorted(r[1] for r in rows[1:]) == ["a,b", "c"]
    assert all(len(r) == 4 for r in rows)


@pytest.mark.parametrize("command", ["cov", "pca"])
def test_overflowing_total_weight_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "huge.csv"
    path.write_text("a,b,w\nx,u,1e308\ny,v,1e308\nx,v,1e308\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, path, "--weights", "w") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "total weight" in err and "Traceback" not in err


def test_pca_zero_components(fisher_file, capsys):
    assert run("pca", fisher_file, *FISHER_FLAGS, "--components", "0") == 2
    assert "components" in capsys.readouterr().err


def test_pca_too_many_components(fisher_file):
    assert run("pca", fisher_file, *FISHER_FLAGS, "--components", "8") == 2


def test_pca_single_component_svg_writes_nothing(fisher_file, tmp_path, capsys):
    prefix = tmp_path / "run"
    args = ("--components", "1", "--out", prefix, "--svg", tmp_path / "kl.svg")
    assert run("pca", fisher_file, *FISHER_FLAGS, *args) == 2
    assert capsys.readouterr().err == "error: KL-plot needs at least 2 components\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fisher.csv"]


@pytest.mark.parametrize("eps", ["nan", "-1", "inf"])
def test_interpret_bad_eps_is_input_error(fisher_file, capsys, eps):
    assert run("interpret", fisher_file, *FISHER_FLAGS, "--eps", eps) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eps must be finite and >= 0") and captured.err.count("\n") == 1


def test_write_slices_round_trip(tmp_path, capsys):
    # three slices; the first ends between "\r" and "\n"
    text = "a" * (cli._SLICE - 1) + "\r\né" + "€\n" * cli._SLICE
    path = tmp_path / "big.txt"
    cli._write(text, str(path))
    assert path.read_bytes() == text.encode("utf-8")
    cli._write(text, None)
    assert capsys.readouterr().out == text


def test_interpret_names_dominant_atoms(fisher_file, capsys):
    assert run("interpret", fisher_file, *FISHER_FLAGS) == 0
    out = capsys.readouterr().out
    assert "d[eye](medium->light)" in out
    assert "d[hair](medium->fair)" in out
    assert "d[eye](dark->light)" in out
    assert "d[hair](dark->medium)" in out
    assert "residual norm" in out


def test_interpret_component_out_of_range(fisher_file):
    assert run("interpret", fisher_file, *FISHER_FLAGS, "--components", "99") == 2


def test_interpret_single_atom(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("A\nx\ny\nx\ny\n", encoding="utf-8")
    assert run("interpret", path, "--components", "1") == 0
    out = capsys.readouterr().out
    assert out.count("d[A]") == 1
    assert "residual norm 0" in out


def test_interpret_json(fisher_file, capsys):
    assert run("interpret", fisher_file, *FISHER_FLAGS, "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["component"] == 1
    names = [t["name"] for t in payload[0]["terms"][:2]]
    assert any("d[hair]" in n for n in names)


def test_scree_csv_and_svg(fisher_file, tmp_path, capsys):
    svg = tmp_path / "scree.svg"
    assert run("scree", fisher_file, *FISHER_FLAGS, "--svg", svg) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "mode,eigenvalue"
    assert len(lines) == 8
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values, reverse=True)
    assert svg.read_text().startswith("<svg")


def test_select_recovers_planted(tmp_path, capsys):
    data = tmp_path / "synth.csv"
    assert run("synth", "--seed", "4", "--out", data) == 0
    assert run("select", data, "--top", "3", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["selected"]) == ["planted1", "planted2", "planted3"]
    assert len(payload["ranking"]) == 10


def test_select_csv_shape(tmp_path, capsys):
    data = tmp_path / "synth.csv"
    assert run("synth", "--rows", "60", "--out", data) == 0
    assert run("select", data, "--top", "2") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "rank,variable,importance,selected"
    assert len(lines) == 11
    assert lines[1].endswith(",1") and lines[3].endswith(",0")


def test_select_top_zero(tmp_path):
    data = tmp_path / "synth.csv"
    assert run("synth", "--rows", "30", "--out", data) == 0
    assert run("select", data, "--top", "0") == 2


def test_synth_stdout(capsys):
    assert run("synth", "--rows", "3", "--vars", "2", "--planted", "1") == 0
    lines = capsys.readouterr().out.strip().split("\n")
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
