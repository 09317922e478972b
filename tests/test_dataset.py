import numpy as np
import pytest

from rspca import (
    DataError,
    frequencies,
    from_columns,
    joint_table,
    load_contingency,
    load_csv,
)
from .conftest import FISHER_EYE_MARGINALS, FISHER_TOTAL


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    path = write(tmp_path, "A,B\nx,u\ny,v\nx,u\n")
    ds = load_csv(path)
    assert ds.variable_names() == ["A", "B"]
    assert ds.n_instances == 3
    assert np.all(ds.weights == 1.0)
    assert ds.variable("A").categories == ["x", "y"]
    assert list(ds.variable("A").codes) == [0, 1, 0]


def test_load_csv_is_deterministic(tmp_path):
    path = write(tmp_path, "A,B\nz,q\na,r\nz,q\nb,r\n")
    d1 = load_csv(path)
    d2 = load_csv(path)
    for v1, v2 in zip(d1.variables, d2.variables):
        assert v1.categories == v2.categories
        assert np.array_equal(v1.codes, v2.codes)


def test_load_csv_weight_column(tmp_path):
    path = write(tmp_path, "A,w\nx,2\ny,3\n")
    ds = load_csv(path, weight_column="w")
    assert ds.variable_names() == ["A"]
    assert ds.total_weight == 5.0


def test_load_csv_missing_own(tmp_path):
    path = write(tmp_path, "A,B\nx,\ny,v\n")
    ds = load_csv(path)
    assert ds.n_instances == 2
    assert "(missing)" in ds.variable("B").categories


def test_load_csv_missing_drop(tmp_path):
    path = write(tmp_path, "A,B\nx,\ny,v\n")
    ds = load_csv(path, missing_policy="drop")
    assert ds.n_instances == 1
    assert ds.variable("A").categories == ["y"]


def test_load_csv_all_rows_dropped(tmp_path):
    path = write(tmp_path, "A,B\nx,\n,v\n")
    with pytest.raises(DataError):
        load_csv(path, missing_policy="drop")


def test_load_csv_duplicate_header(tmp_path):
    path = write(tmp_path, "A,A\nx,y\n")
    with pytest.raises(DataError, match="duplicate header"):
        load_csv(path)


def test_load_csv_strips_utf8_bom(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfeye,hair\nblue,fair\ndark,red\n")
    assert load_csv(path).variable_names() == ["eye", "hair"]


def test_load_csv_rejects_multichar_delimiter(tmp_path):
    path = write(tmp_path, "A;;B\nx;;u\n")
    with pytest.raises(DataError, match="';;'"):
        load_csv(path, delimiter=";;")
    with pytest.raises(DataError):
        load_csv(path, delimiter="")


def test_joint_table_weighted_counts():
    ds = from_columns(
        ["A", "B"], [["x", "y", "x", "x"], ["u", "u", "v", "u"]], [0.5, 2.0, 1.25, 3.0]
    )
    assert np.array_equal(joint_table(ds, "A", "B"), [[3.5, 1.25], [2.0, 0.0]])
    assert np.array_equal(joint_table(ds, "B", "A"), [[3.5, 2.0], [1.25, 0.0]])


def test_load_csv_unreadable():
    with pytest.raises(DataError):
        load_csv("/no/such/file.csv")


def test_load_csv_negative_weight_names_line(tmp_path):
    path = write(tmp_path, "A,w\nx,1\ny,-2\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(path, weight_column="w")


def test_load_csv_bad_weight_names_line(tmp_path):
    path = write(tmp_path, "A,w\nx,oops\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(path, weight_column="w")


def test_load_csv_overlong_row_names_line(tmp_path):
    path = write(tmp_path, "A,B\nx,y,z\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(path)


def test_load_csv_missing_weight_column(tmp_path):
    path = write(tmp_path, "A\nx\n")
    with pytest.raises(DataError, match="weight column"):
        load_csv(path, weight_column="w")


def test_load_contingency_fisher(fisher):
    eye = fisher.variable("eye")
    hair = fisher.variable("hair")
    assert eye.categories == ["blue", "light", "medium", "dark"]
    assert hair.categories == ["fair", "red", "medium", "dark", "black"]
    assert fisher.total_weight == FISHER_TOTAL
    assert fisher.n_instances == 20  # every cell is nonzero


def test_load_contingency_single_cell(tmp_path):
    path = write(tmp_path, ",only\nrow,7\n")
    ds = load_contingency(path, "r", "c")
    assert ds.variable("r").k == 1
    assert ds.variable("c").k == 1
    assert ds.total_weight == 7.0


def test_load_contingency_skips_zero_cells(tmp_path):
    path = write(tmp_path, ",a,b\nu,3,0\nv,0,3\n")
    ds = load_contingency(path, "r", "c")
    assert ds.n_instances == 2
    assert ds.total_weight == 6.0


def test_load_contingency_negative_cell(tmp_path):
    path = write(tmp_path, ",a\nu,-1\n")
    with pytest.raises(DataError, match="line 2"):
        load_contingency(path, "r", "c")


def test_load_contingency_ragged(tmp_path):
    path = write(tmp_path, ",a,b\nu,1\n")
    with pytest.raises(DataError, match="line 2"):
        load_contingency(path, "r", "c")


def test_load_contingency_non_numeric_cell(tmp_path):
    path = write(tmp_path, ",a\nu,x\n")
    with pytest.raises(DataError, match="line 2"):
        load_contingency(path, "r", "c")


def test_load_contingency_same_names(tmp_path):
    path = write(tmp_path, ",a\nu,1\n")
    with pytest.raises(DataError):
        load_contingency(path, "x", "x")


def test_load_contingency_all_zero(tmp_path):
    path = write(tmp_path, ",a\nu,0\n")
    with pytest.raises(DataError):
        load_contingency(path, "r", "c")


def test_frequencies_fisher_eye(fisher):
    freqs = frequencies(fisher, "eye")
    expected = [m / FISHER_TOTAL for m in FISHER_EYE_MARGINALS]
    assert fisher.variable("eye").categories == ["blue", "light", "medium", "dark"]
    assert np.allclose(freqs, expected, atol=1e-15)
    assert abs(freqs.sum() - 1.0) <= 1e-12


def test_frequencies_single_category():
    ds = from_columns(["A"], [["x", "x", "x"]])
    assert np.array_equal(frequencies(ds, "A"), [1.0])


def test_frequencies_uniform():
    ds = from_columns(["A"], [["a", "b", "c", "d"] * 5])
    for p in frequencies(ds, "A"):
        assert abs(p - 0.25) <= 1e-12


def test_frequencies_unknown_variable(fisher):
    with pytest.raises(DataError, match="unknown variable"):
        frequencies(fisher, "nope")


def test_contingency_round_trip(fisher_path, fisher):
    table = joint_table(fisher, "eye", "hair")
    original = []
    for line in fisher_path.read_text().strip().split("\n")[1:]:
        original.append([float(c) for c in line.split(",")[1:]])
    assert np.array_equal(table, np.array(original))


def test_select_subset(fisher):
    sub = fisher.select(["hair"])
    assert sub.variable_names() == ["hair"]
    assert sub.total_weight == fisher.total_weight
    with pytest.raises(DataError):
        fisher.select([])


def test_instance_labels(fisher):
    labels = fisher.instance_labels()
    assert labels[0] == "blue-fair"
    assert len(set(labels)) == 20


def test_from_columns_validation():
    with pytest.raises(DataError):
        from_columns(["A", "A"], [["x"], ["y"]])
    with pytest.raises(DataError):
        from_columns(["A"], [[]])
    with pytest.raises(DataError):
        from_columns(["A"], [["x", "y"]], [1.0])
    with pytest.raises(DataError):
        from_columns(["A"], [["x"]], [-1.0])
    with pytest.raises(DataError):
        from_columns(["A"], [["x"]], [0.0])
