import tracemalloc

import pytest

from rspca import DataError, fit, load_csv, variable_importance
from rspca.dataset import SyntheticSpec, generate, planted_positions
from .conftest import to_csv_text


def test_generation_is_deterministic():
    spec = SyntheticSpec(rows=50, seed=123)
    text1 = to_csv_text(generate(spec)[0])
    text2 = to_csv_text(generate(spec)[0])
    assert text1 == text2


def test_different_seeds_differ():
    a = to_csv_text(generate(SyntheticSpec(rows=50, seed=1))[0])
    b = to_csv_text(generate(SyntheticSpec(rows=50, seed=2))[0])
    assert a != b


def test_planted_positions_spread():
    assert planted_positions(10, 3) == [3, 6, 9]
    assert planted_positions(6, 2) == [2, 5]
    assert planted_positions(4, 4) == [0, 1, 2, 3]
    assert planted_positions(5, 0) == []


def test_planted_names_and_shape():
    ds, planted = generate(SyntheticSpec(rows=30, seed=5))
    assert len(ds.variables) == 10
    assert ds.n_instances == 30
    assert planted == ["planted1", "planted2", "planted3"]
    assert set(planted) < set(ds.variable_names())


def test_csv_round_trip(tmp_path):
    ds, _ = generate(SyntheticSpec(rows=40, seed=9))
    path = tmp_path / "synth.csv"
    path.write_text(to_csv_text(ds), encoding="utf-8")
    loaded = load_csv(path)
    assert loaded.variable_names() == ds.variable_names()
    for a, b in zip(loaded.variables, ds.variables):
        assert a.categories == b.categories
        assert list(a.codes) == list(b.codes)


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_selection_recovers_planted_set(seed):
    ds, planted = generate(SyntheticSpec(seed=seed))
    ranked = variable_importance(fit(ds), 2)
    top3 = {name for name, _ in ranked[:3]}
    assert top3 == set(planted)


def test_generator_validation():
    with pytest.raises(DataError):
        generate(SyntheticSpec(rows=0))
    with pytest.raises(DataError):
        generate(SyntheticSpec(n_planted=11))
    with pytest.raises(DataError):
        generate(SyntheticSpec(classes=1))
    with pytest.raises(DataError, match="^classes and categories must be at most 4096$"):
        generate(SyntheticSpec(categories=4097))
    with pytest.raises(DataError):
        generate(SyntheticSpec(noise=1.5))
    with pytest.raises(DataError, match="^seed must be >= 0$"):
        generate(SyntheticSpec(seed=-1))


def test_generate_builds_no_label_per_cell():
    # 800 000 cells: one label string per cell peaked at about 47 MB; the codes take 0.8 MB
    tracemalloc.start()
    try:
        ds, _ = generate(SyntheticSpec(rows=20000, n_vars=40, categories=6, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(var.codes.nbytes for var in ds.variables) == 20000 * 40
    assert peak < 5 * 2**20
