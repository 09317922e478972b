"""The pair loop's grouped passes against one joint table per pair, and the invariances its
exactness rule relies on: row order, duplicated rows and power-of-two weight scales.

Every variant of a dataset is built from the same ``categories`` lists, so category order,
and with it the model's coordinates, stays fixed.
"""

import numpy as np
import pytest

from rspca import (CategoricalDataset, CategoricalVariable, build_simplex, covariance_matrix, fit,
                   pair_moments, scores)
from rspca import covariance as covariance_module
from .conftest import frequencies, joint_table


def dataset_of(ks, codes, weights) -> CategoricalDataset:
    """Variables v0, v1, ... with ``ks[i]`` categories and codes ``codes[i]``, uint8 up to 256
    categories and uint16 past them, as the loaders store them."""
    return CategoricalDataset(
        [CategoricalVariable(f"v{i}", [f"c{a}" for a in range(k)],
                             np.asarray(c, dtype=np.uint8 if k <= 256 else np.uint16))
         for i, (k, c) in enumerate(zip(ks, codes))],
        np.asarray(weights, dtype=float))


def random_dataset(rng, ks, n, weights="integral") -> CategoricalDataset:
    codes = [rng.integers(0, k, n) for k in ks]
    w = rng.integers(0, 4, n) if weights == "integral" else rng.uniform(0.0, 2.0, n)
    w[0] = max(w[0], 1.0)  # a positive total
    return dataset_of(ks, codes, w)


def reference_pair_moments(dataset):
    """The pair loop as one ``joint_table`` per pair i <= j, in row-major order: (i, j, P_ij),
    with the diagonal of P_ii, the 1-way distribution p_i, for i == j."""
    names, total = dataset.variable_names(), dataset.total_weight
    for i in range(len(names)):
        for j in range(i, len(names)):
            table = joint_table(dataset, names[i], names[j])
            yield i, j, (np.diag(table) if i == j else table) / total


def assert_same_moments(got, want):
    """Both hold each pair once, in any order, with byte-equal tables."""
    got, want = sorted(got, key=lambda m: m[:2]), sorted(want, key=lambda m: m[:2])
    assert [m[:2] for m in got] == [m[:2] for m in want]
    for (i, j, a), (_, _, b) in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), (i, j)


def assert_distributions(moments):
    """Each P_ij and p_i is nonnegative and sums to 1; each p_i is 1-D."""
    for i, j, p in moments:
        assert np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-12, (i, j)
        assert p.ndim == (1 if i == j else 2), (i, j)


def reference_mean(dataset):
    """The model's mean as one ``frequencies`` bincount per variable, in simplex coordinates."""
    return np.concatenate([frequencies(dataset, var.name) @ build_simplex(var.k)
                           for var in dataset.variables])


# category counts in file order: k = 1, products under 256 (8 x 8, 2 x 32, 5 x 13), an odd
# count, one variable, wide neighbours, and products of exactly 256 (1 x 256, 16 x 16) and 272
# (16 x 17, 17 x 16); "deep" has a pass over 2 x 120 x 300 = 72 000 bins, past a uint16 key
PLANS = {
    "mixed": [3, 1, 8, 8, 2, 32, 5, 13, 6, 4, 4],
    "one": [5],
    "ones": [1, 1, 1],
    "wide": [2, 70, 3, 3, 2],
    "boundary": [1, 256, 16, 16, 16, 17, 16],
    "deep": [2, 120, 300, 3],
}
# the groups of a plan's integral-weight datasets: k_a * k_b <= 256 shares
PLAN_GROUPS = {
    "mixed": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10]],
    "boundary": [[0, 1], [2, 3], [4], [5], [6]],
    "deep": [[0, 1], [2], [3]],
}


@pytest.mark.parametrize("plan", list(PLANS))
@pytest.mark.parametrize("seed", range(4))
def test_grouped_and_singleton_passes_give_bit_equal_moments(monkeypatch, plan, seed):
    rng = np.random.default_rng(seed)
    ks = PLANS[plan]
    n = int(rng.integers(1, 400))
    datasets = [random_dataset(rng, ks, n), random_dataset(rng, ks, n, "fractional")]
    groups = covariance_module._groups(datasets[0])
    if plan in PLAN_GROUPS:
        assert groups == PLAN_GROUPS[plan]
    grouped = [list(pair_moments(dataset)) for dataset in datasets]
    for dataset, moments in zip(datasets, grouped):
        assert_same_moments(moments, reference_pair_moments(dataset))
        assert_distributions(moments)
        if sum(ks) > len(ks):  # some variable has two categories: there is a model
            mean = fit(dataset).mean
            assert mean.tobytes() == reference_mean(dataset).tobytes()
            # the definition: the weighted average of the instances' simplex coordinates
            points = np.hstack([build_simplex(var.k)[var.codes] for var in dataset.variables])
            np.testing.assert_allclose(mean, dataset.weights @ points / dataset.total_weight,
                                       rtol=0, atol=1e-12)
    monkeypatch.setattr(covariance_module, "_GROUP_BINS", 0)
    for dataset, moments in zip(datasets, grouped):
        assert all(len(members) == 1 for members in covariance_module._groups(dataset))
        assert_same_moments(pair_moments(dataset), moments)


def test_fractional_or_huge_weights_keep_every_variable_alone():
    rng = np.random.default_rng(5)
    ks = [2, 3, 4]
    integral = random_dataset(rng, ks, 50)
    half = dataset_of(ks, [v.codes for v in integral.variables], integral.weights + 0.5)
    huge = dataset_of(ks, [v.codes for v in integral.variables], integral.weights * 2.0**52)
    assert len(covariance_module._groups(integral)) == 2
    for dataset in (half, huge):
        assert len(covariance_module._groups(dataset)) == 3
        assert_same_moments(pair_moments(dataset), reference_pair_moments(dataset))


def results(dataset):
    """Covariances, the model's arrays and the 3-component scores of a dataset."""
    model = fit(dataset)
    return (covariance_matrix(dataset), model.eigenvalues, model.eigenvectors, model.mean,
            scores(model, dataset, 3))


def distances(values):
    """Pairwise Euclidean distances between rows of scores."""
    return np.sqrt(((values[:, None, :] - values[None, :, :]) ** 2).sum(axis=2))


INVARIANCE_KS = [3, 4, 2, 6, 5]


@pytest.mark.parametrize("weights", ["integral", "fractional"])
@pytest.mark.parametrize("seed", range(3))
def test_permuting_rows_changes_nothing(weights, seed):
    rng = np.random.default_rng(seed)
    dataset = random_dataset(rng, INVARIANCE_KS, 120, weights)
    order = rng.permutation(dataset.n_instances)
    permuted = dataset_of(INVARIANCE_KS, [v.codes[order] for v in dataset.variables],
                          dataset.weights[order])
    (cov, evals, _, _, values), (cov_p, evals_p, _, _, values_p) = \
        results(dataset), results(permuted)
    got = [cov_p, evals_p, distances(values_p)]
    want = [cov, evals, distances(values[order])]
    for a, b in zip(got, want):
        if weights == "integral":
            assert a.tobytes() == b.tobytes()
        else:
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_a_duplicated_row_is_a_doubled_weight(seed):
    rng = np.random.default_rng(seed)
    dataset = random_dataset(rng, INVARIANCE_KS, 80)
    row = int(rng.integers(dataset.n_instances))
    order = np.insert(np.arange(dataset.n_instances), row, row)
    duplicated = dataset_of(INVARIANCE_KS, [v.codes[order] for v in dataset.variables],
                            dataset.weights[order])
    doubled = dataset.weights.copy()
    doubled[row] *= 2
    doubled = dataset_of(INVARIANCE_KS, [v.codes for v in dataset.variables], doubled)
    got, want = results(duplicated), results(doubled)
    for a, b in zip(got[:4], want[:4]):
        assert a.tobytes() == b.tobytes()
    assert got[4][row].tobytes() == got[4][row + 1].tobytes()  # the row and its copy
    assert got[4][np.arange(len(order)) != row + 1].tobytes() == want[4].tobytes()


@pytest.mark.parametrize("weights", ["integral", "fractional"])
@pytest.mark.parametrize("power", [-7, -1, 3, 40])
def test_scaling_weights_by_a_power_of_two_changes_nothing(weights, power):
    rng = np.random.default_rng(power + 100)
    dataset = random_dataset(rng, INVARIANCE_KS, 150, weights)
    scaled = dataset_of(INVARIANCE_KS, [v.codes for v in dataset.variables],
                        dataset.weights * 2.0**power)
    for a, b in zip(results(scaled), results(dataset)):
        assert a.tobytes() == b.tobytes()
