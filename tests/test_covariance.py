import numpy as np
import pytest

from rspca import (
    DataError,
    build_simplex,
    centred,
    correlation_matrix,
    covariance_matrix,
    covariance_svd,
    from_columns,
    load_contingency,
    pair_moments,
)
from rspca.synth import SyntheticSpec, generate
from .conftest import (
    FISHER_CSV,
    cross_double_sum,
    gini_double_sum,
    gini_variance,
    haar_orthogonal,
    permute_table_columns,
    random_dataset,
)
from .newton import covariance_newton


def product_table(tmp_path, row_weights, col_weights, scale=1):
    """Independent (rank-one) contingency table: cell = r_i * c_j * scale."""
    lines = ["," + ",".join(f"b{j}" for j in range(len(col_weights)))]
    for i, r in enumerate(row_weights):
        lines.append(f"a{i}," + ",".join(str(r * c * scale) for c in col_weights))
    path = tmp_path / "product.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_contingency(path, "r", "c")


def moment(dataset, var_i, var_j):
    """C_ij from pair_moments, looked up by name (var_i must not come after var_j)."""
    names = dataset.variable_names()
    key = (names.index(var_i), names.index(var_j))
    return next(centred(p) for i, j, p in pair_moments(dataset) if (i, j) == key)


def embedded(dataset, var_i, var_j):
    """The pair's cross matrix in simplex coordinates, V_i^T C_ij V_j."""
    v_i = build_simplex(dataset.variable(var_i).k)
    v_j = build_simplex(dataset.variable(var_j).k)
    return v_i.T @ moment(dataset, var_i, var_j) @ v_j


def diag_table(tmp_path):
    path = tmp_path / "diag.csv"
    path.write_text(",a,b\nu,3,0\nv,0,3\n", encoding="utf-8")
    return load_contingency(path, "r", "c")


def test_fisher_variances(fisher):
    assert abs(gini_variance(fisher, "eye") - 0.36409) <= 5e-5
    assert abs(gini_variance(fisher, "hair") - 0.34985) <= 5e-5


def test_single_category_variance_is_zero():
    ds = from_columns(["A"], [["x"] * 4])
    assert gini_variance(ds, "A") == 0.0


def test_single_category_covariances_are_exactly_zero():
    # non-dyadic weights: p = 1 only up to rounding, so the zero must not come from arithmetic
    ds = from_columns(
        ["A", "B", "C"],
        [["x", "y", "x", "z", "y"], ["k"] * 5, ["u", "v", "v", "u", "w"]],
        [0.1, 0.7, 0.3, 1.9, 0.35],
    )
    cov = covariance_matrix(ds)
    assert np.all(cov[1, :] == 0.0) and np.all(cov[:, 1] == 0.0)
    assert gini_variance(ds, "B") == 0.0
    assert cov[0, 2] > 0.0


def test_pair_moments_cover_upper_triangle_with_centred_blocks(fisher):
    seen = []
    for i, j, p in pair_moments(fisher):
        c = centred(p)
        seen.append((i, j))
        assert c.shape == (fisher.variables[i].k, fisher.variables[j].k)
        assert np.all(np.abs(c.sum(axis=0)) <= 1e-15) and np.all(np.abs(c.sum(axis=1)) <= 1e-15)
    assert seen == [(0, 0), (0, 1), (1, 1)]


def test_balanced_binary_variance_is_quarter():
    ds = from_columns(["A"], [["x", "y"] * 5])
    assert abs(gini_variance(ds, "A") - 0.25) <= 1e-15
    assert abs(gini_double_sum(ds, "A") - 0.25) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_gini_three_way_equivalence(seed):
    ds = random_dataset(np.random.default_rng(seed))
    for name in ds.variable_names():
        closed = gini_variance(ds, name)
        brute = gini_double_sum(ds, name)
        tr = float(np.trace(moment(ds, name, name))) / 2.0
        assert abs(closed - brute) <= 1e-10
        assert abs(closed - tr) <= 1e-10


def test_cross_matrix_independent_is_zero(tmp_path):
    ds = product_table(tmp_path, [1, 2, 3], [2, 1, 1, 4])
    a = moment(ds, "r", "c")
    assert np.all(np.abs(a) <= 1e-12)


def test_cross_matrix_diagonal_trace_is_variance(fisher):
    a = moment(fisher, "eye", "eye")
    assert abs(np.trace(a) / 2.0 - gini_variance(fisher, "eye")) <= 1e-10


def test_cross_matrix_perfect_binary_pair(tmp_path):
    ds = diag_table(tmp_path)
    a = embedded(ds, "r", "c")
    assert a.shape == (1, 1)
    assert abs(abs(a[0, 0]) - 0.25) <= 1e-12
    brute = cross_double_sum(ds, "r", "c")
    assert np.all(np.abs(a - brute) <= 1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_cross_matrix_matches_double_sum(seed):
    ds = random_dataset(np.random.default_rng(100 + seed), max_rows=60)
    fast = embedded(ds, "v0", "v1")
    slow = cross_double_sum(ds, "v0", "v1")
    assert np.all(np.abs(fast - slow) <= 1e-12)


def test_cross_matrix_transpose_symmetry(fisher):
    a_ij = moment(fisher, "eye", "hair")
    a_ji = moment(fisher.select(["hair", "eye"]), "hair", "eye")
    assert np.all(np.abs(a_ij - a_ji.T) <= 1e-12)


def test_diagonal_cross_matrix_is_psd(fisher):
    for name in ("eye", "hair"):
        a = moment(fisher, name, name)
        assert np.all(np.abs(a - a.T) <= 1e-12)
        assert np.all(np.linalg.eigvalsh((a + a.T) / 2) >= -1e-10)


def test_covariance_svd_scalar():
    assert covariance_svd(np.array([[-3.0]])) == 3.0
    assert covariance_svd(np.array([[0.0]])) == 0.0


def test_covariance_svd_zero_matrix():
    # no shortcut: the singular values of a zero matrix sum to exactly 0
    assert covariance_svd(np.zeros((2, 3))) == 0.0
    assert covariance_svd(np.zeros((3, 1))) == 0.0


def test_covariance_svd_fisher(fisher):
    cross = embedded(fisher, "eye", "hair")
    sigma = covariance_svd(cross)
    assert isinstance(sigma, float)
    assert abs(sigma - 0.081253) <= 5e-5
    assert abs(sigma - np.sqrt(np.maximum(np.linalg.eigvalsh(cross @ cross.T), 0.0)).sum()) <= 1e-10
    assert sigma >= 0


def test_covariance_svd_diagonal_rotation_is_identity(fisher):
    # a PSD block is its own best rotation: the Newton maximizer is I and sigma is the trace
    a = embedded(fisher, "eye", "eye")
    assert np.allclose(covariance_newton(a).rotation, np.eye(3), atol=1e-8)
    assert abs(covariance_svd(a) - np.trace(a)) <= 1e-12
    assert abs(covariance_svd(a) - gini_variance(fisher, "eye")) <= 1e-10


def test_sampled_rotations_never_beat_sigma(fisher):
    a = embedded(fisher, "eye", "hair")
    sigma = covariance_svd(a)
    padded = np.zeros((4, 4))
    padded[:3, :] = a
    rng = np.random.default_rng(5)
    rotations = haar_orthogonal(rng, 4, 300)
    traces = np.einsum("ij,kij->k", padded, rotations)
    assert traces.max() <= sigma + 1e-9


def test_covariance_newton_psd_diag():
    r = covariance_newton(np.diag([2.0, 3.0]))
    assert abs(r.sigma - 5.0) <= 1e-9
    assert np.allclose(r.rotation, np.eye(2), atol=1e-8)


def test_covariance_newton_scalar_negative():
    r = covariance_newton(np.array([[-4.0]]))
    assert abs(r.sigma - 4.0) <= 1e-10
    assert np.allclose(r.rotation, [[-1.0]], atol=1e-10)


def test_covariance_newton_matches_svd_random():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(3, 3))
    newton = covariance_newton(a)
    assert abs(newton.sigma - covariance_svd(a)) <= 1e-8
    singular = np.linalg.svd(a, compute_uv=False)
    assert np.all(np.abs(np.sort(newton.singular_values)[::-1] - singular) <= 1e-8)


def test_covariance_newton_rectangular(fisher):
    cross = embedded(fisher, "eye", "hair")
    newton = covariance_newton(cross)
    assert abs(newton.sigma - covariance_svd(cross)) <= 1e-8
    rot = newton.rotation
    assert rot.shape == (4, 4)
    assert np.allclose(rot @ rot.T, np.eye(4), atol=1e-9)


@pytest.mark.parametrize("classes,categories", [(2, 6), (3, 5), (4, 4)])
def test_covariance_matrix_matches_newton_on_synth_pairs(classes, categories):
    # the blocks the product sees: rows and columns sum to 0, so every C_ij is
    # rank-deficient and the stationarity Jacobian is singular at the solution
    ds, _ = generate(SyntheticSpec(rows=300, n_vars=4, n_planted=2, classes=classes,
                                   categories=categories, noise=0.3, seed=classes))
    cov = covariance_matrix(ds)
    for i, j, p in pair_moments(ds):
        c = centred(p)
        assert np.linalg.matrix_rank(c) < min(c.shape)
        # trace(A L^T) is first order in L's orthogonality residual: solve to 1e-14
        newton = covariance_newton(c, tolerance=1e-14).sigma / 2.0
        assert abs(cov[i, j] - newton) <= 1e-12


def test_covariance_matrix_fisher(fisher):
    cov = covariance_matrix(fisher)
    assert cov.shape == (2, 2)
    assert cov[0, 1] == cov[1, 0]
    assert abs(cov[0, 1] - 0.081253) <= 5e-5
    assert {round(cov[0, 0], 5), round(cov[1, 1], 5)} == {0.36409, 0.34985}


def test_covariance_matrix_single_variable():
    ds = from_columns(["A"], [["x", "y", "x"]])
    cov = covariance_matrix(ds)
    assert cov.shape == (1, 1)
    assert abs(cov[0, 0] - gini_variance(ds, "A")) <= 1e-15


def test_covariance_matrix_independent_pair(tmp_path):
    ds = product_table(tmp_path, [2, 3], [1, 1, 2])
    cov = covariance_matrix(ds)
    assert abs(cov[0, 1]) <= 1e-10


def test_correlation_fisher(fisher):
    rho = correlation_matrix(fisher)
    assert np.isfinite(rho).all()
    assert abs(rho[0, 1] - 0.2277) <= 5e-4
    assert rho[0, 0] == 1.0 and rho[1, 1] == 1.0


def test_correlation_zero_variance_flagged():
    ds = from_columns(["A", "B"], [["x", "y", "x", "y"], ["k", "k", "k", "k"]])
    rho = correlation_matrix(ds)
    assert np.array_equal(np.isnan(rho), [[False, True], [True, True]])
    assert rho[0, 0] == 1.0


def test_correlation_independent_pair(tmp_path):
    ds = product_table(tmp_path, [1, 1], [1, 1])
    rho = correlation_matrix(ds)
    assert np.isfinite(rho).all()
    assert abs(rho[0, 1]) <= 1e-10


def test_relabel_invariance(tmp_path):
    base = tmp_path / "base.csv"
    base.write_text(FISHER_CSV, encoding="utf-8")
    ds1 = load_contingency(base, "eye", "hair")
    permuted = tmp_path / "permuted.csv"
    permuted.write_text(permute_table_columns(FISHER_CSV, [4, 2, 0, 3, 1]), encoding="utf-8")
    ds2 = load_contingency(permuted, "eye", "hair")
    assert abs(gini_variance(ds1, "hair") - gini_variance(ds2, "hair")) <= 1e-10
    s1 = covariance_matrix(ds1)[0, 1]
    s2 = covariance_matrix(ds2)[0, 1]
    assert abs(s1 - s2) <= 1e-10
    r1 = correlation_matrix(ds1)
    r2 = correlation_matrix(ds2)
    assert abs(r1[0, 1] - r2[0, 1]) <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_binary_pair_brute_force(seed):
    rng = np.random.default_rng(200 + seed)
    table = rng.integers(1, 30, size=(2, 2)).astype(float)
    total = table.sum()
    p = table / total
    expected = abs(p[1, 1] - p[1, :].sum() * p[:, 1].sum())
    cols = []
    rows = []
    weights = []
    for i in range(2):
        for j in range(2):
            rows.append(f"r{i}")
            cols.append(f"c{j}")
            weights.append(table[i, j])
    ds = from_columns(["x", "y"], [rows, cols], weights)
    sigma = covariance_matrix(ds)[0, 1]
    assert abs(sigma - expected) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_nuclear_norm_is_max_over_sampled_rotations(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(1, 5))
    a = rng.normal(size=(n, n))
    sigma = covariance_svd(a)
    rotations = haar_orthogonal(rng, n, 1000)
    traces = np.einsum("ij,kij->k", a, rotations)
    assert traces.max() <= sigma + 1e-9


def test_unknown_variable_errors(fisher):
    with pytest.raises(DataError):
        gini_variance(fisher, "nope")
    with pytest.raises(DataError):
        fisher.select(["eye", "nope"])


@pytest.mark.parametrize("seed", range(12))
def test_correlation_bounded_by_one_empirically(seed):
    # no theorem guarantees |rho| <= 1 for this covariance; check it holds
    # on sampled datasets anyway
    ds = random_dataset(np.random.default_rng(500 + seed), n_vars=3, max_rows=120)
    rho = correlation_matrix(ds)
    defined = ~np.isnan(rho)
    assert np.all(np.abs(rho[defined]) <= 1 + 1e-9)


def test_correlation_is_nan_exactly_where_a_variance_is_zero():
    # 50 datasets with 0-2 constant columns; zero weights can also leave one category in use
    rng = np.random.default_rng(18)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        columns = [[f"c{c}" for c in rng.integers(0, rng.integers(1, 5), n)]
                   for _ in range(rng.integers(1, 4))]
        for _ in range(rng.integers(0, 3)):
            columns.insert(int(rng.integers(0, len(columns) + 1)), ["k"] * n)
        weights = np.round(rng.uniform(0.0, 3.0, n), 1)
        weights[0] = 1.0
        ds = from_columns([f"v{i}" for i in range(len(columns))], columns, weights)
        positive = np.diag(covariance_matrix(ds)) > 0
        rho = correlation_matrix(ds)
        defined = np.outer(positive, positive)
        assert np.array_equal(np.isnan(rho), ~defined)
        assert np.all(np.isfinite(rho[defined]))
        assert np.all(np.abs(rho[defined]) <= 1 + 1e-9)


def test_instance_csv_with_weights_matches_contingency(tmp_path, fisher):
    lines = ["eye,hair,count"]
    eye_cats = ["blue", "light", "medium", "dark"]
    hair_cats = ["fair", "red", "medium", "dark", "black"]
    table = joint_table_rows()
    for i, row in enumerate(table):
        for j, count in enumerate(row):
            lines.append(f"{eye_cats[i]},{hair_cats[j]},{count}")
    path = tmp_path / "fisher_rows.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    from rspca import load_csv

    ds = load_csv(path, weight_column="count")
    assert ds.total_weight == 5387.0
    sigma_rows = covariance_matrix(ds)[0, 1]
    sigma_table = covariance_matrix(fisher)[0, 1]
    assert abs(sigma_rows - sigma_table) <= 1e-12


def joint_table_rows():
    return [
        [326, 38, 241, 110, 3],
        [688, 116, 584, 188, 4],
        [343, 84, 909, 412, 26],
        [98, 48, 403, 681, 85],
    ]
