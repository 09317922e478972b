import tracemalloc

import numpy as np
import pytest

from rspca import (
    CategoricalDataset,
    CategoricalVariable,
    DataError,
    build_simplex,
    fit,
    interpret,
    load_contingency,
    scores,
    variable_importance,
)
from rspca.pca import _pursue, make_layout
from rspca.dataset import SyntheticSpec, generate
from . import joined
from .conftest import (
    FISHER_CSV,
    atom_vector,
    block_model,
    cross_double_sum,
    dictionary_pursuit,
    embedded_rows,
    from_columns,
    gini_variance,
    permute_table_columns,
    random_dataset,
)


def binary_pair():
    return from_columns(
        ["u", "v"],
        [["a", "a", "b", "b", "a", "b"], ["x", "y", "x", "y", "y", "x"]],
    )


def lrsv_rows(dataset):
    """Concatenated simplex coordinates of every instance, N x dim."""
    names = dataset.variable_names()
    return np.concatenate([embedded_rows(dataset, name) for name in names], axis=1)


def test_lrsv_vector_fisher(fisher):
    # the score of instance 0 (blue, fair) projects its concatenated vertices
    model = fit(fisher)
    vec = np.concatenate([build_simplex(4)[0], build_simplex(5)[0]])
    assert vec.shape == (7,)
    expected = (vec - model.mean) @ model.eigenvectors
    assert np.all(np.abs(scores(model, fisher, 7)[0] - expected) <= 1e-12)


def test_lrsv_vector_binary_orientation():
    # scores are an isometry of the coordinates: one category apart is one
    # unit edge, both apart is the diagonal of the unit square
    ds = binary_pair()
    values = scores(fit(ds), ds, 2)
    assert abs(np.linalg.norm(values[0] - values[1]) - 1.0) <= 1e-12  # (a, x) vs (a, y)
    assert abs(np.linalg.norm(values[0] - values[3]) - np.sqrt(2.0)) <= 1e-12  # (a, x) vs (b, y)
    assert np.array_equal(values[1], values[4])  # both (a, y)


def test_lrsv_vector_all_single_category():
    ds = from_columns(["A", "B"], [["x", "x"], ["y", "y"]])
    assert make_layout(ds).dim == 0
    with pytest.raises(DataError):
        fit(ds)


def test_fit_blocks_equal_cross_matrices(fisher):
    model = fit(fisher)
    layout = model.layout
    # reassemble the block matrix from the eigendecomposition and compare blocks
    block_cov = model.eigenvectors @ np.diag(model.eigenvalues) @ model.eigenvectors.T
    for i, vi in enumerate(layout.names):
        for j, vj in enumerate(layout.names):
            expected = cross_double_sum(fisher, vi, vj)
            got = block_cov[layout.block(i), layout.block(j)]
            assert np.all(np.abs(got - expected) <= 1e-12)


def test_fit_trace_conservation(fisher):
    model = fit(fisher)
    total = sum(gini_variance(fisher, n) for n in fisher.variable_names())
    assert abs(model.eigenvalues.sum() - total) <= 1e-8


def test_fit_eigenvalues_sorted_nonnegative(fisher):
    model = fit(fisher)
    assert np.all(np.diff(model.eigenvalues) <= 1e-15)
    assert np.all(model.eigenvalues >= -1e-10)


def test_fit_eigenvectors_orthonormal(fisher):
    model = fit(fisher)
    gram = model.eigenvectors.T @ model.eigenvectors
    assert np.all(np.abs(gram - np.eye(7)) <= 1e-10)


def test_fit_sign_convention(fisher):
    model = fit(fisher)
    for m in range(model.n_components):
        vec = model.eigenvectors[:, m]
        assert vec[np.argmax(np.abs(vec))] > 0


def test_fit_is_deterministic(fisher):
    m1 = fit(fisher)
    m2 = fit(fisher)
    assert m1.eigenvalues.tobytes() == m2.eigenvalues.tobytes()
    assert m1.eigenvectors.tobytes() == m2.eigenvectors.tobytes()


def test_fit_single_balanced_binary_variable():
    ds = from_columns(["A"], [["x", "y"] * 4])
    model = fit(ds)
    assert model.n_components == 1
    assert abs(model.eigenvalues[0] - 0.25) <= 1e-12


def test_independent_balanced_binaries_give_quarter_eigenvalues():
    # product design: all 4 combinations equally often -> block-diagonal covariance
    ds = from_columns(
        ["u", "v"],
        [["a", "a", "b", "b"], ["x", "y", "x", "y"]],
    )
    model = fit(ds)
    assert np.all(np.abs(model.eigenvalues - 0.25) <= 1e-10)


def test_scores_centered_and_variance_matches_eigenvalues(fisher):
    model = fit(fisher)
    values = scores(model, fisher, 7)
    w = fisher.weights
    total = w.sum()
    for m in range(7):
        col = values[:, m]
        mean = float(w @ col) / total
        var = float(w @ (col - mean) ** 2) / total
        assert abs(mean) <= 1e-10
        assert abs(var - model.eigenvalues[m]) <= 1e-8


def test_scores_fisher_has_20_labeled_points(fisher):
    model = fit(fisher)
    assert scores(model, fisher, 2).shape == (20, 2)
    labels = fisher.instance_labels()
    assert len(labels) == 20
    assert len(set(labels)) == 20
    assert "light-fair" in labels


def test_scores_validation(fisher):
    model = fit(fisher)
    with pytest.raises(DataError):
        scores(model, fisher, 0)
    with pytest.raises(DataError):
        scores(model, fisher, 8)
    other = binary_pair()
    with pytest.raises(DataError):
        scores(model, other, 2)
    # the model's names, but one fewer category for hair: the widths differ
    narrow = from_columns(["eye", "hair"], [["light", "blue", "dark"], ["fair", "red", "red"]])
    with pytest.raises(DataError, match="does not match the fitted model layout"):
        scores(model, narrow, 2)


def test_scores_refuses_a_dataset_whose_categories_differ_from_the_models():
    # the model's names and widths, but x's categories appear in another order
    model = fit(from_columns(["x"], [["p", "q", "p", "r"]]))
    other = from_columns(["x"], [["q", "p", "r", "p"]])
    with pytest.raises(DataError, match="^dataset does not match the fitted model layout$"):
        scores(model, other, 2)


def test_scores_hold_no_n_by_k_gather():
    # 200 000 rows: an N x 2 gather of a score table would cost 16 B per row beyond the result
    rng = np.random.default_rng(20)
    ks = [2 + j % 17 for j in range(20)]
    dataset = CategoricalDataset(
        [CategoricalVariable(f"v{j}", [f"c{c}" for c in range(k)],
                             rng.integers(0, k, 200_000).astype(np.uint8))
         for j, k in enumerate(ks)],
        np.ones(200_000))
    model = fit(dataset)
    tracemalloc.start()
    try:
        values = scores(model, dataset, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - values.nbytes < 8 * 200_000
    # the whole-column gather it replaces gives the same bits
    expected = np.zeros_like(values)
    for i, var in enumerate(dataset.variables):
        block = model.layout.block(i)
        table = (build_simplex(var.k) - model.mean[block]) @ model.eigenvectors[block, :2]
        expected += table[var.codes]
    assert values.tobytes() == expected.tobytes()


def test_score_isometry(fisher):
    model = fit(fisher)
    values = scores(model, fisher, 7)
    centered = lrsv_rows(fisher) - model.mean
    for a in range(0, 20, 3):
        for b in range(1, 20, 4):
            d_score = np.linalg.norm(values[a] - values[b])
            d_lrsv = np.linalg.norm(centered[a] - centered[b])
            assert abs(d_score - d_lrsv) <= 1e-9


def test_interpret_single_atom_component():
    ds = from_columns(["A"], [["x", "y"] * 3])
    model = fit(ds)
    result = interpret(model, 1)
    assert len(result.terms) == 1
    coef, atom = result.terms[0]
    assert atom.kind == "edge"
    assert abs(abs(coef) - 1.0) <= 1e-10
    assert result.residual_norm <= 1e-10


def test_interpret_fisher_dominant_atoms(fisher):
    model = fit(fisher)
    pc1 = interpret(model, 1)
    (c1, a1), (c2, a2) = pc1.terms[:2]
    assert a1.variable == "hair" and a1.kind == "edge"
    assert {a1.from_category, a1.to_category} == {0, 2}  # fair, medium
    assert abs(abs(c1) - 0.7640) <= 1e-3
    assert a2.variable == "eye" and a2.kind == "edge"
    assert {a2.from_category, a2.to_category} == {1, 2}  # light, medium
    assert abs(abs(c2) - 0.6322) <= 1e-3

    pc2 = interpret(model, 2)
    (c1, a1), (c2, a2) = pc2.terms[:2]
    assert a1.variable == "hair" and {a1.from_category, a1.to_category} == {2, 3}
    assert abs(abs(c1) - 0.6781) <= 1e-3
    assert a2.variable == "eye" and {a2.from_category, a2.to_category} == {1, 3}
    assert abs(abs(c2) - 0.6421) <= 1e-3


def test_interpret_terms_sorted(fisher):
    model = fit(fisher)
    result = interpret(model, 2)
    mags = [abs(c) for c, _ in result.terms]
    assert mags == sorted(mags, reverse=True)


def test_interpret_reconstruction(fisher):
    model = fit(fisher)
    layout = model.layout
    for m in range(1, 8):
        result = interpret(model, m)
        recon = np.zeros(layout.dim)
        block_of = {name: layout.block(i) for i, name in enumerate(layout.names)}
        for coef, atom in result.terms:
            recon[block_of[atom.variable]] += coef * atom_vector(atom, fisher.variable(atom.variable).k)
        resid = np.linalg.norm(model.eigenvectors[:, m - 1] - recon)
        assert abs(resid - result.residual_norm) <= 1e-12


def test_interpret_residual_monotone_in_max_terms(fisher):
    model = fit(fisher)
    residuals = [interpret(model, 2, max_terms=t).residual_norm for t in (1, 2, 3, 4)]
    for earlier, later in zip(residuals, residuals[1:]):
        assert later <= earlier + 1e-15


def test_interpret_reports_unreached_eps(fisher):
    model = fit(fisher)
    result = interpret(model, 1, max_terms=1, eps=1e-9)
    assert result.residual_norm > 1e-9


def test_interpret_eps_one_keeps_every_block_whole(fisher):
    # the residual starts at exactly eps times the block norm, so nothing is picked
    model = fit(fisher)
    for m in range(1, 8):
        result = interpret(model, m, eps=1.0)
        assert result.terms == [] and abs(result.residual_norm - 1.0) <= 1e-12


def test_interpret_validation(fisher):
    model = fit(fisher)
    with pytest.raises(DataError):
        interpret(model, 0)
    with pytest.raises(DataError):
        interpret(model, 8)
    with pytest.raises(DataError):
        interpret(model, 1, max_terms=0)


@pytest.mark.parametrize("eps", [float("nan"), -0.01, float("inf")])
def test_interpret_rejects_bad_eps(fisher, eps):
    with pytest.raises(DataError, match="eps"):
        interpret(fit(fisher), 1, eps=eps)


def assert_matches_dictionary_pursuit(block, max_terms, eps, where):
    result = interpret(block_model([block]), 1, max_terms=max_terms, eps=eps)
    terms, residual = dictionary_pursuit(block, "v0", max_terms, eps)
    got = {(a.kind, a.from_category, a.to_category): c for c, a in result.terms}
    want = {(a.kind, a.from_category, a.to_category): c for c, a in terms}
    assert got.keys() == want.keys(), where
    assert all(abs(got[key] - want[key]) <= 1e-12 for key in want), where
    assert abs(result.residual_norm - residual) <= 1e-12, where


def test_interpret_matches_dictionary_pursuit():
    # 29 category counts x 18 seeded Gaussian blocks, max_terms 1-4, three eps;
    # eps > 0 keeps both from picking atoms on roundoff once a block is spent
    rng = np.random.default_rng(2007)
    for k in range(2, 31):
        for trial in range(18):
            max_terms, eps = 1 + trial % 4, (1e-9, 0.05, 0.3)[trial % 3]
            assert_matches_dictionary_pursuit(rng.normal(size=k - 1), max_terms, eps, (k, trial))


def test_pursuit_breaks_exact_ties_in_dictionary_order():
    # loadings given exactly, so the ties are exact in floating point too
    # centers 0 and 1 tie and beat every edge: the lower index goes first
    coefs, _ = _pursue(np.array([1.0, 1.0] + [-0.25] * 8), 0.0, 1)
    assert coefs == {(0, 0): 20 / 9}
    # lows {0, 3} and highs {1, 2}: the first argmin and the first argmax
    coefs, _ = _pursue(np.array([-1.0, 1.0, 1.0, -1.0]), 0.0, 1)
    assert coefs == {(0, 1): 2.0}
    # k = 2: the center ties the unit edge, and the edge is taken
    coefs, residual_sq = _pursue(np.array([0.5, -0.5]), 0.0, 1)
    assert coefs == {(0, 1): -1.0} and residual_sq == 0.0


def test_interpret_matches_dictionary_pursuit_on_exact_ties():
    # integer loadings g tie exactly, but V (2 V^T g) = g - mean(g) holds only to the last
    # bits: correlations within 1e-9 are ties for the earlier atom, not left to roundoff
    rng = np.random.default_rng(4)
    blocks = 0
    for k in range(2, 16):
        vertices = build_simplex(k)
        for trial in range(40):
            block = 2.0 * vertices.T @ rng.integers(-3, 4, size=k).astype(float)
            if not block.any():
                continue
            blocks += 1
            assert_matches_dictionary_pursuit(block, 1 + trial % 4, 0.05, (k, trial))
    assert blocks == 549


def test_pursuit_picks_no_atom_for_roundoff():
    # with eps 0, loadings one edge away from a few exact atoms used to be
    # chased past zero, picking atoms with coefficients near 1e-15
    rng = np.random.default_rng(0)
    for trial in range(1000):
        k = int(rng.integers(2, 8))
        g = np.zeros(k)
        a, b = rng.choice(k, 2, replace=False)
        g[b], g[a] = 0.5, -0.5
        if rng.random() < 0.5:
            g += rng.normal(size=k) * 0.3
        g -= g.mean()
        floor = 1e-10 * np.linalg.norm(g)
        coefs, _ = _pursue(g.copy(), 0.0, 4)
        assert all(abs(c) > floor for c in coefs.values()), (trial, g.tolist(), coefs)


def test_interpret_400_categories_stays_under_16mb():
    # all 80,200 atom vectors of a 400-category variable would take 256 MB
    model = block_model([np.random.default_rng(400).normal(size=399)])
    tracemalloc.start()
    try:
        result = interpret(model, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.terms
    assert peak < 16 * 2**20


def test_scree_fisher(fisher):
    model = fit(fisher)
    values = list(model.eigenvalues)
    assert len(values) == 7
    assert values == sorted(values, reverse=True)


def test_scree_knee_with_planted_block():
    # 20 strongly inter-correlated variables against 47 independent ones:
    # exactly the leading 20 modes should stand clear of the noise bulk
    spec = SyntheticSpec(rows=3000, n_vars=67, n_planted=20, classes=21,
                         categories=4, noise=0.05, seed=13)
    ds, _ = generate(spec)
    ev = fit(ds).eigenvalues
    assert ev[19] / ev[20] > 1.8
    assert np.all(ev[:20] > 0.35)
    assert np.all(ev[20:] < 0.19)


def test_variable_importance_single_variable():
    ds = from_columns(["A"], [["x", "y", "z", "x"]])
    model = fit(ds)
    ranked = variable_importance(model, 2)
    assert ranked[0][0] == "A"
    assert abs(ranked[0][1] - model.eigenvalues[:2].sum()) <= 1e-12


def test_variable_importance_constant_variable_scores_zero():
    ds = from_columns(["A", "B"], [["x", "y", "x", "y"], ["k", "k", "k", "k"]])
    model = fit(ds)
    ranked = dict(variable_importance(model, 1))
    assert ranked["B"] == 0.0
    assert ranked["A"] > 0.2


def test_variable_importance_planted_pair():
    rng = np.random.default_rng(99)
    n = 300
    latent = rng.integers(0, 2, size=n)
    cols, names = [], []
    for i in range(2):
        noisy = np.where(rng.random(n) < 0.05, 1 - latent, latent)
        cols.append([f"c{v}" for v in noisy])
        names.append(f"p{i}")
    for i in range(5):
        # low-variance independent columns: heavily skewed binary
        skew = (rng.random(n) < 0.06).astype(int)
        cols.append([f"c{v}" for v in skew])
        names.append(f"n{i}")
    ds = from_columns(names, cols)
    ranked = variable_importance(fit(ds), 2)
    assert {ranked[0][0], ranked[1][0]} == {"p0", "p1"}


@pytest.mark.parametrize("seed", range(3))
def test_variable_importance_matches_the_block_loop(seed):
    # single-category variables (width-0 blocks) come first, in the middle and last
    rng = np.random.default_rng(700 + seed)
    n = 50
    names = ["one1", "a", "one2", "b", "c", "one3"]
    columns = [[f"c{v}" for v in rng.integers(0, k, size=n)] for k in (1, 4, 1, 3, 6, 1)]
    model = fit(from_columns(names, columns, rng.uniform(0.5, 2.0, size=n)))
    for count in range(1, model.n_components + 1):
        got = dict(variable_importance(model, count))
        want = joined.variable_importance(model, count)
        assert np.allclose([got[name] for name in names], want, rtol=1e-12, atol=1e-15)


def test_refit_subset_all_variables_matches_fit(fisher):
    full = fit(fisher)
    again = fit(fisher.select(["eye", "hair"]))
    assert np.all(np.abs(full.eigenvalues - again.eigenvalues) <= 1e-10)


def test_refit_subset_single_variable_trace(fisher):
    model = fit(fisher.select(["hair"]))
    assert abs(model.eigenvalues.sum() - gini_variance(fisher, "hair")) <= 1e-10


def test_refit_subset_validation(fisher):
    with pytest.raises(DataError):
        fit(fisher.select([]))
    with pytest.raises(DataError):
        fit(fisher.select(["eye", "nope"]))


def match_instances(ds_a, ds_b):
    """Index mapping so that ds_b[j] has the same labels as ds_a[i]."""
    labels_b = {label: j for j, label in enumerate(ds_b.instance_labels())}
    return [labels_b[label] for label in ds_a.instance_labels()]


def test_relabel_equivariance(tmp_path):
    base = tmp_path / "base.csv"
    base.write_text(FISHER_CSV, encoding="utf-8")
    ds1 = load_contingency(base, "eye", "hair")
    permuted = tmp_path / "permuted.csv"
    permuted.write_text(permute_table_columns(FISHER_CSV, [3, 0, 4, 1, 2]), encoding="utf-8")
    ds2 = load_contingency(permuted, "eye", "hair")

    m1, m2 = fit(ds1), fit(ds2)
    assert np.all(np.abs(m1.eigenvalues - m2.eigenvalues) <= 1e-9)

    s1 = scores(m1, ds1, 7)
    s2 = scores(m2, ds2, 7)[match_instances(ds1, ds2)]
    d1 = np.linalg.norm(s1[:, None, :] - s1[None, :, :], axis=2)
    d2 = np.linalg.norm(s2[:, None, :] - s2[None, :, :], axis=2)
    assert np.all(np.abs(d1 - d2) <= 1e-9)


def test_degenerate_spectrum_eigenvalues_only():
    # two exchangeable balanced binaries: eigenvalues are (1/4 + c, 1/4 - c)
    ds = binary_pair()
    model = fit(ds)
    assert abs(model.eigenvalues.sum() - 0.5) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_random_dataset_model_invariants(seed):
    ds = random_dataset(np.random.default_rng(400 + seed), n_vars=3, max_rows=80)
    layout = make_layout(ds)
    if layout.dim < 1:
        return
    model = fit(ds)
    total = sum(gini_variance(ds, n) for n in ds.variable_names())
    assert abs(model.eigenvalues.sum() - total) <= 1e-8
    assert np.all(model.eigenvalues >= -1e-10)
    gram = model.eigenvectors.T @ model.eigenvectors
    assert np.all(np.abs(gram - np.eye(layout.dim)) <= 1e-10)


@pytest.mark.parametrize("seed", [0, 1])
def test_fit_is_bit_identical_to_whole_matrix_reference(fisher, seed):
    wide, _ = generate(SyntheticSpec(rows=800, n_vars=5, n_planted=2, categories=30, seed=seed))
    for dataset in (fisher, wide, random_dataset(np.random.default_rng(seed), n_vars=4)):
        model = fit(dataset)
        evals, evecs = joined.fit_eigenpairs(dataset)
        assert np.array_equal(model.eigenvalues, evals)
        assert np.array_equal(model.eigenvectors, evecs)


def test_fit_holds_two_dim_squared_arrays_at_its_peak():
    # the block matrix and eigh's eigenvectors; the copies made for the symmetry
    # check, the averaging, the reordering and the sign flip took the peak past 4
    dataset, _ = generate(SyntheticSpec(rows=2000, n_vars=6, n_planted=0, categories=100, seed=3))
    tracemalloc.start()
    try:
        model = fit(dataset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dim = model.layout.dim
    assert dim == 594
    assert peak < 3 * dim * dim * 8
