import numpy as np
import pytest

from rspca import NumericalError, numerics
from rspca.numerics import svd, sym_eig
from . import joined
from .conftest import haar_orthogonal
from .newton import newton_orthogonal_stationarity


def test_svd_identity():
    s = svd(np.eye(3))
    assert np.allclose(s, [1, 1, 1])


def test_svd_sign_diag():
    s = svd(np.diag([3.0, -2.0]))
    assert np.allclose(s, [3.0, 2.0])
    # singular values are the square roots of the eigenvalues of m^T m, nonincreasing
    m = np.random.default_rng(42).normal(size=(5, 4))
    s = svd(m)
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
    assert np.allclose(s ** 2, np.sort(np.linalg.eigvalsh(m.T @ m))[::-1], atol=1e-10)


def test_svd_rejects_non_finite():
    with pytest.raises(NumericalError):
        svd(np.array([[1.0, np.nan]]))


def test_nuclear_norm_rotation_invariance():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4))
    base = svd(m).sum()
    for q1, q2 in zip(haar_orthogonal(rng, 4, 5), haar_orthogonal(rng, 4, 5)):
        rotated = q1 @ m @ q2
        assert abs(svd(rotated).sum() - base) <= 1e-9


def test_sym_eig_diag():
    evals, _ = sym_eig(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(evals, [3, 2, 1])


def test_sym_eig_swap():
    evals, _ = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(evals, [1, -1])


def test_sym_eig_random_residuals():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(7, 7))
    m = (m + m.T) / 2
    evals, evecs = sym_eig(m)
    scale = 1.0 + np.linalg.norm(m)
    for i in range(7):
        resid = m @ evecs[:, i] - evals[i] * evecs[:, i]
        assert np.linalg.norm(resid) <= 1e-9 * scale
    assert np.allclose(evecs.T @ evecs, np.eye(7), atol=1e-10)
    assert abs(evals.sum() - np.trace(m)) <= 1e-10 * scale


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(NumericalError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_newton_psd_gives_identity():
    a = np.diag([2.0, 3.0])
    rot = newton_orthogonal_stationarity(a)
    assert np.allclose(rot, np.eye(2), atol=1e-8)
    assert abs(np.trace(a @ rot.T) - 5.0) <= 1e-8


def test_newton_scalar_negative():
    rot = newton_orthogonal_stationarity(np.array([[-4.0]]))
    assert np.allclose(rot, [[-1.0]], atol=1e-10)


def test_newton_satisfies_stationarity_equations():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4))
    rot = newton_orthogonal_stationarity(a, tol=1e-11)
    prod = a @ rot.T
    assert np.linalg.norm(prod - prod.T) <= 1e-10
    assert np.linalg.norm(rot @ rot.T - np.eye(4)) <= 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_newton_matches_nuclear_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    a = rng.normal(size=(n, n))
    rot = newton_orthogonal_stationarity(a)
    nuclear = svd(a).sum()
    assert abs(np.trace(a @ rot.T) - nuclear) <= 1e-8


def test_newton_zero_matrix():
    rot = newton_orthogonal_stationarity(np.zeros((3, 3)))
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-10)
    assert abs(np.trace(np.zeros((3, 3)) @ rot.T)) <= 1e-12


def tied_matrix():
    """Exactly symmetric, with eigenvalues repeated 40 times each (exact ties on the diagonal)."""
    return np.diag(np.repeat([3.0, -1.0, 2.0, 0.0], 40))


def rotated_ties():
    """Q diag(lambda) Q^T with repeated lambda, mirrored: ties up to roundoff, exactly symmetric."""
    q = haar_orthogonal(np.random.default_rng(8), 60)[0]
    m = q @ np.diag(np.repeat([1.0, 2.0, 0.5], 20)) @ q.T
    return (m + m.T) / 2


def random_symmetric():
    m = np.random.default_rng(9).normal(size=(150, 150))
    return (m + m.T) / 2


@pytest.mark.parametrize("make", [tied_matrix, rotated_ties, random_symmetric])
def test_sym_eig_is_bit_identical_to_whole_matrix_reference(make):
    m = make()
    before = m.copy()
    evals, evecs = sym_eig(m)
    ref_evals, ref_evecs = joined.sym_eig(m)
    assert np.array_equal(evals, ref_evals)
    assert np.array_equal(evecs, ref_evecs)
    assert np.array_equal(m, before)  # the input is left as it was
    assert np.all(np.diff(evals) <= 0)


def test_sym_eig_keeps_eighs_reversed_order_of_ties(monkeypatch):
    # an argsort that does not list tied eigenvalues in LAPACK's order, as an
    # unstable sort may on some CPUs: the result must not follow it
    argsort = np.argsort

    def swapped_ties(values, *args, **kwargs):
        order = argsort(values, kind="stable")
        order[[0, 1]] = order[[1, 0]]
        return order

    monkeypatch.setattr(np, "argsort", swapped_ties)
    m = tied_matrix()
    evals, evecs = sym_eig(m)
    ref_evals, ref_evecs = np.linalg.eigh(m)
    assert np.array_equal(evals, ref_evals[::-1]) and np.array_equal(evecs, ref_evecs[:, ::-1])


def test_sym_eig_asymmetry_check_counts_every_band(monkeypatch):
    monkeypatch.setattr(numerics, "_BAND_ROWS", 7)
    m = random_symmetric()
    m[149, 3] += 1e-6  # only the last, short band sees it
    with pytest.raises(NumericalError, match="not symmetric"):
        sym_eig(m)
    m[149, 3] -= 1e-6
    m[149, 3] += 1e-13  # within tolerance: accepted
    assert np.allclose(sym_eig(m)[0], joined.sym_eig(m)[0])
