import numpy as np
import pytest

from rspca import NumericalError, covariance_svd
from rspca.pca import sym_eig
from . import joined
from .conftest import haar_orthogonal
from .newton import newton_orthogonal_stationarity


def test_svd_identity():
    assert abs(covariance_svd(np.eye(3)) - 3.0) <= 1e-12


def test_svd_sign_diag():
    assert abs(covariance_svd(np.diag([3.0, -2.0])) - 5.0) <= 1e-12
    # the singular values are the square roots of the eigenvalues of m^T m
    m = np.random.default_rng(42).normal(size=(5, 4))
    nuclear = np.sqrt(np.linalg.eigvalsh(m.T @ m)).sum()
    assert abs(covariance_svd(m) - nuclear) <= 1e-10


def test_svd_rejects_non_finite():
    with pytest.raises(NumericalError):
        covariance_svd(np.array([[1.0, np.nan]]))


def test_nuclear_norm_rotation_invariance():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4))
    base = covariance_svd(m)
    for q1, q2 in zip(haar_orthogonal(rng, 4, 5), haar_orthogonal(rng, 4, 5)):
        rotated = q1 @ m @ q2
        assert abs(covariance_svd(rotated) - base) <= 1e-9


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
    nuclear = covariance_svd(a)
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


@pytest.mark.parametrize("make", [tied_matrix, rotated_ties, random_symmetric])
def test_sym_eig_reads_only_the_lower_triangle(make):
    m = make()
    upper = np.triu_indices_from(m, 1)
    scrambled = m.copy()
    scrambled[upper] = np.random.default_rng(10).normal(size=len(upper[0])) * 1e3
    before = scrambled.copy()
    evals, evecs = sym_eig(scrambled)
    ref_evals, ref_evecs = sym_eig(m)
    assert np.array_equal(evals, ref_evals)
    assert np.array_equal(evecs, ref_evecs)
    assert np.array_equal(scrambled, before)  # the input is left as it was
