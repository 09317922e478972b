"""Newton solve of the covariance stationarity equations, the tests' oracle.

The paper defines the covariance of a cross matrix A as the trace of
A L^T at the orthogonal L that solves {A L^T symmetric, L L^T = I}.  The
package reads that value off the singular values in closed form
(``rspca.covariance_svd``); this module solves the same equations by
Newton iteration so the tests can check the closed form against an
independent route.
"""

from dataclasses import dataclass

import numpy as np

from rspca import NumericalError
from rspca.pca import sym_eig


@dataclass(frozen=True)
class NewtonResult:
    """A covariance value with the rotation and singular values behind it.

    ``sigma`` is the sum of ``singular_values``.  ``rotation`` maximizes
    trace(A L^T) over orthogonal L of the zero-padded square A.  When
    singular values repeat or vanish the maximizer is not unique.
    """

    sigma: float
    rotation: np.ndarray
    singular_values: np.ndarray


def _stationarity_residual(a: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Stacked residual of {A L^T symmetric, L L^T = I}.

    The strict lower triangle of A L^T - (A L^T)^T plus the lower triangle
    (with diagonal) of L L^T - I: n(n-1)/2 + n(n+1)/2 = n^2 equations for
    the n^2 entries of L, a square Newton system.
    """
    n = a.shape[0]
    prod = a @ rot.T
    skew = prod - prod.T
    gram = rot @ rot.T - np.eye(n)
    low = np.tril_indices(n, -1)
    low_d = np.tril_indices(n)
    return np.concatenate([skew[low], gram[low_d]])


def _stationarity_jacobian(a: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Jacobian of the stacked residual with respect to vec(L) (row-major)."""
    n = a.shape[0]
    jac = np.zeros((n * n, n * n))
    row = 0
    # d/dL_pq of (A L^T - L A^T)_rs = A_rq [p == s] - [r == p] A_sq
    for r in range(n):
        for s in range(r):
            for q in range(n):
                jac[row, s * n + q] += a[r, q]
                jac[row, r * n + q] -= a[s, q]
            row += 1
    # d/dL_pq of (L L^T - I)_rs = [r == p] L_sq + L_rq [s == p]
    for r in range(n):
        for s in range(r + 1):
            for q in range(n):
                jac[row, r * n + q] += rot[s, q]
                jac[row, s * n + q] += rot[r, q]
            row += 1
    return jac


def _newton_from(a: np.ndarray, start: np.ndarray, tol: float, max_iter: int):
    """Newton-iterate the stationarity system from one starting rotation.

    Returns the converged L or None.  Steps are minimum-norm least-squares
    solutions: zero or repeated singular values make the stationary set a
    manifold, so the Jacobian is singular there and plain solve() would
    return garbage without raising.  A backtracking line search on the
    residual norm keeps far-from-solution starts from diverging.
    """
    n = a.shape[0]
    rot = start.copy()
    res_norm = np.linalg.norm(_stationarity_residual(a, rot))
    for _ in range(max_iter):
        if res_norm <= tol:
            return rot
        jac = _stationarity_jacobian(a, rot)
        res = _stationarity_residual(a, rot)
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        if not np.all(np.isfinite(step)):
            return None
        scale = 1.0
        for _ in range(30):
            candidate = rot + scale * step.reshape(n, n)
            cand_norm = np.linalg.norm(_stationarity_residual(a, candidate))
            if cand_norm <= tol or cand_norm < res_norm * (1.0 - 1e-4 * scale):
                break
            scale *= 0.5
        else:
            return None
        rot, res_norm = candidate, cand_norm
    return rot if res_norm <= tol else None


def _cayley(skew: np.ndarray) -> np.ndarray:
    """Orthogonal matrix (I - S)(I + S)^-1 from a skew-symmetric S."""
    n = skew.shape[0]
    return np.linalg.solve((np.eye(n) + skew).T, (np.eye(n) - skew).T).T


def newton_orthogonal_stationarity(
    a: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> np.ndarray:
    """Orthogonal L maximizing trace(A L^T), found by Newton iteration.

    Solves the stationarity system {A L^T symmetric, L L^T = I} from
    several starts (the identity plus seeded orthogonal perturbations of
    the SVD solution) and returns the converged stationary point with the
    largest trace(A L^T).  The perturbed starts guarantee the maximizer is
    among the candidates while still forcing Newton to do the work of
    re-converging to it.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise NumericalError("Newton solver needs a square matrix", matrix=a)
    if n == 0:
        return np.zeros((0, 0))

    u, _, vt = np.linalg.svd(a)
    uvt = u @ vt
    rng = np.random.default_rng(1812)
    starts = [np.eye(n)]
    for eps in (0.01, 0.05, 0.2, 0.5):
        k = rng.normal(size=(n, n))
        starts.append(uvt @ _cayley(eps * (k - k.T) / 2.0))

    best = None
    best_trace = -np.inf
    for start in starts:
        rot = _newton_from(a, start, tol, max_iter)
        if rot is None:
            continue
        tr = float(np.trace(a @ rot.T))
        if tr > best_trace:
            best, best_trace = rot, tr
    if best is None:
        raise NumericalError(
            f"Newton iteration did not converge within {max_iter} steps", matrix=a
        )
    return best


def covariance_newton(
    cross: np.ndarray,
    tolerance: float = 1e-10,
    max_iter: int = 50,
) -> NewtonResult:
    """Covariance via the Newton-solved stationarity system.

    Rectangular cross matrices are zero-padded to square, which leaves the
    trace over the original block, and hence sigma, unchanged.  The
    singular values are recovered as the eigenvalues of the symmetric part
    of A L^T at the solution.
    """
    a = np.asarray(cross, dtype=float)
    n = max(a.shape) if a.size else 0
    if n == 0:
        return NewtonResult(0.0, np.eye(a.shape[0], a.shape[1]), np.zeros(0))
    padded = np.zeros((n, n))
    padded[: a.shape[0], : a.shape[1]] = a
    rot = newton_orthogonal_stationarity(padded, tol=tolerance, max_iter=max_iter)
    prod = padded @ rot.T
    evals, _ = sym_eig((prod + prod.T) / 2.0)
    # PSD up to roundoff at the maximizer; clamp stray -1e-17s
    return NewtonResult(float(np.trace(prod)), rot, np.maximum(evals, 0.0))
