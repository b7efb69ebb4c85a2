"""Dense kernels for the small projected subproblems.

Everything here operates on matrices of at most a few hundred rows and is one
LAPACK call plus the checks around it: least squares on (m+1) x m
quasi-Hessenberg matrices and a rank-revealing reduced QR, both by Householder
QR; a real nonsymmetric eigensolver with magnitude-sorted pairs; and
partial-pivoted linear solves with an explicit singularity threshold.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

__all__ = [
    "SingularMatrixError",
    "EigenConvergenceError",
    "LsqSolution",
    "QrFactors",
    "EigenPairSet",
    "hessenberg_lsq",
    "reduced_qr",
    "small_eig",
    "small_solve",
]

# Column drop threshold in reduced_qr, relative to the largest input column norm.
RANK_TOL = 1e-12
# Singularity threshold for triangular/LU diagonals, relative to the matrix norm.
PIVOT_TOL = 1e-14


class SingularMatrixError(np.linalg.LinAlgError):
    """A linear solve met a pivot below the singularity threshold."""


class EigenConvergenceError(np.linalg.LinAlgError):
    """The QR eigeniteration did not converge within its sweep budget."""


class LsqSolution(NamedTuple):
    y: np.ndarray
    residual: np.ndarray
    rho: float
    degenerate: bool


class QrFactors(NamedTuple):
    q: np.ndarray
    kept: list


@dataclass(frozen=True)
class EigenPairSet:
    """Eigenvalues with right eigenvectors of a real matrix.

    Sorted ascending by eigenvalue magnitude, complex conjugate pairs adjacent
    (positive imaginary part first); every vector has unit 2-norm.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __len__(self):
        return self.values.shape[0]


def hessenberg_lsq(h, c):
    """Minimize ||c - H y||_2 for an (m+1) x m matrix H by Householder QR.

    H may be proper upper Hessenberg or carry a dense leading block (as after
    a deflated restart).  With H = Q R and g = Q^T c the minimizer solves the
    triangular system R[:m] y = g[:m] and the residual norm is |g[m]|.
    Returns the minimizer ``y``, the explicit residual vector ``c - H y``, its
    2-norm ``rho`` and a ``degenerate`` flag.  A triangular diagonal below
    ``PIVOT_TOL * ||H||_F`` marks the system rank deficient; the minimum-norm
    solution is returned in that case, with ``rho`` recomputed from it.
    """
    h = np.asarray(h, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1] + 1:
        raise ValueError(f"expected an (m+1) x m matrix, got {h.shape}")
    m = h.shape[1]
    if c.shape != (m + 1,):
        raise ValueError(f"right-hand side must have length {m + 1}, got {c.shape}")

    q, r = scipy.linalg.qr(h)
    g = q.T @ c
    diag = np.abs(np.diagonal(r))
    degenerate = bool(m and np.any(diag <= PIVOT_TOL * np.linalg.norm(h)))
    if degenerate:
        y = np.linalg.lstsq(r[:m], g[:m], rcond=None)[0]
    elif m:
        y = scipy.linalg.solve_triangular(r[:m], g[:m])
    else:
        y = np.empty(0)
    residual = c - h @ y
    rho = float(np.linalg.norm(residual)) if degenerate else abs(float(g[m]))
    return LsqSolution(y, residual, rho, degenerate)


def reduced_qr(g):
    """Rank-revealing reduced QR of a tall m x k matrix by Householder QR.

    A column whose triangular diagonal |R_jj| (the norm of its part
    orthogonal to the columns before it) falls below ``RANK_TOL`` times the
    largest input column norm is dropped, and the kept columns are factored
    again, so ``q`` may have fewer than k columns and spans exactly the kept
    ones.  ``kept`` lists the surviving input column indices; ``q`` is
    normalized to a nonnegative triangular diagonal, so ``q^T g`` is upper
    triangular up to rounding when nothing is dropped, and ``g ~ q q^T g``
    either way.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, k = g.shape
    if k > m:
        raise ValueError(f"need at least as many rows as columns, got {g.shape}")
    tol = RANK_TOL * (np.linalg.norm(g, axis=0).max() if k else 0.0)

    q, r = scipy.linalg.qr(g, mode="economic")
    kept = [j for j in range(k) if abs(r[j, j]) > tol]
    if len(kept) < k:
        # a dropped column's Householder direction is arbitrary and would
        # leak into the later columns of q
        q, r = scipy.linalg.qr(g[:, kept], mode="economic")
    q = q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    return QrFactors(q, kept)


def small_eig(mat):
    """All eigenpairs of a small dense real matrix.

    Backed by LAPACK's balanced Hessenberg-reduction + implicitly shifted QR
    iteration, which keeps conjugate pairs adjacent and returns unit-norm
    right eigenvectors; the pairs come back sorted ascending by magnitude.
    Non-convergence raises EigenConvergenceError.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got {mat.shape}")
    if mat.shape[0] < 1:
        raise ValueError("matrix must be at least 1 x 1")
    if not np.isfinite(mat).all():
        raise ValueError("matrix contains non-finite entries")
    try:
        values, vectors = np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    # a stable sort keeps LAPACK's adjacent conjugate pairs together
    order = np.argsort(np.abs(values), kind="stable")
    return EigenPairSet(values[order].astype(np.complex128),
                        vectors[:, order].astype(np.complex128))


def small_solve(mat, rhs):
    """Solve mat @ x = rhs by partial-pivoted elimination.

    Raises SingularMatrixError when any pivot falls below
    ``PIVOT_TOL * ||mat||_F``, so callers can fall back to an alternative
    formulation instead of consuming garbage.
    """
    mat = np.asarray(mat, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got {mat.shape}")
    if rhs.shape[0] != mat.shape[0]:
        raise ValueError(
            f"right-hand side rows {rhs.shape[0]} do not match matrix {mat.shape}"
        )
    if not np.isfinite(mat).all():
        raise ValueError("matrix contains non-finite entries")
    with warnings.catch_warnings():
        # singularity is reported through the pivot check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(mat, check_finite=False)
    if not np.all(np.abs(np.diagonal(lu)) > PIVOT_TOL * np.linalg.norm(mat)):
        raise SingularMatrixError("matrix is singular to working precision")
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
