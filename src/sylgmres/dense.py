"""Dense kernels for the small projected subproblems.

Everything here operates on matrices of at most a few hundred rows and is one
LAPACK call plus the checks around it: least squares on (m+1) x m
quasi-Hessenberg matrices and a rank-revealing reduced QR, both by Householder
QR; a real nonsymmetric eigensolver with magnitude-sorted pairs; and
partial-pivoted linear solves with an explicit singularity threshold.

The factorizations call ``scipy.linalg.lapack`` wrappers directly, since at
m = 10 a ``scipy.linalg`` front end adds 15-60 us of argument handling to a
5 us LAPACK call.  Each call passes LAPACK what the front end would, so the
results are bitwise the same, and keeps its checks: non-finite input and
illegal arguments raise ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgetrf, dgetrs, dorgqr, dtrtrs

from .core import frob

__all__ = [
    "SingularMatrixError",
    "EigenConvergenceError",
    "LsqSolution",
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


def _lapack(routine, *args, **kwargs):
    """A scipy.linalg.lapack call: (outputs, info); info < 0 raises ValueError."""
    *out, info = routine(*args, **kwargs)
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in argument {-info}")
    return out, info


def _qr(a, cols):
    """Householder QR of a finite m x n matrix (n <= m) as scipy.linalg.qr
    hands it to LAPACK: the first ``cols`` columns of Q (m for the full Q, n
    for the economic one) and the packed factor, whose upper triangle is R."""
    # at least LAPACK's block size (32) per column: the blocking the front
    # end's workspace query selects
    lwork = 64 * max(cols, 1)
    (qr, tau, _), _ = _lapack(dgeqrf, a, lwork=lwork)
    # Q is formed in place on an F-ordered copy of the reflectors, padded to
    # m x m for the full Q as the front end pads it
    q = np.empty((a.shape[0], cols), order="F")
    q[:, : a.shape[1]] = qr
    return _lapack(dorgqr, q, tau, lwork=lwork, overwrite_a=1)[0][0], qr


class LsqSolution(NamedTuple):
    y: np.ndarray
    residual: np.ndarray
    rho: float
    degenerate: bool


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
    solution is returned in that case, with ``rho`` recomputed from it.  The
    norms are rescaled as in :func:`core.frob`, so H may have any scale.
    """
    h = np.asarray_chkfinite(h, dtype=np.float64)
    c = np.asarray_chkfinite(c, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1] + 1:
        raise ValueError(f"expected an (m+1) x m matrix, got {h.shape}")
    m = h.shape[1]
    if c.shape != (m + 1,):
        raise ValueError(f"right-hand side must have length {m + 1}, got {c.shape}")

    q, qr = _qr(h, m + 1)
    g = q.T @ c
    diag = np.abs(np.diagonal(qr))
    degenerate = bool(m and np.any(diag <= PIVOT_TOL * frob(h)))
    if degenerate:
        y = np.linalg.lstsq(np.triu(qr[:m]), g[:m], rcond=None)[0]
    elif m:
        # solve_triangular's call for a C-ordered R: the transposed system on
        # R^T, whose upper part (the reflectors) LAPACK does not read
        (y,), info = _lapack(dtrtrs, qr[:m].T, g[:m], lower=1, trans=1)
        if info:
            raise np.linalg.LinAlgError(f"singular matrix: diagonal {info - 1} is zero")
    else:
        y = np.empty(0)
    residual = c - h @ y
    rho = frob(residual) if degenerate else abs(float(g[m]))
    return LsqSolution(y, residual, rho, degenerate)


def reduced_qr(g):
    """Rank-revealing reduced QR of a tall m x k matrix by Householder QR.

    A column whose triangular diagonal |R_jj| (the norm of its part
    orthogonal to the columns before it) falls below ``RANK_TOL`` times the
    largest input column norm is dropped, and the kept columns are factored
    again, so ``q`` may have fewer than k columns and spans exactly the kept
    ones.  Returns ``q``, normalized to a nonnegative triangular diagonal, so
    ``q^T g`` is upper triangular up to rounding when nothing is dropped, and
    ``g ~ q q^T g`` either way.
    """
    g = np.asarray_chkfinite(g, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, k = g.shape
    if k > m:
        raise ValueError(f"need at least as many rows as columns, got {g.shape}")
    if not g.size:
        return np.empty((m, 0))
    tol = RANK_TOL * np.linalg.norm(g, axis=0).max()

    q, qr = _qr(g, k)
    kept = [j for j in range(k) if abs(qr[j, j]) > tol]
    if len(kept) < k:
        # a dropped column's Householder direction is arbitrary and would
        # leak into the later columns of q
        q, qr = _qr(g[:, kept], len(kept))
    return q * np.where(np.diagonal(qr) < 0.0, -1.0, 1.0)


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
    ``PIVOT_TOL * ||mat||_F`` (rescaled as in :func:`core.frob`), so callers
    can fall back to an alternative formulation instead of consuming garbage.
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
    if not mat.size:
        return np.empty_like(rhs)
    # an exactly zero pivot (info > 0) fails the pivot check
    (lu, piv), _ = _lapack(dgetrf, mat)
    if not np.all(np.abs(np.diagonal(lu)) > PIVOT_TOL * frob(mat)):
        raise SingularMatrixError("matrix is singular to working precision")
    return _lapack(dgetrs, lu, piv, rhs)[0][0]
