"""Dense kernels for the small projected subproblems.

Each kernel is a few LAPACK calls and the checks its callers rely on: least
squares on (m+1) x m quasi-Hessenberg matrices by Householder QR (``dgeqrf``),
whose reflectors ``dormqr`` applies to the right-hand side without forming
Q; a rank-revealing reduced QR, whose economic Q ``dorgqr`` forms; a real
nonsymmetric eigensolver with magnitude-sorted pairs; the real Schur form
(``dgees``) and its reordering (``dtrsen``), whose leading Schur vectors are
an orthonormal real basis of the invariant subspace of chosen eigenvalues;
and partial-pivoted linear solves with an explicit singularity threshold.
The solver's matrices have at most a few hundred rows; ``small_solve`` also
serves the Kronecker oracle ``problems.kron_solve``, up to
``problems.KRON_MAX`` = 4096 rows.

The factorizations call ``scipy.linalg.lapack`` wrappers directly, since at
m = 10 a ``scipy.linalg`` front end adds 15-60 us of argument handling to a
5 us LAPACK call.  Each call passes LAPACK what the front end would, so the
results are bitwise the same; ``dormqr``, which no front end of the least
squares calls, gets at least the workspace its query asks for, as scipy's
``qr_multiply`` passes it.  Non-finite input and illegal arguments raise
ValueError; a singular matrix or an eigeniteration that does not converge
raises numpy's ``np.linalg.LinAlgError``.

The checks ride on work the kernel does anyway, so at m = 10 they cost a
fraction of a microsecond instead of a numpy scan each.  The sum of squares
behind a pivot threshold (one BLAS dot, as in ``core.frob``) or the rank
threshold (the column sums of squares, one einsum) is finite exactly when
every entry is, short of an overflow, so the full finiteness scan runs only
when that sum is not finite; the Schur kernels take that sum of their
input only for the check, since ``dgees`` iterates on a NaN without
complaint.  ``small_eig`` leaves the scan to ``np.linalg.eig``, which makes it
anyway, and names the fault only when eig fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgees, dgeqrf, dgetrf, dgetrs, dormqr, dorgqr, dtrsen, dtrtrs

from .core import _finite_norm, _finite_sumsq, frob

__all__ = [
    "LsqSolution",
    "EigenPairSet",
    "hessenberg_lsq",
    "real_schur",
    "reduced_qr",
    "reorder_schur",
    "small_eig",
    "small_solve",
]

# Column drop threshold in reduced_qr, relative to the largest input column norm.
RANK_TOL = 1e-12
# Singularity threshold for triangular/LU diagonals, relative to the matrix norm.
PIVOT_TOL = 1e-14


def _lapack(routine, *args, **kwargs):
    """A scipy.linalg.lapack call: (outputs, info); info < 0 raises ValueError."""
    *out, info = routine(*args, **kwargs)
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in argument {-info}")
    return out, info


def _qr(a):
    """Householder QR of a finite m x n matrix (n <= m) as scipy.linalg.qr
    hands it to LAPACK: the packed factor, whose upper triangle is R and whose
    lower part holds the reflectors, and the reflectors' scalars tau."""
    # at least LAPACK's block size (32) per column: the blocking the front
    # end's workspace query selects
    (qr, tau, _), _ = _lapack(dgeqrf, a, lwork=64 * max(a.shape[1], 1))
    return qr, tau


# dormqr's workspace for one column: a block of up to NBMAX = 64 reflectors
# and its 65 x 64 triangular factor, at least the workspace query's optimum
# (4,192 at LAPACK's block size of 32), so it blocks as the query makes it
_ORMQR_LWORK = 64 + 65 * 64


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
    triangular system R[:m] y = g[:m] and the residual norm is |g[m]|; g is
    LAPACK's ``dormqr`` applied to c with the reflectors of ``dgeqrf``, so Q
    is never formed, and a 1 x 0 H keeps g = c.
    Returns the minimizer ``y``, the explicit residual vector ``c - H y``, its
    2-norm ``rho`` and a ``degenerate`` flag.  A triangular diagonal below
    ``PIVOT_TOL * ||H||_F`` marks the system rank deficient; the minimum-norm
    solution is returned in that case, with ``rho`` recomputed from it.  The
    norms are rescaled as in :func:`core.frob`, so H may have any scale.
    """
    h = np.asarray(h, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1] + 1:
        raise ValueError(f"expected an (m+1) x m matrix, got {h.shape}")
    m = h.shape[1]
    if c.shape != (m + 1,):
        raise ValueError(f"right-hand side must have length {m + 1}, got {c.shape}")
    tol = PIVOT_TOL * _finite_norm(h, "matrix")
    _finite_sumsq(c, "right-hand side")

    qr, tau = _qr(h)
    # g = Q^T c from the reflectors; LAPACK refuses an empty set of them, and
    # with no column Q is the identity
    g = _lapack(dormqr, "L", "T", qr, tau, c, lwork=_ORMQR_LWORK)[0][0] if m else c
    degenerate = bool(m) and min(map(abs, qr.diagonal().tolist())) <= tol
    if degenerate:
        y = np.linalg.lstsq(np.triu(qr[:m]), g[:m], rcond=None)[0]
    elif m:
        # solve_triangular's call for a C-ordered R: the transposed system on
        # R^T, whose upper part (the reflectors) LAPACK does not read; every
        # diagonal entry exceeds tol >= 0 here, so R is not singular
        (y,), _ = _lapack(dtrtrs, qr[:m].T, g[:m], lower=1, trans=1)
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
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, k = g.shape
    if k > m:
        raise ValueError(f"need at least as many rows as columns, got {g.shape}")
    if not g.size:
        return np.empty((m, 0))
    # the square of the largest column norm: NaN or inf if an entry is, and
    # otherwise only on overflow
    colsq = float(np.einsum("ij,ij->j", g, g).max())
    if not colsq < math.inf and not np.isfinite(g).all():
        raise ValueError("matrix contains non-finite entries")
    tol = RANK_TOL * math.sqrt(colsq)

    qr, tau = _qr(g)
    diag = qr.diagonal().tolist()
    kept = [j for j in range(k) if abs(diag[j]) > tol]
    if len(kept) < k:
        # a dropped column's Householder direction is arbitrary and would
        # leak into the later columns of q
        qr, tau = _qr(g[:, kept])
        diag = qr.diagonal().tolist()
    # the economic Q from a copy of the reflectors, with _qr's workspace rule
    q = _lapack(dorgqr, qr, tau, lwork=64 * max(len(kept), 1))[0][0]
    if any(x < 0.0 for x in diag):
        q *= [-1.0 if x < 0.0 else 1.0 for x in diag]
    return q


def small_eig(mat):
    """All eigenpairs of a small dense real matrix.

    Backed by LAPACK's balanced Hessenberg-reduction + implicitly shifted QR
    iteration, which keeps conjugate pairs adjacent and returns unit-norm
    right eigenvectors; the pairs come back sorted ascending by magnitude.
    Non-convergence raises ``np.linalg.eig``'s LinAlgError.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got {mat.shape}")
    if mat.shape[0] < 1:
        raise ValueError("matrix must be at least 1 x 1")
    try:
        values, vectors = np.linalg.eig(mat)
    except np.linalg.LinAlgError:
        # eig itself refuses non-finite input with a LinAlgError
        if not np.isfinite(mat).all():
            raise ValueError("matrix contains non-finite entries") from None
        raise
    # a stable sort keeps LAPACK's adjacent conjugate pairs together
    order = np.abs(values).argsort(kind="stable")
    return EigenPairSet(values[order].astype(np.complex128, copy=False),
                        vectors[:, order].astype(np.complex128, copy=False))


def real_schur(mat):
    """Real Schur form ``mat = Z T Z^T`` of a small dense real matrix.

    LAPACK's ``dgees`` without sorting: T is quasi upper triangular, with a
    2 x 2 diagonal block for each complex conjugate pair, and Z orthogonal.
    Returns T, Z and the eigenvalues' real and imaginary parts ``wr``, ``wi``
    in T's diagonal order, each conjugate pair adjacent with its positive
    imaginary part first.  An iteration that does not converge raises
    LinAlgError.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValueError(f"expected a nonempty square matrix, got {mat.shape}")
    _finite_sumsq(mat, "matrix")
    # the select function is not called without sorting; the block size
    # per column of workspace lets the Hessenberg reduction block, as in _qr
    (t, _, wr, wi, z, _), info = _lapack(dgees, lambda *_: 0, mat, lwork=64 * mat.shape[0])
    if info:
        raise np.linalg.LinAlgError("Schur iteration did not converge")
    return t, z, wr, wi


def reorder_schur(t, z, select):
    """The invariant subspace of the selected eigenvalues of a real Schur form.

    ``t``, ``z`` are :func:`real_schur`'s T and Z, and the nonzero entries of
    ``select`` mark eigenvalues in T's diagonal order.  LAPACK's ``dtrsen``
    (no condition numbers) moves them to the leading block, with the partner
    of each marked value of a conjugate pair.  Returns that p x p block T11
    and the p orthonormal columns Z1 of the reordered Z, ``mat Z1 = Z1 T11``
    for p the count of moved values.  Eigenvalues too close to swap raise
    LinAlgError.
    """
    _finite_sumsq(np.asarray(t, dtype=np.float64), "Schur form")
    _finite_sumsq(np.asarray(z, dtype=np.float64), "Schur basis")
    (ts, zs, _, _, p, _, _), info = _lapack(dtrsen, select, t, z, job="N")
    if info:
        raise np.linalg.LinAlgError("Schur form reordering failed on close eigenvalues")
    return ts[:p, :p], zs[:, :p]


def small_solve(mat, rhs):
    """Solve mat @ x = rhs by partial-pivoted elimination.

    Raises LinAlgError when any pivot falls below ``PIVOT_TOL * ||mat||_F``
    (rescaled as in :func:`core.frob`), so callers can fall back to an
    alternative formulation instead of consuming garbage.  The right-hand
    side is not checked for non-finite entries.
    """
    mat = np.asarray(mat, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got {mat.shape}")
    if rhs.shape[0] != mat.shape[0]:
        raise ValueError(
            f"right-hand side rows {rhs.shape[0]} do not match matrix {mat.shape}"
        )
    tol = PIVOT_TOL * _finite_norm(mat, "matrix")
    if not mat.size:
        return np.empty_like(rhs)
    # an exactly zero pivot (info > 0) fails the pivot check, and so does NaN
    (lu, piv), _ = _lapack(dgetrf, mat)
    if not all(abs(x) > tol for x in lu.diagonal().tolist()):
        raise np.linalg.LinAlgError("matrix is singular to working precision")
    return _lapack(dgetrs, lu, piv, rhs)[0][0]
