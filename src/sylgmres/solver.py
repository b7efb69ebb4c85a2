"""Restarted weighted global GMRES for AX + XB = C, with optional deflation.

``wglgmres`` is the plain restarted method: each cycle runs the weighted
global Arnoldi process on the current residual, minimizes the projected
residual over the Krylov block subspace and restarts, optionally rebuilding
the weight from the new residual.

``wglgmres_dr`` adds deflated restarting: at each restart it takes the
real Schur form of the harmonic matrix of the projected recurrence, reorders
it so that the harmonic Ritz values of smallest magnitude lead (a Krylov-Schur
restart), and recycles the leading Schur vectors, an orthonormal real basis
of their harmonic Ritz vectors that keeps each conjugate pair whole, together
with the just-computed residual direction; the Arnoldi process continues from
that prefix instead of starting over.  All deflation failures degrade to a
plain restart; they never abort a solve.

A cycle ends the solve when both values its CycleRecord holds meet the
tolerance: the cheap projected estimate ``||c - H y||_2 / ||C||_D`` in the
cycle's weighted norm, and the explicitly formed residual R = C - A X - X B
in the Frobenius norm, ``||R||_F / ||C||_F <= tol``.  The weight changes the
norm a cycle minimizes, not the residual the solve must reach.  R is formed
once per cycle anyway, to start the next one, so the check costs no operator
application; R's weighted norm is taken once, in the weight of the cycle that
starts from it.  A residual that is exactly zero ends the solve, converged,
at the top of the cycle that would start from it, before a weight is built
from it.  The cycles solve 2^-e C from 2^-e x0, e the even integer
that puts ``||2^-e C||_F`` in [1/2, 2), exact scalings also of the mean
weight's |C|^1.5 norms; the iterate is scaled back by 2^e, and its
recomputed residual must meet tol too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

# arnoldi_run is no longer called here; it stays importable from this module
# because solvebench's tracer wraps it under this name.
from .arnoldi import ArnoldiDecomposition, arnoldi_extend
from .arnoldi import arnoldi_run  # noqa: F401
from .core import _TINY, as_block, basis_combine, frob, weighted_norm
from .dense import (EigenPairSet, hessenberg_lsq, real_schur, reduced_qr, reorder_schur,
                    small_eig, small_solve)
from .weighting import WeightStrategy, make_weight

__all__ = [
    "SolverConfig",
    "SolveReport",
    "CycleRecord",
    "CycleTrace",
    "wglgmres",
    "wglgmres_dr",
    "harmonic_pairs",
    "select_and_realify",
    "restart_subspace",
    "collinearity_check",
]

# Eigenvalues of the inverted harmonic problem below this (relative) size
# correspond to infinite harmonic values and are discarded.
_INV_EIG_TOL = 1e-14


@dataclass(frozen=True)
class SolverConfig:
    """Restart length ``m``, deflation count ``k`` and stopping controls.

    ``k = 0`` disables deflation; otherwise ``1 <= k <= m - 2`` so a
    conjugate-pair adjustment always has room.  Deflation recycles the
    harmonic Ritz vectors of smallest magnitude.
    """

    m: int
    k: int = 0
    tol: float = 1e-6
    maxit: int = 2500
    strategy: WeightStrategy = WeightStrategy("identity")
    record_cycles: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("restart length m must be >= 1")
        if self.k < 0:
            raise ValueError("deflation count k must be >= 0")
        if self.k > 0 and self.k > self.m - 2:
            raise ValueError(f"deflation count k={self.k} must be <= m - 2 = {self.m - 2}")
        if not self.tol > 0.0:  # NaN fails too
            raise ValueError("tolerance must be > 0")
        if self.maxit < 1:
            raise ValueError("maxit must be >= 1")


@dataclass(frozen=True)
class CycleRecord:
    """One cycle's row of the history.  ``est_resnorm`` is the projected
    estimate and ``true_resnorm`` the explicit ||R||_F / ||C||_F after the
    cycle; the stop rule reads these two (module docstring), so the last
    record of a converged solve is the first where both meet tol."""

    cycle: int
    cumulative_iter: int
    est_resnorm: float
    true_resnorm: float
    weight_tag: str
    wall_s: float


@dataclass
class CycleTrace:
    """Full per-cycle state, kept only when ``record_cycles`` is set.

    ``weight``, ``prev_weight`` (the previous trace's ``weight``, None on cycle
    1) and ``dec`` (basis copied) are the solve's at 2^-e C (module docstring).
    In the caller's units, ``c`` and ``y`` give the start residual and the
    update of X in that basis, ``beta`` the residual's norm.
    """

    cycle: int
    weight: object
    prev_weight: object
    prefix_blocks: int  # 1 after a plain restart, else recycled columns + 1
    dec: ArnoldiDecomposition
    c: np.ndarray
    y: np.ndarray
    beta: float


@dataclass
class SolveReport:
    x: np.ndarray
    converged: bool
    cycles: int
    history: list
    true_resnorm: float
    breakdowns: list
    wall_time: float
    traces: list | None = None


def _harmonic_matrix(h):
    """The matrix of the harmonic problem of H (see :func:`harmonic_pairs`).

    Returns (matrix, inverted, e): the matrix is that of 2^-e H, and when
    ``inverted`` is set it is the normal-matrix inverse, whose eigenvalues
    mu give the harmonic values theta = 1 / mu.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1] + 1:
        raise ValueError(f"expected an (m+1) x m matrix, got {h.shape}")
    m = h.shape[1]
    hsub = float(h[m, m - 1])
    e = math.frexp(hsub)[1] if hsub and not _TINY <= hsub * hsub < math.inf else 0
    hsub, h = math.ldexp(hsub, -e), np.ldexp(h, -e)
    hm = h[:m, :]
    try:
        u = small_solve(hm.T, np.eye(m)[m - 1])
    except np.linalg.LinAlgError:
        # raises again if the pencil is singular
        return small_solve(h.T @ h, hm.T), True, e
    mat = hm.copy()
    mat[:, m - 1] += hsub**2 * u
    return mat, False, e


def _finite_harmonic(mags):
    """Mask of the inverted problem's eigenvalue magnitudes |mu| whose
    harmonic values 1 / mu are finite."""
    keep = mags > _INV_EIG_TOL * max(1.0, float(mags.max()))
    if not keep.any():
        raise np.linalg.LinAlgError("harmonic pencil has no finite eigenvalues")
    return keep


def harmonic_pairs(h):
    """Harmonic Ritz pairs of the projected recurrence matrix.

    For the (m+1) x m matrix H with square part H_m and subdiagonal scalar
    h_sub, the pairs are the eigenpairs of
    ``H_m + h_sub^2 * H_m^{-T} e_m e_m^T`` when H_m is regular; otherwise the
    generalized form ``theta * H_m^T g = (H^T H) g`` is solved through the
    inverse ``(H^T H)^{-1} H_m^T``, discarding infinite values.  Pairs come
    back sorted ascending by magnitude, conjugate pairs adjacent.  An H whose
    h_sub^2 would under- or overflow is solved at a power-of-two scale 2^-e:
    the values of 2^-e H are those of H times 2^-e, and both scalings are
    exact.
    """
    mat, inverted, e = _harmonic_matrix(h)
    pairs = small_eig(mat)
    if inverted:
        keep = _finite_harmonic(np.abs(pairs.values))
        values = 1.0 / pairs.values[keep]
        order = np.argsort(np.abs(values), kind="stable")
        pairs = EigenPairSet(values[order], pairs.vectors[:, keep][:, order])
    return EigenPairSet(pairs.values * 2.0**e, pairs.vectors) if e else pairs


def select_and_realify(h, k):
    """Orthonormal real (m, k_eff) basis of the harmonic Ritz vectors of the
    k smallest-magnitude harmonic values of H.

    The columns are the leading Schur vectors of the real Schur form of the
    matrix whose eigenpairs :func:`harmonic_pairs` returns, reordered to lead
    with those values (``dense.reorder_schur``), so a complex conjugate pair
    enters whole: its columns span (Re g, Im g).  If the cut would split a
    pair, k grows by one to take the partner too, and shrinks by one instead
    when the grown k would exceed m - 2 or the count of finite values; k_eff
    is the column count.  Raises LinAlgError when that leaves no column.
    """
    if k < 1:
        raise ValueError("selection count k must be >= 1")
    mat, inverted, _ = _harmonic_matrix(h)
    m = len(mat)
    t, z, wr, wi = real_schur(mat)
    mags = np.hypot(wr, wi)
    if inverted:  # |theta| = 1 / |mu|, inf for the discarded values
        mags = np.divide(1.0, mags, out=np.full(m, math.inf), where=_finite_harmonic(mags))
    # a stable sort keeps the adjacent members of a conjugate pair, whose
    # magnitudes are equal, adjacent
    order = np.argsort(mags, kind="stable")
    cap = min(int(np.isfinite(mags).sum()), m - 2)
    k_sel = min(k, cap)
    if k_sel == cap and wi[order[k_sel - 1]] > 0.0:  # splits a pair, no room to grow
        k_sel -= 1
    if k_sel < 1:
        raise np.linalg.LinAlgError("no harmonic pairs left to deflate")
    select = np.zeros(m, dtype=np.intc)
    select[order[:k_sel]] = 1
    return reorder_schur(t, z, select)[1]


def restart_subspace(dec, z, r, out=None):
    """Recycled blocks and projected recurrence for a deflated restart.

    Appends to the orthonormal columns ``z`` (the matrix
    :func:`select_and_realify` returns) the normalized component of the
    small residual vector ``r`` orthogonal to them, by one reduced QR of
    ``[z; 0 | r / ||r||]``, and maps the result through the current basis in
    one product: the returned stacked (k+1, n, s) blocks span the harmonic
    Ritz block vectors plus the residual, and ``new_h`` restates the
    recurrence on that set.  The blocks are written into the leading slots
    of ``out`` (a C-ordered float64 array of at least k+1 blocks of the
    basis's block shape; ValueError otherwise), or into a new array when it
    is None.  ``out`` may overlap the basis, even be its own workspace:
    numpy's matmul then reads a copy of the basis, so the blocks are those
    of ``out=None``.
    Raises LinAlgError when ``r`` already lies in the span of ``z``, as a
    zero ``r`` does.
    """
    r = np.asarray(r, dtype=np.float64)
    rows = dec.h.shape[0]
    if r.shape != (rows,):
        raise ValueError(f"residual vector must have length {rows}, got {r.shape}")
    kz = z.shape[1]
    a = np.zeros((rows, kz + 1))
    a[:-1, :kz] = z
    if r_norm := frob(r):
        np.divide(r, r_norm, out=a[:, kz])
    q = reduced_qr(a)
    if q.shape[1] == kz:
        raise np.linalg.LinAlgError("residual direction already lies in the recycled span")

    new_h = q.T @ dec.h @ q[:-1, :kz]
    shape = (kz + 1,) + dec.basis.shape[1:]
    blocks = np.empty(shape) if out is None else out[: kz + 1]
    if blocks.shape != shape or blocks.dtype != np.float64 or not blocks.flags.c_contiguous:
        raise ValueError("restart workspace must be a C-ordered float64 array of at least "
                         f"{kz + 1} blocks of shape {shape[1:]}")
    np.matmul(q.T, dec.basis.reshape(rows, -1), out=blocks.reshape(kz + 1, -1))
    return blocks, new_h, q


def collinearity_check(dec, pairs, y, beta):
    """Largest angular deviation between harmonic residuals and the GMRES one.

    For each pair (theta, g) the harmonic residual vector
    ``(H - theta * [I; 0]) g`` should be a scalar multiple of the projected
    GMRES residual ``beta e_1 - H y``; returns the maximum over pairs of
    ``1 - |cos angle|``, testing real and imaginary parts separately for
    complex values.  Vanishing residuals count as deviation 0.
    """
    h = dec.h
    rows = h.shape[0]
    rm = -(h @ y)
    rm[0] += beta
    rnorm = frob(rm)
    if rnorm < 1e-300:
        return 0.0
    hscale = frob(h)
    dev = 0.0
    for idx in range(len(pairs)):
        theta = pairs.values[idx]
        g = pairs.vectors[:, idx]
        rt = h @ g
        rt[: rows - 1] -= theta * g
        parts = (rt.real,) if theta.imag == 0.0 else (rt.real, rt.imag)
        floor = 1e-12 * (hscale + abs(theta)) * float(np.linalg.norm(g))
        for part in parts:
            pnorm = frob(part)
            if pnorm <= floor:
                continue
            cosine = abs(float(part @ rm)) / (pnorm * rnorm)
            dev = max(dev, 1.0 - cosine)
    return dev


def wglgmres(op, c, cfg, x0=None):
    """Restarted weighted global GMRES (no deflation; ``cfg.k`` must be 0)."""
    if cfg.k != 0:
        raise ValueError("wglgmres requires k = 0; use wglgmres_dr for deflation")
    return wglgmres_dr(op, c, cfg, x0)


def wglgmres_dr(op, c, cfg, x0=None):
    """Weighted global GMRES with deflated restarting (plain when k = 0)."""
    t0 = time.perf_counter()
    c = as_block(c, op.shape, "right-hand side")
    norm_c_f_in = frob(c)
    if not norm_c_f_in < np.inf:
        raise ValueError(f"||C||_F is {norm_c_f_in}, not a finite float; rescale C")
    e = math.frexp(norm_c_f_in)[1] & ~1  # the entry scaling of the module docstring
    x = np.zeros(op.shape) if x0 is None else np.ldexp(as_block(x0, op.shape, "initial guess"), -e)

    c_in, c, norm_c_f = c, np.ldexp(c, -e), math.ldexp(norm_c_f_in, -e)
    r = c - op.apply(x)
    r_norm = frob(r)  # ||R||_F of the residual each cycle starts from
    if norm_c_f == 0.0:
        if r_norm == 0.0:
            return SolveReport(x, True, 0, [], 0.0, [], time.perf_counter() - t0,
                               [] if cfg.record_cycles else None)
        raise ValueError("zero right-hand side with a nonzero initial residual")

    # a cycle grows its basis in ``out`` from the prefix in its leading blocks:
    # r / beta after a plain restart, written over the last basis, or the
    # recycled blocks that a deflated restart wrote into ``spare`` while it
    # still read the last basis; only then do the two swap.  With k = 0,
    # ``spare`` need only hold arnoldi_extend's weighted copy of r / beta
    out = np.empty((cfg.m + 1,) + op.shape)
    spare = np.empty((cfg.m + 1 if cfg.k else 1,) + op.shape)
    history = []
    events = []
    traces = [] if cfg.record_cycles else None
    weight = None
    prefix = None
    converged = False
    cum_iter = 0

    follows = cfg.strategy.follows_residual
    for cycle in range(1, cfg.maxit + 1):
        # a NaN or inf in R is named here, before a weight is built from R
        if not r_norm < math.inf:
            raise ValueError(f"cycle {cycle}: the residual norm is {r_norm}, "
                             "not a finite positive float")
        if r_norm == 0.0:  # ends the solve before a weight is built from R
            converged = True
            break
        if weight is None or follows:
            weight = make_weight(cfg.strategy, residual=r, rhs=c)
            norm_c_d = weighted_norm(c, weight)
        beta = weighted_norm(r, weight)
        if not 0.0 < beta < math.inf:  # NaN, over- or underflow
            raise ValueError(f"cycle {cycle}: the weighted residual norm is {beta}, "
                             "not a finite positive float")

        if prefix is None:
            # a plain restart is the one-block prefix r / beta
            np.divide(r, beta, out=out[0])
            prefix = (np.zeros((1, 0)), np.array([beta]))
        h_prefix, c_prefix = prefix
        dec = arnoldi_extend(out, h_prefix, op, weight, spare)
        # the carried residual lies in the span of the prefix, so its
        # representation in the extended basis is c_prefix exactly and has no
        # components along the freshly generated blocks
        cvec = np.zeros(dec.h.shape[0])
        cvec[: c_prefix.shape[0]] = c_prefix
        cum_iter += dec.h.shape[1] - h_prefix.shape[1]
        if dec.breakdown is not None:
            events.append(f"cycle {cycle}: invariant subspace at step {dec.breakdown}")

        sol = hessenberg_lsq(dec.h, cvec)
        if sol.degenerate:
            events.append(f"cycle {cycle}: degenerate projected least-squares")
        ncols = dec.h.shape[1]
        x += basis_combine(dec.basis[:ncols], sol.y)
        if traces is not None:
            traces.append(CycleTrace(cycle, weight, traces[-1].weight if traces else None,
                                     len(h_prefix), replace(dec, basis=dec.basis.copy()),
                                     np.ldexp(cvec, e), np.ldexp(sol.y, e), math.ldexp(beta, e)))
        np.subtract(c, op.apply(x), out=r)

        est = sol.rho / norm_c_d
        r_norm = frob(r)
        true_rel = r_norm / norm_c_f
        history.append(CycleRecord(cycle, cum_iter, est, true_rel,
                                   weight.tag, time.perf_counter() - t0))

        if est <= cfg.tol and true_rel <= cfg.tol:
            converged = True
            break
        if cycle == cfg.maxit:
            break

        prefix = None
        if cfg.k > 0 and dec.breakdown is None and not sol.degenerate:
            try:
                z = select_and_realify(dec.h, cfg.k)
                _, new_h, q = restart_subspace(dec, z, sol.residual, spare)
                prefix = (new_h, q.T @ sol.residual)
            except np.linalg.LinAlgError as exc:
                events.append(f"cycle {cycle}: deflation skipped ({exc})")
        if prefix is not None:
            out, spare = spare, out

    x = np.ldexp(x, e)  # inexact only in the subnormal range, hence the tol check
    true_resnorm = frob(c_in - op.apply(x)) / norm_c_f_in
    return SolveReport(x, converged and true_resnorm <= cfg.tol, len(history), history,
                       true_resnorm, events, time.perf_counter() - t0, traces)
