"""Weighted global Arnoldi process over block vectors.

Builds a weight-orthonormal block basis for the matrix Krylov subspace of a
Sylvester operator by classical Gram-Schmidt with delayed
reorthogonalization (DCGS2: Swirydowicz, Langou, Ananthan, Yang and Thomas,
Numer. Linear Algebra Appl. 2021; Bielich et al., Parallel Computing 2022).
A global Krylov method on n x s blocks is weighted GMRES on vec(X) in
R^(n*s), so each step works on flat views: the basis of a cycle is one
read-only C-ordered (j+1, n, s) array, viewed as (j+1, n*s) rows, and the
weight as one (n*s,) vector.  The recurrence coefficients land in a quasi
upper Hessenberg matrix of shape (j+1) x j.

Each block gets two Gram-Schmidt sweeps, as in CGS2, but its second sweep
runs one step late, fused with the first sweep of the next block.  The
newest block is *pending*: it has had one sweep and was normalized by its
one-sweep norm.  A step applies the operator to the pending block, writes
the result into the next slot, and then makes two passes over the basis:
one matrix product takes the coefficients and norms of the pending block and
of the new block together, and one applies both updates.  The new block is
the image of the pending block before its second sweep; the difference
lies in the span of the basis, so the relation op(V_i) = sum_k h[k,i] V_k
of the earlier columns turns it into a change of coefficients only.  The
second sweep also corrects the previous column.  The first step of a call
has no pending block and runs one plain sweep; after the last step the
pending block gets its second sweep alone, so a cycle ends one sweep late.
Breakdown is tested on the one-sweep norm of each new block, and again on
the corrected subdiagonal once its second sweep has run.

The fused update runs in place: one BLAS dgemm with alpha = -1 and beta = 1
subtracts the product from the two blocks, where a product into scratch and a
subtract would write it out and read it back.  It is bitwise the same: the
product has p + 1 <= m + 1 terms per entry, well below one block of the
kernel's inner dimension, so each entry's sum is complete before -1 times it
(exact) is added to the block, and the difference is rounded once, as the
subtract rounds it.  The lone sweeps keep their GEMV update, whose beta = 1
form would add partial sums into the vector one column chunk at a time.

The process can also continue from a retained prefix (the deflated-restart
case): new blocks are orthogonalized against every existing block in the
*current* weight while the prefix itself is never touched, so a basis built
across a weight change is orthonormal in the mixed sense (prefix blocks in
the weight of their construction, new blocks and all cross terms in the new
weight).  The coefficients on such a prefix go through its Gram matrix:
_prefix_projector returns None for a prefix orthonormal in the current
weight, else one callable that overwrites the leading len(prefix) rows of a
coefficient array, in place, with their solve through that matrix.  The
weighted norm of a flat block is core's kernel, which weighted_norm calls too.

arnoldi_extend grows the basis in place in a caller's C-ordered (m+1, n, s)
workspace whose leading blocks are the prefix: the solver writes r / beta
over the last basis (plain restart) or the recycled blocks into a second
workspace (deflated restart), which then takes the place of the first.  The
returned basis is a read-only view of the workspace, which itself stays
writable.

arnoldi_extend checks its workspaces and the prefix shape once per call; the
steps themselves scan nothing.  A NaN or inf the operator produces lands in
the recurrence matrix, whose finiteness ``dense.hessenberg_lsq`` checks
before the solver uses it (ValueError).  That is the one gate: the prefix
Gram solve passes a NaN in its right-hand side on into the coefficients, and
from there into the recurrence matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpotrf, dpotrs

# weighted_inner is no longer called here; it stays importable from this
# module because solvebench's tracer wraps it under this name.  The step
# kernel below calls neither diamond_product nor weighted_norm: they run once
# per extension, for the prefix Gram matrix and the start block.
from .core import Weight, _finite_sumsq, _norm, _weight_entries, as_block, diamond_product
from .core import weighted_inner, weighted_norm  # noqa: F401
from .dense import _lapack

__all__ = ["ArnoldiDecomposition", "arnoldi_run", "arnoldi_extend"]

# h_{j+1,j} at or below BREAKDOWN_TOL * (largest |h| so far, the new column
# included) stops the recurrence: the Krylov subspace is (numerically)
# invariant.  The floor is relative, so it does not depend on the scale of
# the operator.
BREAKDOWN_TOL = 1e-14


@dataclass
class ArnoldiDecomposition:
    """Block basis V_1..V_{j+1} with its (j+1) x j recurrence matrix.

    ``basis`` is a (j+1, n, s) array; ``basis[i]`` is block i.
    ``breakdown`` is the 1-based step at which the subdiagonal coefficient
    vanished, if it did; the basis then has one block fewer than usual and
    the last row of ``h`` is (numerically) zero.
    """

    basis: np.ndarray
    h: np.ndarray
    breakdown: int | None = None


def _sweep(v, flat, d, work, project):
    """One classical Gram-Schmidt sweep: make the flat vector ``v``
    weight-orthogonal to the rows of ``flat``, in place; returns the
    coefficients.

    The coefficients come from one GEMV against ``D v`` (``d`` is the flat
    weight, None for the identity) and are removed with one GEMV; ``work``
    is a (2, n*s) scratch array.  The rows after the prefix are orthonormal
    in the weight.  The prefix rows may fail to be (a restart prefix carried
    across a weight change), but every later row was made orthogonal to them
    in the weight, so the Gram matrix is block diagonal: ``project`` (the
    prefix projector, None for an orthonormal prefix) rewrites the prefix
    coefficients and the others are used as they are.
    """
    weighted = v if d is None else np.multiply(d, v, out=work[0])
    t = flat @ weighted
    if project is not None:
        project(t)
    np.subtract(v, np.matmul(t, flat, out=work[1]), out=v)
    return t


def _fold_second_sweep(h, p, a, nu2):
    """Fold the second sweep of block ``p`` (coefficients ``a``, remaining
    norm ``nu2`` of the block normalized after its first sweep) into column
    p - 1, which was written from the first sweep; returns the corrected
    subdiagonal entry."""
    nu1 = h[p, p - 1]
    h[:p, p - 1] += nu1 * a
    h[p, p - 1] = nu1 * nu2
    return nu1 * nu2


def _fused_step(flat, p, h, d, work, project, floor):
    """Second sweep of the pending block ``p`` and first sweep of the new
    block ``p + 1`` (the operator applied to the pending block), in place.

    Both sweeps share one GEMM for the coefficients and one for the update.
    Column p - 1 is corrected, column p is written and the pending block is
    normalized.  The new block is left unnormalized: its one-sweep norm is
    its weighted norm divided by the returned norm ``nu2`` of the swept
    pending block.  Returns None, after correcting column p - 1 only, if its
    subdiagonal entry is at or below ``floor``: the pending block lies in
    the span of the others.
    """
    pair = flat[p:p + 2]
    weighted = pair if d is None else np.multiply(d, pair, out=work)
    s = flat[:p + 1] @ weighted.T
    raw = s[:p]
    if project is not None:
        raw = raw.copy()
        project(s)
    a = s[:p, 0]
    aa, ab = (a @ raw).tolist()
    gamma, omega = s[p].tolist()
    # ||V_p - V_< a||^2 = gamma - a . a_raw: the Gram matrix of V_< is block
    # diagonal, with a = G a_raw on the prefix rows and a = a_raw elsewhere
    nu2 = math.sqrt(max(gamma - aa, 0.0))
    if _fold_second_sweep(h, p, a, nu2) <= floor:
        return None
    # op(swept V_p) = (new block - op(V_<) a) / nu2, and op(V_<) a = V H a
    c = (omega - ab) / nu2
    s[p, 1] = c
    hcol = h[:p + 1, p]
    np.subtract(s[:, 1], np.matmul(h[:p + 1, :p], a), out=hcol)
    np.divide(hcol, nu2, out=hcol)
    # new block -= V_< b + c (swept V_p), with swept V_p = (V_p - V_< a) / nu2;
    # the pending block's own coefficient 1 - 1/nu2 normalizes it in the update
    r = c / nu2
    s[:p, 1] -= r * a
    s[p, 0] = 1.0 - 1.0 / nu2
    s[p, 1] = r
    a /= nu2
    # pair -= s.T @ V_<=p in place (module docstring): C = -A B^T + C on the
    # F-ordered transposes, none of which is copied
    dgemm(-1.0, flat[:p + 1].T, s.T, 1.0, pair.T, overwrite_c=1, trans_b=1)
    return nu2


def arnoldi_run(op, v, weight, m):
    """Run m weighted global Arnoldi steps from the start block ``v``.

    The start block is normalized to V_1 = v / ||v||; each step applies the
    operator, orthogonalizes against all previous blocks and normalizes the
    remainder, so that op(V_j) = sum_{i<=j+1} h[i,j] V_i holds column by
    column.  Happy breakdown truncates the decomposition (see
    :class:`ArnoldiDecomposition`).
    """
    if m < 1:
        raise ValueError("step count m must be >= 1")
    v = as_block(v, op.shape, "start block")
    beta = weighted_norm(v, weight)
    if beta == 0.0:
        raise ValueError("start block must be nonzero")
    basis = np.empty((m + 1,) + v.shape)
    np.divide(v, beta, out=basis[0])
    return arnoldi_extend(basis, np.zeros((1, 0)), op, weight)


def arnoldi_extend(basis, h_prefix, op, weight, spare=None):
    """Continue the Arnoldi recurrence from the prefix at the front of ``basis``.

    ``basis`` is a C-ordered float64 (to_m + 1, n, s) workspace whose leading
    ``from_j = len(h_prefix)`` blocks are the prefix, with its recurrence
    matrix ``h_prefix`` (from_j x (from_j - 1)); the result embeds both
    unchanged.  Columns ``from_j`` .. ``to_m`` are produced by the standard
    loop under ``weight`` in the remaining blocks; from a single block this
    reproduces :func:`arnoldi_run`.  ``spare``, if given, is a C-ordered
    float64 ndarray of at least ``from_j`` dead blocks of the basis's block
    shape that shares no memory with ``basis`` (ValueError otherwise); the
    weighted copy of the prefix for its Gram matrix goes there.
    """
    if basis.ndim != 3 or basis.dtype != np.float64 or not basis.flags.c_contiguous:
        raise ValueError("basis workspace must be a C-ordered float64 (m + 1, n, s) array")
    from_j, to_m = len(h_prefix), len(basis) - 1
    if not 1 <= from_j <= to_m:
        raise ValueError(f"cannot extend from {from_j} blocks to {to_m} steps")
    if h_prefix.shape != (from_j, from_j - 1):
        raise ValueError(
            f"prefix recurrence matrix has shape {h_prefix.shape}, "
            f"expected {(from_j, from_j - 1)}"
        )
    if spare is not None and (
            spare.dtype != np.float64 or not spare.flags.c_contiguous
            or spare.shape[1:] != basis.shape[1:] or len(spare) < from_j
            or np.may_share_memory(spare, basis)):
        raise ValueError(f"spare workspace must be a C-ordered float64 array of at least "
                         f"{from_j} blocks of shape {basis.shape[1:]} apart from the basis")
    flat = basis.reshape(to_m + 1, -1)
    d = None if weight.data is None else weight.data.reshape(-1)
    work = np.empty((2, flat.shape[1]))
    size = from_j
    h = np.zeros((to_m + 1, to_m))
    h[: from_j, : from_j - 1] = h_prefix
    hmax = max(map(abs, h_prefix.ravel().tolist()), default=0.0)
    breakdown = None
    project = _prefix_projector(basis[:from_j], weight, spare)

    for col in range(from_j - 1, to_m):
        # block col is pending from the second step on: size == col + 1
        basis[size] = op.apply(basis[col])
        v = flat[size]
        if size == from_j:
            h[:size, col] = _sweep(v, flat[:size], d, work, project)
            scale = 1.0
        else:
            scale = _fused_step(flat, col, h, d, work, project, BREAKDOWN_TOL * hmax)
            if scale is None:
                breakdown = size = col
                break
        nrm = _norm(v, d) / scale
        h[size, col] = nrm
        # the largest |h| of the column, which holds nrm below the rest
        hmax = max(hmax, nrm, *map(abs, h[:size, col].tolist()))
        if nrm <= BREAKDOWN_TOL * hmax:
            breakdown = col + 1
            break
        np.divide(v, nrm * scale, out=v)
        size += 1
    else:
        # the second sweep of the last block, alone
        v = flat[to_m]
        a = _sweep(v, flat[:to_m], d, work, project)
        nu2 = _norm(v, d)
        if _fold_second_sweep(h, to_m, a, nu2) <= BREAKDOWN_TOL * hmax:
            breakdown = size = to_m
        else:
            np.divide(v, nu2, out=v)

    # size blocks after a breakdown, with the column of the last one; the
    # slice keeps all of h after a full run, where size is to_m + 1
    view = basis[:size]
    view.flags.writeable = False
    return ArnoldiDecomposition(view, h[:size + 1, :size], breakdown)


def _prefix_projector(prefix, weight, spare=None):
    """Projector of the prefix Gram system (module docstring), or None when
    the prefix is already orthonormal in ``weight``."""
    w = _weight_entries(weight, prefix.shape)
    weighted = prefix if w is None else np.multiply(
        w, prefix, out=None if spare is None else spare[:len(prefix)])
    gram = diamond_product(prefix, weighted, Weight.identity())
    if all(abs(x - (i == j)) <= 1e-12 for i, row in enumerate(gram.tolist())
           for j, x in enumerate(row)):
        return None
    # scipy.linalg.cho_factor's and cho_solve's LAPACK calls and checks
    _finite_sumsq(gram, "prefix Gram matrix")
    (factor,), info = _lapack(dpotrf, gram, lower=0, clean=0)

    def project(t):
        b = t[:len(prefix)]
        if info:
            # the weight change made the prefix numerically dependent (its Gram
            # matrix is not positive definite): a least-squares projection
            b[...] = np.linalg.lstsq(gram, b, rcond=None)[0]
            return
        (x,), _ = _lapack(dpotrs, factor, b, lower=0)
        b[...] = x

    return project
