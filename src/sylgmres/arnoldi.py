"""Weighted global Arnoldi process over block vectors.

Builds a weight-orthonormal block basis for the matrix Krylov subspace of a
Sylvester operator by classical Gram-Schmidt with reorthogonalization in the
weighted inner product (Giraud, Langou, Rozloznik and van den Eshof, Numer.
Math. 2005).  A global Krylov method on n x s blocks is weighted GMRES on
vec(X) in R^(n*s), so each step works on flat views: the basis of a cycle is
one read-only C-ordered (j+1, n, s) array, viewed as (j+1, n*s) rows, and the
weight as one (n*s,) vector.  A Gram-Schmidt sweep is one GEMV for the
coefficients and one for the update, the new block is built in place in its
basis slot, and the recurrence coefficients land in a quasi upper Hessenberg
matrix of shape (j+1) x j.

The process can also continue from a retained prefix (the deflated-restart
case): new blocks are orthogonalized against every existing block in the
*current* weight while the prefix itself is never touched, so a basis built
across a weight change is orthonormal in the mixed sense (prefix blocks in
the weight of their construction, new blocks and all cross terms in the new
weight).  Such a prefix forces the second Gram-Schmidt sweep on every step.
That costs little: the 1/sqrt(2) rule alone runs it on most steps (1,054 of
1,170 in the plain FDM n0=100 seed-7 solve), and a deflated step costs more
than a plain one mainly through its larger basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrs

# weighted_inner is no longer called here; it stays importable from this
# module because solvebench's tracer wraps it under this name.  The step
# kernel below calls neither diamond_product nor weighted_norm: they run once
# per extension, for the prefix Gram matrix and the start block.
from .core import as_block, diamond_product, weighted_inner, weighted_norm  # noqa: F401

__all__ = ["ArnoldiDecomposition", "arnoldi_run", "arnoldi_extend"]

# h_{j+1,j} at or below BREAKDOWN_TOL * max(1, largest |h| so far) stops the
# recurrence: the Krylov subspace is (numerically) invariant.
BREAKDOWN_TOL = 1e-14
_REORTH_DROP = math.sqrt(0.5)


@dataclass
class ArnoldiDecomposition:
    """Block basis V_1..V_{j+1} with its (j+1) x j recurrence matrix.

    ``basis`` is a (j+1, n, s) array (or, for a hand-built prefix, a list of
    (n, s) blocks); ``basis[i]`` is block i.  ``breakdown`` is the 1-based
    step at which the subdiagonal coefficient vanished, if it did; the basis
    then has one block fewer than usual and the last row of ``h`` is
    (numerically) zero.
    """

    basis: np.ndarray | list = field(default_factory=list)
    h: np.ndarray = field(default_factory=lambda: np.zeros((1, 0)))
    breakdown: int | None = None

    @property
    def steps(self):
        return self.h.shape[1]


def _norm(v, d):
    """Weighted 2-norm of the flat vector ``v`` under the flat weight ``d``
    (None for the identity), summed as :func:`core.weighted_norm` sums it."""
    val = float(np.einsum("i,i->", v, v) if d is None else np.einsum("i,i,i->", d, v, v))
    # tiny negative values can appear through rounding in the einsum reduction
    return math.sqrt(val) if val > 0.0 else 0.0


def _cgs2(v, flat, d, dv, prefix_solve, prefix_count):
    """Make the flat vector ``v`` weight-orthogonal to the rows of ``flat``,
    in place; returns the coefficients and the remaining weighted norm.

    Classical Gram-Schmidt with reorthogonalization: a sweep takes every
    coefficient with one GEMV against ``D v`` (formed in the scratch vector
    ``dv``; ``d`` is the flat weight, None for the identity) and removes them
    with one GEMV.  Rows beyond ``prefix_count`` are orthonormal in the
    weight.  The leading ``prefix_count`` rows may fail to be (a restart
    prefix carried across a weight change), but every later row was made
    orthogonal to them in the weight, so the Gram matrix is block diagonal:
    the prefix coefficients go through ``prefix_solve`` (an oblique
    projection through the prefix Gram matrix) and the others are used as
    they are.  A second sweep runs whenever a non-trivial prefix is present,
    otherwise when the norm drops below 1/sqrt(2) of its starting value.
    """
    before = _norm(v, d)
    coeffs = None
    for _ in range(2):
        weighted = v if d is None else np.multiply(d, v, out=dv)
        # (b, N) @ (N, 1), the shapes diamond_product used: the same BLAS
        # call, so the same rounding
        t = (flat @ weighted[:, None])[:, 0]
        if prefix_solve is not None:
            t[:prefix_count] = prefix_solve(t[:prefix_count])
        np.subtract(v, t @ flat, out=v)
        after = _norm(v, d)
        coeffs = t if coeffs is None else coeffs + t
        if prefix_solve is None and after >= _REORTH_DROP * before:
            break
    return coeffs, after


def _flat_weight(weight, s):
    """The weight as one flat (n*s,) vector and a scratch vector of its size,
    or (None, None) for the identity."""
    entries = weight._entries(s)
    if entries is None:
        return None, None
    d = entries.reshape(-1)
    return d, np.empty_like(d)


def _orthogonalize(w, basis, weight, prefix_solve=None, prefix_count=0):
    """Make a copy of the (n, s) block ``w`` weight-orthogonal to every block
    of the stacked ``basis`` (see :func:`_cgs2`); ``w`` is not modified.

    Returns the coefficients, the orthogonalized block and its weighted norm.
    """
    v = np.array(w, dtype=np.float64, order="C")
    basis = np.asarray(basis, dtype=np.float64)
    d, dv = _flat_weight(weight, v.shape[1])
    coeffs, nrm = _cgs2(v.reshape(-1), basis.reshape(len(basis), -1), d, dv,
                        prefix_solve, prefix_count)
    return coeffs, v, nrm


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
    v = as_block(v)
    if v.shape != op.shape:
        raise ValueError(f"start block shape {v.shape} does not match operator {op.shape}")
    beta = weighted_norm(v, weight)
    if beta == 0.0:
        raise ValueError("start block must be nonzero")
    seed = ArnoldiDecomposition((v / beta)[None], np.zeros((1, 0)))
    return arnoldi_extend(seed, op, weight, 1, m)


def arnoldi_extend(dec, op, weight, from_j, to_m):
    """Continue the Arnoldi recurrence from an existing prefix.

    ``dec`` must hold ``from_j`` blocks and their ``from_j x (from_j - 1)``
    recurrence matrix, which is embedded unchanged in the result.  Columns
    ``from_j`` .. ``to_m`` are then produced by the standard loop under
    ``weight``; with ``from_j = 1`` this reproduces :func:`arnoldi_run`.
    The input decomposition is not modified.
    """
    if from_j != len(dec.basis):
        raise ValueError(f"prefix holds {len(dec.basis)} blocks, expected {from_j}")
    if dec.h.shape != (from_j, from_j - 1):
        raise ValueError(
            f"prefix recurrence matrix has shape {dec.h.shape}, "
            f"expected {(from_j, from_j - 1)}"
        )
    if to_m < from_j:
        raise ValueError(f"cannot extend from {from_j} blocks to {to_m} steps")

    prefix = np.asarray(dec.basis, dtype=np.float64)
    basis = np.empty((to_m + 1,) + prefix.shape[1:])
    basis[:from_j] = prefix
    flat = basis.reshape(to_m + 1, -1)
    d, dv = _flat_weight(weight, basis.shape[-1])
    size = from_j
    h = np.zeros((to_m + 1, to_m))
    h[: from_j, : from_j - 1] = dec.h
    hmax = max(1.0, float(np.abs(dec.h).max()) if dec.h.size else 0.0)
    breakdown = None
    prefix_solve, prefix_count = _prefix_projector(prefix, weight)

    for col in range(from_j - 1, to_m):
        basis[size] = op.apply(basis[col])
        v = flat[size]
        coeffs, nrm = _cgs2(v, flat[:size], d, dv, prefix_solve, prefix_count)
        h[: col + 1, col] = coeffs
        h[col + 1, col] = nrm
        hmax = max(hmax, float(np.abs(coeffs).max()), nrm)
        if nrm <= BREAKDOWN_TOL * hmax:
            breakdown = col + 1
            h = h[: col + 2, : col + 1]
            break
        np.divide(v, nrm, out=v)
        size += 1

    basis.flags.writeable = False
    return ArnoldiDecomposition(basis[:size], h, breakdown)


def _prefix_projector(prefix, weight):
    """Solver for the prefix Gram system, or None when the prefix is already
    orthonormal in ``weight`` (then plain Gram-Schmidt suffices)."""
    gram = diamond_product(prefix, prefix, weight)
    if np.abs(gram - np.eye(len(prefix))).max() <= 1e-12:
        return None, 0
    try:
        factor, lower = scipy.linalg.cho_factor(gram)
    except np.linalg.LinAlgError:
        # weight change made the prefix numerically dependent; fall back to a
        # least-squares projection so the extension can still proceed
        return (lambda b: np.linalg.lstsq(gram, b, rcond=None)[0]), len(prefix)

    def cho_solve(b):
        # scipy.linalg.cho_solve's LAPACK call and checks, without its
        # per-call argument handling
        if not np.isfinite(b).all():
            raise ValueError("array must not contain infs or NaNs")
        x, info = dpotrs(factor, b, lower=lower)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        return x

    return cho_solve, len(prefix)
