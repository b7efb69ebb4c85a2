"""Block vectors, sparse operators and weighted inner products.

A "block vector" is a dense real n x s matrix treated as a single Krylov
atom.  The inner product of two blocks Y, Z under an entrywise-positive n x s
weight W is trace(Z^T (W * Y)), with * the Hadamard product; a positive
diagonal D is the W that repeats D over the columns, giving trace(Z^T D Y).
The diamond product of two block sequences collects all pairwise weighted
inner products into a small Gram matrix; the inner product of two blocks is
its 1 x 1 case, so one kernel computes every weighted inner product.

Block vectors are plain C-ordered float64 ndarrays.  ``as_block`` states the
contract of a block given from outside once: 2-dimensional, finite and of
its operator's (n, s) shape.  A sequence of r blocks is one C-ordered
(r, n, s) array, so its (r, n*s) reshape is a view: the diamond product is
one matrix product of two such views and a basis combination one
vector-matrix product.  Sparse matrices are scipy CSR arrays.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs

__all__ = [
    "Weight",
    "SylvesterOperator",
    "as_block",
    "as_csr",
    "frob",
    "apply_sylvester",
    "weighted_inner",
    "weighted_norm",
    "diamond_product",
    "basis_combine",
]


def as_block(x, shape, name="block"):
    """Coerce ``x`` to a block of an operator of ``shape`` (n, s): a C-ordered
    float64 2d array with finite entries, the layout of the Arnoldi blocks;
    such an array is returned as is, not copied.  ValueError naming ``name``
    unless ``x`` is 2-dimensional, then finite, then of ``shape``, checked in
    that order."""
    b = np.ascontiguousarray(x, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError(f"{name} contains non-finite entries")
    if b.shape != shape:
        raise ValueError(f"{name} shape {b.shape} does not match operator {shape}")
    return b


def as_csr(mat, name="matrix"):
    """Coerce ``mat`` (dense or sparse) to a float64 ``csr_array`` in canonical
    format (sorted indices, no duplicates) with finite entries; such an array
    is returned as is, not copied.  Any other input is converted on a copy, so
    the caller's object is never modified."""
    if isinstance(mat, sp.csr_array) and mat.dtype == np.float64 and mat.has_canonical_format:
        m = mat
    else:
        m = sp.csr_array(mat).astype(np.float64)
        m.sum_duplicates()
        m.sort_indices()
    if not np.isfinite(m.data).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


_TINY = float(np.finfo(np.float64).tiny)
_INF = math.inf


def _root(sum_sq, y, val):
    """sqrt(val) for the sum of squares val = sum_sq(y); one that under- or
    overflowed (below the smallest normal float or inf) is redone on
    y / max|y|.  A NaN stays NaN."""
    t = 1.0
    if not _TINY <= val < _INF and 0.0 < (big := float(np.abs(y).max(initial=0.0))) < _INF:
        val, t = sum_sq(y / big), big
    return t * math.sqrt(val)


def _sumsq(v):
    # np.vdot runs the BLAS dot that ndarray.dot runs, without the floating
    # point error check after it, so an overflowed sum raises no warning
    return float(np.vdot(v, v))


def _finite_sumsq(a, what):
    """The sum of squares of ``a`` in C order, as frob sums it; ValueError
    naming ``what`` if an entry is not finite.  The sum is finite unless an
    entry is not or the sum overflows, so only then are the entries scanned."""
    a = a.ravel()
    val = _sumsq(a)
    if not val < _INF and not np.isfinite(a).all():
        raise ValueError(f"{what} contains non-finite entries")
    return val


def _norm(v, d=None):
    """Weighted 2-norm of the flat vector ``v`` under the flat weight ``d``
    (None for the identity: _sumsq's BLAS dot sums the squares), summed in
    the order of ``v`` and rescaled as in _root."""
    sum_sq = _sumsq if d is None else lambda u: float(np.einsum("i,i,i->", d, u, u))
    return _root(sum_sq, v, sum_sq(v))


def frob(x):
    """Frobenius norm of a dense array: _norm of its entries in C order,
    whatever its layout, so one BLAS dot sums the squares; rescaled as in
    _root."""
    return _norm(np.asarray(x, dtype=np.float64).ravel())


def _finite_norm(a, what):
    """frob(a) for a finite array; ValueError naming ``what`` otherwise."""
    return _root(_sumsq, a, _finite_sumsq(a, what))


class Weight:
    """Positive weight defining the block inner product trace(Z^T (W * Y)).

    ``data`` is one read-only C-ordered n x s array W of finite positive
    entries, or None for the identity (plain Frobenius inner product).  A
    diagonal weight D is stored as W, D repeated over the s columns: a product
    with the full array runs as one contiguous loop, where broadcasting an
    (n, 1) column loops over rows of length s.  On vec(Y) every weight is the
    diagonal diag(vec W); ``data.reshape(-1)`` is it for the flat C-ordered
    block.  ``tag`` records how the weight was constructed, for diagnostics.
    """

    __slots__ = ("data", "tag")

    def __init__(self, entries, tag="entrywise"):
        if entries is not None:
            entries = np.array(entries, dtype=np.float64, order="C")
            if entries.ndim != 2:
                raise ValueError(f"weight must be an n x s array, got shape {entries.shape}")
            if not (0.0 < entries.min() and entries.max() < np.inf):  # NaN fails too
                raise ValueError("weight entries must be finite and > 0")
            entries.flags.writeable = False
        self.data = entries
        self.tag = tag

    @classmethod
    def identity(cls, tag="identity"):
        return cls(None, tag)

    @classmethod
    def _of(cls, data, tag):
        """The weight on ``data``, a read-only C-ordered float64 n x s array
        whose entries the caller has made finite and > 0: no copy, no scan."""
        weight = cls.__new__(cls)
        weight.data = data
        weight.tag = tag
        return weight

    @classmethod
    def diagonal(cls, d, s, tag="diagonal"):
        """The diagonal weight D (a length-n vector) on n x s blocks."""
        d = np.asarray(d, dtype=np.float64)
        if d.ndim != 1:
            raise ValueError("diagonal weight must be a 1-d vector")
        return cls(np.broadcast_to(d[:, None], (d.size, s)), tag)

    def __repr__(self):
        shape = None if self.data is None else self.data.shape
        return f"Weight(shape={shape}, tag={self.tag!r})"


# B is kept as a dense copy for X @ B when it has at most this many rows.
# Measured with an FDM B (3-4.6 nonzeros per row), a C-ordered X and one
# OpenBLAS thread on a 2-vCPU Xeon VM, best of 15 repeats, dense / sparse
# time at s = 4, 9, 16, 25, 36, 49, 64, 81, 100:
#   n = 10,000: 0.20 0.08 0.11 0.12 0.13 0.19 0.15 0.47 0.49
#               (31 against 159 us at s = 4, 2.3 against 14.6 ms at s = 64)
#   n =    400: 0.09 0.13 0.11 0.32 0.42 0.46 0.70 1.39 1.43
# 64 is the largest measured s at which the dense product is faster at both n.
DENSE_B_MAX_S = 64


class SylvesterOperator:
    """The linear map X -> A X + X B for sparse square A (n x n), B (s x s).

    A and B pass through :func:`as_csr`: a float64 ``csr_array`` in canonical
    format is kept as is, not copied, like a block in :func:`as_block`.
    ``b_dense`` is a dense copy of B when s <= DENSE_B_MAX_S, else None.
    """

    __slots__ = ("a", "b", "b_dense", "n", "s")

    def __init__(self, a, b):
        self.a = as_csr(a, name="A")
        self.b = as_csr(b, name="B")
        for name, mat in (("A", self.a), ("B", self.b)):
            if mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square, got {mat.shape}")
        self.n = self.a.shape[0]
        self.s = self.b.shape[0]
        self.b_dense = self.b.toarray() if self.s <= DENSE_B_MAX_S else None

    @property
    def shape(self):
        return (self.n, self.s)

    def apply(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n, self.s):
            raise ValueError(f"block shape {x.shape} does not match operator {self.shape}")
        # A X by scipy's CSR kernel _sparsetools.csr_matvecs on a zeroed
        # C-ordered output, as self.a @ x runs it, without the dispatch
        # around it; tests/test_core.py pins it to that product bitwise
        a = self.a
        y = np.zeros((self.n, self.s))
        csr_matvecs(self.n, self.n, self.s, a.indptr, a.indices, a.data, x.ravel(), y.ravel())
        y += x @ (self.b if self.b_dense is None else self.b_dense)
        return y

    def frobenius_scale(self):
        """||A||_F + ||B||_F, the natural magnitude scale of the operator."""
        return frob(self.a.data) + frob(self.b.data)

    def __repr__(self):
        return f"SylvesterOperator(n={self.n}, s={self.s})"


def apply_sylvester(op, x):
    """Apply X -> A X + X B without forming any Kronecker matrix."""
    return op.apply(x)


def _weight_entries(weight, shape):
    """``weight.data``, checked against the trailing (n, s) block ``shape``."""
    w = weight.data
    if w is not None and w.shape != shape[-2:]:
        raise ValueError(f"weight shape {w.shape} does not match block shape {shape[-2:]}")
    return w


def weighted_inner(y, z, weight):
    """Weighted inner product trace(Z^T (W * Y)) of two equally shaped blocks:
    the 1 x 1 :func:`diamond_product` of the one-block stacks, whose checks
    (equal block shapes, the weight's shape) and one matrix product it runs."""
    return float(diamond_product(np.asarray(y)[None], np.asarray(z)[None], weight)[0, 0])


def weighted_norm(y, weight):
    """Norm induced by :func:`weighted_inner`, summed in C order whatever the
    layout of ``y`` (as frob sums) and rescaled as in _root; zero only for
    the zero block."""
    y = np.asarray(y)
    w = _weight_entries(weight, y.shape)
    return _norm(np.ravel(y), None if w is None else w.reshape(-1))


def diamond_product(u, v, weight):
    """Small Gram matrix of two stacked (r, n, s) block sequences.

    Entry (i, j) is the weighted inner product of ``u[i]`` and ``v[j]``,
    computed as one matrix product of the flattened stacks; the weight scales
    the ``v`` side only.  An empty stack on either side gives an empty Gram.
    """
    if u.shape[1:] != v.shape[1:]:
        raise ValueError(f"block shapes differ: {u.shape[1:]} vs {v.shape[1:]}")
    w = _weight_entries(weight, v.shape)
    if len(u) == 0 or len(v) == 0:
        return np.zeros((len(u), len(v)))
    if w is not None:
        v = w * v
    return u.reshape(len(u), -1) @ v.reshape(len(v), -1).T


def basis_combine(basis, y):
    """The (n, s) block sum_i y[i] * basis[i] of a stacked (r, n, s) basis and
    a 1-d coefficient vector ``y`` of length r."""
    if y.shape != (len(basis),):
        raise ValueError(f"got {y.shape} coefficients for {len(basis)} blocks")
    return (y @ basis.reshape(len(basis), -1)).reshape(basis.shape[1:])
