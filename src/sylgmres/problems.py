"""Test-problem construction and the dense correctness oracle.

* :func:`fdm_matrix` discretizes a 2-d convection-diffusion-reaction operator
  on the unit square with homogeneous Dirichlet boundaries (5-point central
  differences), the classic source of nonsymmetric test matrices.
* :func:`read_matrix_market` / :func:`write_matrix_market` handle the
  coordinate real Matrix Market exchange format.
* :func:`gen_rhs` builds seeded sparse-pattern random right-hand sides.
* :func:`kron_solve` solves AX + XB = C through its dense Kronecker
  linearization, small sizes only; it is the reference the iterative solvers
  are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import as_block, as_csr
from .dense import small_solve

__all__ = [
    "FdmSpec",
    "MatrixMarketError",
    "fdm_matrix",
    "read_matrix_market",
    "write_matrix_market",
    "gen_rhs",
    "default_density",
    "kron_solve",
]

# Hard size cap for the dense Kronecker path.
KRON_MAX = 4096


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; carries the offending line number."""

    def __init__(self, path, lineno, message):
        self.path = path
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {message}")


@dataclass(frozen=True)
class FdmSpec:
    """Grid size and coefficient functions of the model 2-d operator.

    The operator is ``Lu = laplace(u) - f1 u_x - f2 u_y - f3 u`` on the unit
    square with zero boundary values; ``n0`` interior points per axis give an
    ``n0^2 x n0^2`` matrix.  The coefficients may be scalars or callables of
    (x, y); callables may be numpy-vectorized or plain scalar functions.
    """

    n0: int
    f1: object = 0.0
    f2: object = 0.0
    f3: object = 0.0

    def __post_init__(self):
        if self.n0 < 1:
            raise ValueError("n0 must be >= 1")


def _coefficient_values(f, x, y):
    if not callable(f):
        return np.full(x.shape, float(f))
    try:
        v = np.asarray(f(x, y), dtype=np.float64)
        return np.broadcast_to(v, x.shape).astype(np.float64)
    except (TypeError, ValueError):
        return np.array([float(f(xi, yi)) for xi, yi in zip(x, y)])


def fdm_matrix(spec):
    """Central-difference matrix of the operator in :class:`FdmSpec`.

    Grid points x_i = i*h, y_j = j*h with h = 1/(n0+1), ordered with the
    x index fastest.  Each row holds at most five entries: the diagonal
    ``-4/h^2 - f3`` and east/west/north/south couplings
    ``1/h^2 -+ f1/(2h)`` and ``1/h^2 -+ f2/(2h)``.
    """
    n0 = spec.n0
    n = n0 * n0
    h = 1.0 / (n0 + 1)
    idx = np.arange(n)
    ix = idx % n0
    iy = idx // n0
    x = (ix + 1) * h
    y = (iy + 1) * h

    f1 = _coefficient_values(spec.f1, x, y)
    f2 = _coefficient_values(spec.f2, x, y)
    f3 = _coefficient_values(spec.f3, x, y)

    lap = 1.0 / h**2
    rows = [idx]
    cols = [idx]
    vals = [-4.0 * lap - f3]

    # east, west, north and south couplings lap -+ f/(2h)
    for keep, offset, f, op in ((ix < n0 - 1, 1, f1, np.subtract), (ix > 0, -1, f1, np.add),
                                (iy < n0 - 1, n0, f2, np.subtract), (iy > 0, -n0, f2, np.add)):
        rows.append(idx[keep])
        cols.append(idx[keep] + offset)
        vals.append(op(lap, f[keep] / (2.0 * h)))

    coo = sp.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return as_csr(coo)


def _parse_header(path, line):
    parts = line.strip().split()
    if len(parts) != 5 or parts[0] != "%%MatrixMarket":
        raise MatrixMarketError(path, 1, "expected '%%MatrixMarket matrix coordinate real <symmetry>' header")
    values = [p.lower() for p in parts[1:]]
    for what, value, allowed in zip(("object", "format", "field", "symmetry"), values,
                                    (("matrix",), ("coordinate",), ("real",),
                                     ("general", "symmetric"))):
        if value not in allowed:
            raise MatrixMarketError(path, 1, f"unsupported {what} {value!r} "
                                             f"(only {' or '.join(map(repr, allowed))})")
    return values[3]


def read_matrix_market(path):
    """Read a coordinate real general/symmetric Matrix Market file as CSR.

    Indices are 1-based in the file; symmetric files must store the lower
    triangle and are expanded to full storage.  Duplicate entries are summed.
    Any structural problem raises :class:`MatrixMarketError` with the line
    number.
    """
    path = str(path)
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError(path, 1, "empty file")
    symmetry = _parse_header(path, lines[0])

    lineno = 1
    nrows = ncols = nnz = None
    entries_read = 0
    ri = []
    ci = []
    vv = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        if nrows is None:
            if len(parts) != 3:
                raise MatrixMarketError(path, lineno, "size line must be 'rows cols nnz'")
            try:
                nrows, ncols, nnz = (int(p) for p in parts)
            except ValueError:
                raise MatrixMarketError(path, lineno, f"non-integer size line {stripped!r}") from None
            if nrows < 1 or ncols < 1 or nnz < 0:
                raise MatrixMarketError(path, lineno, "matrix dimensions must be positive")
            if nrows != ncols:
                raise MatrixMarketError(
                    path, lineno, f"matrix must be square, got {nrows} x {ncols}"
                )
            continue
        if entries_read == nnz:
            raise MatrixMarketError(path, lineno, f"more than the declared {nnz} entries")
        if len(parts) != 3:
            raise MatrixMarketError(path, lineno, "entry line must be 'row col value'")
        try:
            i = int(parts[0])
            j = int(parts[1])
        except ValueError:
            raise MatrixMarketError(path, lineno, f"non-integer index in {stripped!r}") from None
        try:
            v = float(parts[2].replace("d", "e").replace("D", "E"))
        except ValueError:
            raise MatrixMarketError(path, lineno, f"non-real value {parts[2]!r}") from None
        if not (1 <= i <= nrows) or not (1 <= j <= ncols):
            raise MatrixMarketError(
                path, lineno, f"index ({i}, {j}) outside the {nrows} x {ncols} matrix"
            )
        if symmetry == "symmetric" and i < j:
            raise MatrixMarketError(
                path, lineno, "symmetric files must store the lower triangle (row >= col)"
            )
        entries_read += 1
        ri.append(i - 1)
        ci.append(j - 1)
        vv.append(v)
        if symmetry == "symmetric" and i != j:
            ri.append(j - 1)
            ci.append(i - 1)
            vv.append(v)

    if nrows is None:
        raise MatrixMarketError(path, lineno + 1, "missing size line")
    if entries_read != nnz:
        raise MatrixMarketError(
            path, lineno + 1, f"expected {nnz} entries, file ends after {entries_read}"
        )
    coo = sp.coo_array(
        (np.array(vv, dtype=np.float64), (np.array(ri, dtype=np.int64), np.array(ci, dtype=np.int64))),
        shape=(nrows, ncols),
    )
    return as_csr(coo)


def write_matrix_market(mat, path):
    """Write a sparse matrix as coordinate real general, 17 significant digits."""
    m = as_csr(mat)
    coo = m.tocoo()
    with open(str(path), "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{m.shape[0]} {m.shape[1]} {coo.nnz}\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


def default_density(n, s):
    """Right-hand-side fill-in used when none is requested."""
    return min(0.5, 200.0 / (n * s))


def gen_rhs(n, s, seed, density=None):
    """Seeded random right-hand side with roughly ``density * n * s`` nonzeros.

    Nonzero positions are Bernoulli(density), values uniform on (0, 1); the
    result is a dense C-ordered (n, s) array, the solver's block layout.
    Identical arguments give bit-identical output.
    """
    if density is None:
        density = default_density(n, s)
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    mask = rng.random((n, s)) < density
    values = rng.random((n, s))
    return np.where(mask, values, 0.0)


def kron_solve(op, c):
    """Solve AX + XB = C through the dense Kronecker linearization.

    Assembles I_s (x) A + B^T (x) I_n, solves it with :func:`dense.small_solve`
    (partial-pivoted LU) and reshapes back.  Refuses a non-finite C and
    problems with n*s above the desk-scale cap (ValueError), and raises
    LinAlgError for a singular linearization (it has no unique solution).
    """
    c = as_block(c, name="right-hand side")
    if c.shape != op.shape:
        raise ValueError(f"right-hand side shape {c.shape} does not match operator {op.shape}")
    n, s = op.shape
    if n * s > KRON_MAX:
        raise ValueError(f"kron_solve is capped at n*s <= {KRON_MAX}, got {n * s}")
    # the second product is added in place (the same sums, one (n*s)^2 matrix
    # less); np.kron copies its result once more for a B^T that is not C-ordered
    big = np.kron(np.eye(s), op.a.toarray())
    big += np.kron(np.ascontiguousarray(op.b.toarray().T), np.eye(n))
    return small_solve(big, c.ravel(order="F")).reshape((n, s), order="F")
