"""Shared helpers for the test suite."""

import numpy as np
import pytest
import scipy.sparse as sp

from sylgmres import SylvesterOperator


def random_operator(rng, n, s, shift=2.0, density=0.6):
    """Well-conditioned random Sylvester operator.

    Gaussian entries scaled to unit spectral radius-ish plus a diagonal shift,
    so the Kronecker linearization stays comfortably nonsingular.
    """
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal((s, s)) / np.sqrt(s)
    a[rng.random((n, n)) > density] = 0.0
    np.fill_diagonal(a, a.diagonal() + shift)
    np.fill_diagonal(b, b.diagonal() + shift)
    return SylvesterOperator(sp.csr_array(a), sp.csr_array(b))


def random_block(rng, n, s):
    return np.asfortranarray(rng.standard_normal((n, s)))


def random_hessenberg(rng, m):
    """(m+1) x m upper Hessenberg matrix with subdiagonal entries >= 0.5."""
    h = np.triu(rng.standard_normal((m + 1, m)), -1)
    h[np.arange(1, m + 1), np.arange(m)] = np.abs(h[np.arange(1, m + 1), np.arange(m)]) + 0.5
    return h


def kron_matrix(op):
    """Dense Kronecker linearization of a Sylvester operator."""
    return np.kron(np.eye(op.s), op.a.toarray()) + np.kron(op.b.toarray().T, np.eye(op.n))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
