"""Property tests of the solvers against the dense Kronecker oracle.

Each example draws a small random Sylvester problem, a weight strategy, a
deflation count k in {0, 1, m - 2}, a nonzero initial guess and a right-hand
side with one zero column.  A run that reports convergence must have a
Frobenius residual at most tol, and its distance to ``kron_solve``'s solution
must then obey the bound that residual implies.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sylgmres import SolverConfig, WeightStrategy, kron_solve, wglgmres, wglgmres_dr
from sylgmres.core import apply_sylvester, frob

from conftest import kron_matrix, random_block, random_operator

M = 6
TOL = 1e-8


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 10),
    s=st.integers(2, 3),
    strategy=st.sampled_from(["mean", "max-col", "hadamard"]),
    k=st.sampled_from([0, 1, M - 2]),
)
def test_converged_runs_meet_tol_and_match_oracle(seed, n, s, strategy, k):
    rng = np.random.default_rng(seed)
    op = random_operator(rng, n, s)
    c = random_block(rng, n, s)
    c[:, rng.integers(s)] = 0.0
    x0 = random_block(rng, n, s)
    cfg = SolverConfig(m=M, k=k, tol=TOL, maxit=300, strategy=WeightStrategy(strategy))
    report = (wglgmres_dr if k else wglgmres)(op, c, cfg, x0=x0)
    true_rel = frob(c - apply_sylvester(op, report.x)) / frob(c)
    assert report.true_resnorm == true_rel
    if not report.converged:
        return
    assert true_rel <= TOL
    # ||X - X*||_F <= ||K^-1||_2 ||R||_F for the Kronecker matrix K
    sigma_min = np.linalg.svd(kron_matrix(op), compute_uv=False)[-1]
    expect = kron_solve(op, c)
    assert frob(report.x - expect) <= (1 + 1e-6) * true_rel * frob(c) / sigma_min + 1e-14
