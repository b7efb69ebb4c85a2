"""Property tests of the solvers and their projected problems.

Each solver example draws a small random Sylvester problem, a weight
strategy, a deflation count k in {0, 1, m - 2}, a nonzero initial guess and a
right-hand side with one zero column.  A run that reports convergence must
have a Frobenius residual at most tol, and its distance to ``kron_solve``'s
solution must then obey the bound that residual implies.

The projected-problem examples draw Hessenberg matrices whose square part
H_m is exactly singular: the least squares must flag the rank deficiency and
return the minimum-norm solution, and the harmonic Ritz pairs must still come
back sorted by magnitude with conjugate pairs adjacent.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sylgmres import SolverConfig, WeightStrategy, kron_solve, wglgmres, wglgmres_dr
from sylgmres.core import apply_sylvester, frob
from sylgmres.dense import hessenberg_lsq
from sylgmres.solver import harmonic_pairs

from conftest import kron_matrix, random_block, random_hessenberg, random_operator

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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 12), data=st.data())
def test_rank_deficient_projected_lsq_is_minimum_norm(seed, m, data):
    rng = np.random.default_rng(seed)
    h = random_hessenberg(rng, m)
    # column j becomes exactly twice column j - 1 (zero for j = 0), so H and
    # its square part H_m lose rank by one
    j = data.draw(st.integers(0, m - 1))
    h[:, j] = 2.0 * h[:, j - 1] if j else 0.0
    c = rng.standard_normal(m + 1)
    sol = hessenberg_lsq(h, c)
    assert sol.degenerate
    expect = np.linalg.lstsq(h, c, rcond=None)[0]
    sv = np.linalg.svd(h, compute_uv=False)
    kappa = sv[0] / sv[-2]  # condition number on the range of H
    rho = np.linalg.norm(c - h @ expect)
    eps = 1000 * np.finfo(np.float64).eps
    assert np.linalg.norm(sol.y - expect) <= eps * kappa * (
        np.linalg.norm(expect) + kappa * rho / sv[0])
    assert abs(sol.rho - rho) <= eps * (sv[0] * np.linalg.norm(expect) + np.linalg.norm(c))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 12), data=st.data())
def test_harmonic_pairs_with_singular_square_part(seed, m, data):
    rng = np.random.default_rng(seed)
    h = random_hessenberg(rng, m)
    # H_m z = 0 for z = 2 e_j + e_{m-1}, while the last row keeps H regular
    j = data.draw(st.integers(0, m - 2))
    h[:m, m - 1] = -2.0 * h[:m, j]
    pairs = harmonic_pairs(h)
    mags = np.abs(pairs.values)
    assert np.all(np.diff(mags) >= 0.0)
    i = 0
    while i < len(pairs):
        if pairs.values[i].imag != 0.0:
            assert pairs.values[i + 1] == np.conj(pairs.values[i])
            i += 2
        else:
            i += 1
    # each pair solves the harmonic pencil theta H_m^T g = H^T H g
    normal = h.T @ h
    for theta, g in zip(pairs.values, pairs.vectors.T):
        assert np.linalg.norm(normal @ g - theta * (h[:m].T @ g)) <= 1e-8 * np.linalg.norm(normal)
