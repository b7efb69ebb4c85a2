"""Property tests of the solvers and their projected problems.

The solver examples run every one of the six weight strategies (``random``
seeded from the example) at every one of five power-of-two scales of C and
x0, two examples per pair.  Each draws a small random Sylvester problem, a
deflation count k in {0, 1, m - 2}, the zero or a nonzero initial guess and
a right-hand side with one zero column whose rows span 14 decades, so that
the weights built from a residual reach their floor.  A run that reports
convergence must have a Frobenius residual at most tol, and its distance to
``kron_solve``'s solution must then obey the bound that residual implies.

The projected-problem examples draw Hessenberg matrices whose square part
H_m is exactly singular: the least squares must flag the rank deficiency and
return the minimum-norm solution, and the harmonic Ritz pairs must still come
back sorted by magnitude with conjugate pairs adjacent.

Three solver edge cases are checked against ``kron_solve`` as well: a
deflation count whose cut splits a complex conjugate pair of harmonic Ritz
values (``select_and_realify`` grows or shrinks k), a right-hand side that
spans an invariant block, so the Arnoldi process breaks down at its first
step, and an operator with three distinct eigenvalues, so it breaks down at
its third step, while the block of the second step still waits for its
delayed second Gram-Schmidt sweep.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sylgmres.solver as solver_mod
from sylgmres import (SolverConfig, SylvesterOperator, WeightStrategy, kron_solve, wglgmres,
                      wglgmres_dr)
from sylgmres.arnoldi import arnoldi_run
from sylgmres.core import Weight, apply_sylvester, frob
from sylgmres.dense import hessenberg_lsq
from sylgmres.solver import harmonic_pairs, select_and_realify
from sylgmres.weighting import STRATEGY_KINDS

from conftest import kron_matrix, random_block, random_hessenberg, random_operator

M = 6
TOL = 1e-8


# powers of two, so C / scale and X / scale are exact; unscaled, the
# residual's squares would be subnormal at 2^-500, the mean-weighted ones
# would overflow at 2^500, and at 2^±700 the mean weight's norms, which
# grow like |C|^1.5, would leave the float range
@pytest.mark.parametrize("scale", [2.0**-700, 2.0**-500, 1.0, 2.0**500, 2.0**700],
                         ids=["2^-700", "2^-500", "1", "2^500", "2^700"])
@pytest.mark.parametrize("strategy", STRATEGY_KINDS)
@settings(max_examples=2, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 10),
    s=st.integers(2, 3),
    k=st.sampled_from([0, 1, M - 2]),
    guess=st.booleans(),
)
def test_converged_runs_meet_tol_and_match_oracle(strategy, scale, seed, n, s, k, guess):
    rng = np.random.default_rng(seed)
    op = random_operator(rng, n, s)
    c = random_block(rng, n, s)
    c[:, rng.integers(s)] = 0.0
    # the rows of C scaled by 10^u, the u spaced evenly over [-14, 0] in a
    # random order: from the zero guess the first residual is C, so the
    # weights built from it reach their floor, FLOOR_REL = 1e-12 times the
    # largest entry
    c *= 10.0 ** rng.permutation(np.linspace(-14.0, 0.0, n))[:, None]
    x0 = random_block(rng, n, s)
    ws = WeightStrategy(strategy, seed=seed if strategy == "random" else None)
    cfg = SolverConfig(m=M, k=k, tol=TOL, maxit=300, strategy=ws)
    scaled = scale * c
    report = (wglgmres_dr if k else wglgmres)(op, scaled, cfg,
                                              x0=scale * x0 if guess else None)
    assert report.true_resnorm == frob(scaled - apply_sylvester(op, report.x)) / frob(scaled)
    if not report.converged:
        return
    x = report.x / scale
    true_rel = frob(c - apply_sylvester(op, x)) / frob(c)
    assert true_rel <= TOL
    # ||X - X*||_F <= ||K^-1||_2 ||R||_F for the Kronecker matrix K
    sigma_min = np.linalg.svd(kron_matrix(op), compute_uv=False)[-1]
    expect = kron_solve(op, c)
    assert frob(x - expect) <= (1 + 1e-6) * true_rel * frob(c) / sigma_min + 1e-14


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


def _pair_starts(values):
    """Indices where select_and_realify's scan meets the first value of a
    complex conjugate pair."""
    starts, i = [], 0
    while i < len(values):
        if values[i].imag == 0.0:
            i += 1
        else:
            starts.append(i)
            i += 2
    return starts


def _rotation_operator(rng, n, s):
    """Sylvester operator whose spectrum is complex conjugate pairs: A is
    block diagonal with 2x2 rotation-scaling blocks plus a small dense
    perturbation, B a positive diagonal."""
    a = 0.05 * rng.standard_normal((n, n))
    for j in range(0, n, 2):
        re, im = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
        a[j:j + 2, j:j + 2] += [[re, im], [-im, re]]
    return SylvesterOperator(a, np.diag(rng.uniform(0.1, 1.0, s)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), half=st.integers(3, 6),
       grow=st.booleans())
def test_conjugate_pair_cut_at_k(seed, half, grow):
    # The first cycle's harmonic pairs are those of arnoldi_run on C under
    # the identity weight, as in the solver.  k is chosen so that the cut
    # splits a conjugate pair: select_and_realify grows k by one when there
    # is room below m - 2 and shrinks it by one at k = m - 2.
    rng = np.random.default_rng(seed)
    n, s = 2 * half, 2
    op = _rotation_operator(rng, n, s)
    c = random_block(rng, n, s)
    choice = None
    for m in range(5, 11):
        dec = arnoldi_run(op, c, Weight.identity(), m)
        if dec.breakdown is not None:
            continue
        cap = m - 2
        starts = [p for p in _pair_starts(harmonic_pairs(dec.h).values) if p + 1 <= cap]
        cut = [p for p in starts if p + 2 <= cap] if grow else [p for p in starts if p + 1 == cap]
        if cut:
            choice = (m, cut[0] + 1)
            break
    assume(choice is not None)
    m, k = choice

    seen = []

    def recording(pairs, k_req):
        out = select_and_realify(pairs, k_req)
        seen.append((k_req, out.shape[1]))
        return out

    cfg = SolverConfig(m=m, k=k, tol=TOL, maxit=300)
    with patch.object(solver_mod, "select_and_realify", recording):
        report = wglgmres_dr(op, c, cfg)
    assert seen[0] == (k, k + 1 if grow else k - 1)
    assert report.converged
    true_rel = frob(c - apply_sylvester(op, report.x)) / frob(c)
    assert true_rel <= TOL
    sigma_min = np.linalg.svd(kron_matrix(op), compute_uv=False)[-1]
    expect = kron_solve(op, c)
    assert frob(report.x - expect) <= (1 + 1e-6) * true_rel * frob(c) / sigma_min + 1e-14


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 10),
    s=st.integers(2, 4),
    strategy=st.sampled_from(["identity", "mean", "max-col", "hadamard"]),
    k=st.sampled_from([0, 1, M - 2]),
    with_x0=st.booleans(),
)
def test_breakdown_at_step_one_on_invariant_block(seed, n, s, strategy, k, with_x0):
    # Rows S of A's columns are alpha e_i and rows T of B are beta e_j^T, so
    # every block supported on S x T is invariant: op(Y) = (alpha + beta) Y up
    # to one rounding per entry.  With C and x0 supported there, the first
    # Arnoldi step breaks down and one cycle solves the system.
    rng = np.random.default_rng(seed)
    rows = rng.choice(n, size=rng.integers(1, n), replace=False)
    cols = rng.choice(s, size=rng.integers(1, s + 1), replace=False)
    alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    a = rng.standard_normal((n, n)) / np.sqrt(n) + 3.0 * np.eye(n)
    b = rng.standard_normal((s, s)) / np.sqrt(s) + 3.0 * np.eye(s)
    a[:, rows] = 0.0
    a[rows, rows] = alpha
    b[cols, :] = 0.0
    b[cols, cols] = beta
    op = SylvesterOperator(a, b)
    support = np.zeros((n, s), dtype=bool)
    support[np.ix_(rows, cols)] = True
    c = np.where(support, rng.standard_normal((n, s)), 0.0)
    x0 = np.where(support, rng.standard_normal((n, s)), 0.0) if with_x0 else None
    cfg = SolverConfig(m=M, k=k, tol=TOL, maxit=5, strategy=WeightStrategy(strategy))
    report = (wglgmres_dr if k else wglgmres)(op, c, cfg, x0=x0)
    assert report.breakdowns[0] == "cycle 1: invariant subspace at step 1"
    assert report.converged and report.cycles == 1
    true_rel = frob(c - apply_sylvester(op, report.x)) / frob(c)
    assert true_rel <= TOL
    sigma_min = np.linalg.svd(kron_matrix(op), compute_uv=False)[-1]
    expect = kron_solve(op, c)
    assert frob(report.x - expect) <= (1 + 1e-6) * true_rel * frob(c) / sigma_min + 1e-14


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 10), s=st.integers(1, 3))
def test_breakdown_at_step_three_with_a_pending_block(seed, n, s):
    # A = Q diag(lambda) Q^T takes three well-separated values and B = 0, so
    # the Krylov space of C has dimension 3 and step 3 breaks down.  C has a
    # component of unit norm in each eigenspace: a weakly excited one would
    # leave a rounding remainder above the breakdown tolerance at step 3.
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.5, 1.5) + np.cumsum(rng.uniform(0.5, 1.5, 3))
    labels = rng.permutation(np.concatenate([np.arange(3), rng.integers(0, 3, n - 3)]))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    op = SylvesterOperator((q * values[labels]) @ q.T, np.zeros((s, s)))
    y = rng.standard_normal((n, s))
    for g in range(3):
        y[labels == g] /= frob(y[labels == g])
    c = q @ y
    assert arnoldi_run(op, c, Weight.identity(), M).breakdown == 3
    expect = kron_solve(op, c)
    sigma_min = values.min()
    for strategy, k in (("identity", 0), ("mean", 3)):
        cfg = SolverConfig(m=M, k=k, tol=TOL, maxit=5, strategy=WeightStrategy(strategy))
        report = wglgmres_dr(op, c, cfg)
        assert report.breakdowns[0] == "cycle 1: invariant subspace at step 3"
        assert report.converged and report.cycles == 1
        true_rel = frob(c - apply_sylvester(op, report.x)) / frob(c)
        assert true_rel <= TOL
        assert frob(report.x - expect) <= (1 + 1e-6) * true_rel * frob(c) / sigma_min + 1e-14
