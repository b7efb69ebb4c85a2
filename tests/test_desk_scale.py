"""Guards on the desk-scale problem of the solve benchmark's ``fdm20_batch``
workload: the FDM operators of the CLI presets ``varcoef1`` (A, n0 = 20,
n = 400) and ``varcoef2`` (B, s0 = 2, s = 4), m = 10, tol 1e-6.

Exact counts pin the solver's arithmetic: a change that moves a last bit of
an iterate usually moves a cycle somewhere in this grid.  The non-finite
cases pin that a NaN the operator produces mid-solve ends the solve with
ValueError rather than in a report.  The Kronecker oracle is checked for its
sums and its peak memory at this size, n*s = 1,600.
"""

import tracemalloc

import numpy as np
import pytest

import sylgmres.problems as problems
from sylgmres import SolverConfig, SylvesterOperator, WeightStrategy, kron_solve, wglgmres_dr
from sylgmres.cli import COEFFICIENT_PRESETS
from sylgmres.dense import small_solve
from sylgmres.problems import FdmSpec, fdm_matrix, gen_rhs
from sylgmres.weighting import STRATEGY_KINDS

from conftest import kron_matrix, random_block, random_operator


def fdm20():
    a = fdm_matrix(FdmSpec(20, *COEFFICIENT_PRESETS["varcoef1"]))
    b = fdm_matrix(FdmSpec(2, *COEFFICIENT_PRESETS["varcoef2"]))
    return SylvesterOperator(a, b)


class CountingOperator:
    """The operator seen only through ``shape`` and ``apply``; counts the
    applications and writes NaN into the output of call ``nan_at``."""

    def __init__(self, op, nan_at=None):
        self.op = op
        self.shape = op.shape
        self.calls = 0
        self.nan_at = nan_at

    def apply(self, x):
        self.calls += 1
        y = self.op.apply(x)
        if self.calls == self.nan_at:
            y[3, 1] = np.nan
        return y


# (cycles, Krylov steps, operator applications) for gen_rhs seeds 1, 2, 3
COUNTS = {
    ("identity", 0): [(9, 90, 101)] * 3,
    ("identity", 5): [(12, 65, 79)] * 3,
    ("mean", 0): [(9, 90, 101), (8, 80, 90), (8, 80, 90)],
    ("mean", 5): [(12, 65, 79), (12, 65, 79), (11, 60, 73)],
    ("max-col", 0): [(8, 80, 90), (9, 90, 101), (8, 80, 90)],
    ("max-col", 5): [(12, 65, 79)] * 3,
    ("min-col", 0): [(9, 90, 101)] * 3,
    ("min-col", 5): [(12, 65, 79)] * 3,
}


@pytest.mark.parametrize("strategy,k", list(COUNTS))
def test_exact_counts(strategy, k):
    op = fdm20()
    cfg = SolverConfig(m=10, k=k, tol=1e-6, strategy=WeightStrategy(strategy))
    for seed, expected in zip((1, 2, 3), COUNTS[strategy, k]):
        counting = CountingOperator(op)
        rep = wglgmres_dr(counting, gen_rhs(op.n, op.s, seed), cfg)
        assert rep.converged
        assert (rep.cycles, rep.history[-1].cumulative_iter, counting.calls) == expected, seed


@pytest.mark.parametrize("k", [0, 5])
@pytest.mark.parametrize("strategy", ["identity", "mean"])
@pytest.mark.parametrize("call", [5, 11, 12, 20])
def test_nan_from_the_operator_raises(strategy, k, call):
    # call 1 forms the first residual; later calls land inside a cycle's
    # Arnoldi steps or on the residual at a cycle's end
    op = fdm20()
    counting = CountingOperator(op, nan_at=call)
    cfg = SolverConfig(m=10, k=k, tol=1e-6, strategy=WeightStrategy(strategy))
    # the gates that remain: hessenberg_lsq on h ("matrix contains ..."), and
    # on a residual at a cycle's end its norm, before any weight is built from it
    with pytest.raises(ValueError, match="contains non-finite entries"
                                         r"|cycle \d+: the residual norm is nan"):
        wglgmres_dr(counting, gen_rhs(op.n, op.s, 1), cfg)
    assert counting.calls >= call


@pytest.mark.parametrize("strategy", STRATEGY_KINDS)
def test_nan_residual_names_the_cycle(strategy):
    # call 12 forms the residual at the end of cycle 1 (after the first
    # residual and ten Arnoldi steps); its norm refuses it before a weight is
    # built from it, so every strategy names the cycle and the residual
    op = fdm20()
    counting = CountingOperator(op, nan_at=12)
    ws = WeightStrategy(strategy, seed=3 if strategy == "random" else None)
    with pytest.raises(ValueError,
                       match="^cycle 2: the residual norm is nan, not a finite positive float$"):
        wglgmres_dr(counting, gen_rhs(op.n, op.s, 1), SolverConfig(m=10, strategy=ws))


@pytest.mark.parametrize("seed", range(4))
def test_kron_solve_sums_as_before(seed, monkeypatch):
    # the linearization is assembled with the second Kronecker product added
    # in place: the matrix and the solution are bitwise those of the sum
    # I (x) A + B^T (x) I formed out of place
    if seed < 3:
        rng = np.random.default_rng(seed)
        op = random_operator(rng, 9, 3)
        c = random_block(rng, 9, 3)
    else:
        op = fdm20()
        c = gen_rhs(op.n, op.s, 7)
    seen = []

    def spy(mat, rhs):
        seen.append(mat.copy())
        return small_solve(mat, rhs)

    monkeypatch.setattr(problems, "small_solve", spy)
    x = kron_solve(op, c)
    old = kron_matrix(op)
    assert np.array_equal(seen[0], old)
    expect = small_solve(old, c.ravel(order="F")).reshape(op.shape, order="F")
    assert np.array_equal(x, expect)


def test_kron_solve_peak_memory():
    # two dense (n*s)^2 matrices at the peak (the linearization and LAPACK's
    # copy for the LU), not three
    op = fdm20()
    c = gen_rhs(op.n, op.s, 7)
    tracemalloc.start()
    try:
        kron_solve(op, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (op.n * op.s) ** 2 * 8
