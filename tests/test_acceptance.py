"""Acceptance suite.

Every test prints one ``[acceptance] criterion N: PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them all).  The solver runs
of criteria 1, 3, 5, 7 and 8 are computed once per session by cached helpers
that criterion 9 calls too, so the exit-honesty audit covers the same runs
whether it runs with the others, before them or alone.
"""

import functools
import time
from pathlib import Path

import numpy as np
import pytest

from sylgmres import (
    SolverConfig,
    SylvesterOperator,
    WeightStrategy,
    collinearity_check,
    harmonic_pairs,
    kron_solve,
    wglgmres,
    wglgmres_dr,
)
from sylgmres.arnoldi import arnoldi_run
from sylgmres.core import apply_sylvester, diamond_product, frob, weighted_norm
from sylgmres.dense import hessenberg_lsq, small_eig
from sylgmres.problems import (
    FdmSpec,
    MatrixMarketError,
    fdm_matrix,
    gen_rhs,
    read_matrix_market,
    write_matrix_market,
)
from sylgmres.weighting import STRATEGY_KINDS, make_weight

from conftest import random_block, random_operator

FIXTURES = Path(__file__).parent / "fixtures"

# cached run helpers whose solves the exit-honesty criterion audits
AUDITED = []


def _solve(op, c, cfg):
    """Run the method ``cfg`` selects; returns the entry criterion 9 audits."""
    solver = wglgmres_dr if cfg.k >= 1 else wglgmres
    return op, c, cfg, solver(op, c, cfg)


def _audited(make_runs):
    """Compute a criterion's ``_solve`` entries once and register them for audit.

    The cached value is ``(runs, seconds)``: the wall time of the first
    computation goes with the runs, so a criterion's time bound still covers
    its solves when criterion 9 asked for them first.
    """
    @functools.cache
    def runs():
        t0 = time.perf_counter()
        result = tuple(make_runs())
        return result, time.perf_counter() - t0

    AUDITED.append(runs)
    return runs


def _report(crit, ok, detail=""):
    print(f"[acceptance] criterion {crit}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {crit} failed: {detail}"


def _fdm_desk_problem():
    a = fdm_matrix(FdmSpec(20,
                           lambda x, y: np.exp(x**2 + y),
                           lambda x, y: np.sin(x + 2.0 * y),
                           lambda x, y: np.cos(x * y)))
    b = fdm_matrix(FdmSpec(2,
                           lambda x, y: 2.0 * x * y,
                           lambda x, y: np.exp(x * y),
                           lambda x, y: x * y))
    op = SylvesterOperator(a, b)
    return op, gen_rhs(op.n, op.s, 7)


@_audited
def _oracle_runs():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        s = int(rng.integers(1, 4))
        op = random_operator(rng, n, s)
        c = random_block(rng, n, s)
        yield _solve(op, c, SolverConfig(m=n * s, tol=1e-10))


def test_criterion_1_oracle_equivalence():
    """Full-length unweighted solves match the dense Kronecker oracle."""
    runs, solve_s = _oracle_runs()
    t0 = time.perf_counter()
    worst = 0.0
    for op, c, _, report in runs:
        expect = kron_solve(op, c)
        worst = max(worst, frob(report.x - expect) / frob(expect))
    elapsed = solve_s + time.perf_counter() - t0
    _report(1, worst <= 1e-8 and elapsed <= 5.0,
            f"(max rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_arnoldi_relation():
    """Recurrence columns reproduce the operator action, all strategies."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        op = random_operator(rng, 12, 3)
        c = np.abs(random_block(rng, 12, 3))
        r = random_block(rng, 12, 3)
        kind = STRATEGY_KINDS[seed % len(STRATEGY_KINDS)]
        w = make_weight(WeightStrategy(kind, seed=seed if kind == "random" else None),
                        residual=r, rhs=c)
        dec = arnoldi_run(op, r, w, 7)
        scale = op.frobenius_scale()
        for j in range(dec.h.shape[1]):
            lhs = apply_sylvester(op, dec.basis[j])
            rhs = sum(dec.h[i, j] * dec.basis[i] for i in range(len(dec.basis)))
            worst = max(worst, frob(lhs - rhs) / scale)
    elapsed = time.perf_counter() - t0
    _report(2, worst <= 1e-10 and elapsed <= 5.0,
            f"(max relation residual {worst:.2e}, {elapsed:.2f}s)")


@_audited
def _fixed_weight_runs():
    for seed, kind in [(0, "identity"), (1, "random"), (2, "hadamard")]:
        rng = np.random.default_rng(300 + seed)
        op = random_operator(rng, 18, 2)
        c = np.abs(random_block(rng, 18, 2))
        cfg = SolverConfig(m=6, k=2, tol=1e-9, maxit=25, record_cycles=True,
                           strategy=WeightStrategy(kind, seed=seed if kind == "random" else None))
        yield _solve(op, c, cfg)


@_audited
def _changing_weight_runs():
    for seed in range(3):
        rng = np.random.default_rng(310 + seed)
        op = random_operator(rng, 18, 2)
        c = np.abs(random_block(rng, 18, 2))
        cfg = SolverConfig(m=6, k=2, tol=1e-9, maxit=25, record_cycles=True,
                           strategy=WeightStrategy("mean"))
        yield _solve(op, c, cfg)


def test_criterion_3_weighted_orthonormality():
    """Basis Gram matrices: identity within single-weight cycles, block
    conditions (retained prefix in its construction weight, fresh blocks and
    cross terms in the current weight) across weight-changing restarts."""
    fixed_runs, fixed_s = _fixed_weight_runs()
    changing_runs, changing_s = _changing_weight_runs()
    t0 = time.perf_counter()
    worst_single = 0.0
    worst_mixed = 0.0
    # fixed-weight deflated solves: every cycle is single-weight, the full
    # Gram must be the identity every cycle
    for _, _, _, report in fixed_runs:
        for t in report.traces:
            g = diamond_product(t.dec.basis, t.dec.basis, t.weight)
            worst_single = max(worst_single, np.abs(g - np.eye(len(t.dec.basis))).max())
    # weight-changing deflated solves: block conditions per restart
    for _, _, _, report in changing_runs:
        for i, t in enumerate(report.traces):
            if t.prefix_blocks == 1:
                g = diamond_product(t.dec.basis, t.dec.basis, t.weight)
                worst_single = max(worst_single, np.abs(g - np.eye(len(t.dec.basis))).max())
                continue
            p = t.prefix_blocks
            prefix = t.dec.basis[:p]
            fresh = t.dec.basis[p:]
            g_new = diamond_product(fresh, fresh, t.weight)
            worst_mixed = max(worst_mixed, np.abs(g_new - np.eye(len(fresh))).max())
            g_cross = diamond_product(fresh, prefix, t.weight)
            worst_mixed = max(worst_mixed, np.abs(g_cross).max())
            if i == 1:  # prefix taken from a fresh single-weight cycle
                g_old = diamond_product(prefix, prefix, t.prev_weight)
                worst_mixed = max(worst_mixed, np.abs(g_old - np.eye(p)).max())
    elapsed = fixed_s + changing_s + time.perf_counter() - t0
    _report(3, worst_single <= 1e-10 and worst_mixed <= 1e-10 and elapsed <= 5.0,
            f"(single-weight dev {worst_single:.2e}, mixed dev {worst_mixed:.2e}, {elapsed:.2f}s)")


def test_criterion_4_collinearity():
    """Harmonic residual vectors are collinear with the projected residual."""
    worst = 0.0
    complex_cycles = 0
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        if seed % 2 == 0:
            op = random_operator(rng, 12, 2)
        else:
            rot = np.array([[0.5, -1.2], [1.2, 0.5]])
            a = np.kron(np.eye(6), rot) + 0.05 * rng.standard_normal((12, 12))
            op = SylvesterOperator(a, 0.1 * np.eye(2))
        c = random_block(rng, 12, 2)
        w = make_weight(WeightStrategy("mean"), residual=c)
        beta = weighted_norm(c, w)
        dec = arnoldi_run(op, c, w, 6)
        cvec = np.zeros(dec.h.shape[0])
        cvec[0] = beta
        sol = hessenberg_lsq(dec.h, cvec)
        pairs = harmonic_pairs(dec.h)
        if np.any(pairs.values.imag != 0.0):
            complex_cycles += 1
        worst = max(worst, collinearity_check(dec, pairs, sol.y, beta))
    _report(4, worst <= 1e-8 and complex_cycles >= 3,
            f"(max deviation {worst:.2e}, {complex_cycles}/20 cycles with complex values)")


@_audited
def _restart_runs():
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        op = random_operator(rng, 16, 2)
        c = np.abs(random_block(rng, 16, 2))
        kind = ("mean", "identity", "random")[seed % 3]
        cfg = SolverConfig(m=6, k=2, tol=1e-9, maxit=20, record_cycles=True,
                           strategy=WeightStrategy(kind, seed=seed if kind == "random" else None))
        yield _solve(op, c, cfg)


def test_criterion_5_restart_relation():
    """The operator identity holds on the recycled blocks at every restart."""
    worst = 0.0
    restarts = 0
    for op, _, _, report in _restart_runs()[0]:
        for t in report.traces:
            if t.prefix_blocks == 1:
                continue
            restarts += 1
            p = t.prefix_blocks
            blocks = t.dec.basis[:p]
            new_h = t.dec.h[:p, : p - 1]
            for j in range(p - 1):
                lhs = apply_sylvester(op, blocks[j])
                rhs = sum(new_h[i, j] * blocks[i] for i in range(p))
                worst = max(worst, frob(lhs - rhs) / frob(lhs))
    _report(5, worst <= 1e-9 and restarts >= 20,
            f"(max relation residual {worst:.2e} over {restarts} restarts)")


def test_criterion_6_harmonic_closed_forms():
    """Closed-form harmonic values and the generalized-problem residual."""
    pairs = harmonic_pairs(np.array([[3.0], [4.0]]))
    scalar_ok = abs(pairs.values[0] - (3.0 + 16.0 / 3.0)) <= 1e-14 * (25.0 / 3.0)

    rng = np.random.default_rng(600)
    hm = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
    h = np.vstack([hm, np.zeros((1, 4))])
    got = np.sort_complex(harmonic_pairs(h).values)
    expect = np.sort_complex(small_eig(hm).values)
    zero_sub_ok = np.max(np.abs(got - expect)) <= 1e-10 * np.abs(expect).max()

    worst = 0.0
    for seed in range(10):
        r = np.random.default_rng(610 + seed)
        hh = np.triu(r.standard_normal((6, 5)), -1)
        pp = harmonic_pairs(hh)
        normal = hh.T @ hh
        hm5 = hh[:5, :]
        for i in range(len(pp)):
            th, g = pp.values[i], pp.vectors[:, i]
            worst = max(worst, np.linalg.norm(normal @ g - th * (hm5.T @ g))
                        / np.linalg.norm(normal))
    _report(6, scalar_ok and zero_sub_ok and worst <= 1e-8,
            f"(scalar {scalar_ok}, zero-subdiagonal {zero_sub_ok}, residual {worst:.2e})")


@_audited
def _monotone_runs():
    for seed in range(6):
        rng = np.random.default_rng(700 + seed)
        op = random_operator(rng, 15, 2)
        c = np.abs(random_block(rng, 15, 2))
        k = (0, 2)[seed % 2]
        cfg = SolverConfig(m=6, k=k, tol=1e-9, maxit=15, record_cycles=True,
                           strategy=WeightStrategy(("mean", "identity")[seed % 2]))
        yield _solve(op, c, cfg)


def test_criterion_7_monotone_projected_residual():
    """The optimal projected residual never increases within a cycle."""
    violations = 0
    cycles_checked = 0
    for _, _, _, report in _monotone_runs()[0]:
        for t in report.traces:
            cycles_checked += 1
            h, cv = t.dec.h, t.c
            slack = 1e-12 * np.linalg.norm(cv)
            prev = None
            for j in range(1, h.shape[1] + 1):
                y = np.linalg.lstsq(h[:, :j], cv, rcond=None)[0]
                rho = np.linalg.norm(cv - h[:, :j] @ y)
                if prev is not None and rho > prev + slack:
                    violations += 1
                prev = rho
    _report(7, violations == 0 and cycles_checked >= 20,
            f"({violations} violations over {cycles_checked} cycles)")


DESK_VARIANTS = [("glgmres", 0, "identity"),
                 ("glgmres-d", 5, "identity"),
                 ("wglgmres-d", 5, "mean")]


@_audited
def _desk_runs():
    op, c = _fdm_desk_problem()
    for _, k, kind in DESK_VARIANTS:
        cfg = SolverConfig(m=10, k=k, tol=1e-6, maxit=2500,
                           strategy=WeightStrategy(kind))
        yield _solve(op, c, cfg)


def _optimal_krylov_steps(op, c, tol):
    """Fewest Krylov steps after which some iterate meets ``tol`` in Frobenius norm.

    Runs one unrestarted identity-weight cycle of 64 Arnoldi steps and
    minimizes the projected residual over each column prefix of its recurrence
    matrix: the optimum over the j-dimensional global Krylov space of C.  Any
    method that starts from zero and has taken j Arnoldi steps, restarted,
    deflated or weighted, has its iterate in that space.  Returns 65 when the
    optimum is still above ``tol`` after 64 steps.
    """
    cfg = SolverConfig(m=64, tol=tol, maxit=1, record_cycles=True)
    t = wglgmres(op, c, cfg).traces[0]
    h, cv = t.dec.h, t.c
    for j in range(1, h.shape[1] + 1):
        y = np.linalg.lstsq(h[:, :j], cv, rcond=None)[0]
        if np.linalg.norm(cv - h[:, :j] @ y) <= tol * frob(c):
            return j
    return 65


def test_criterion_8_directional_convergence():
    """Weighted deflation versus the plain and deflated baselines on the
    finite-difference desk problem.

    Cost is counted in Krylov steps (operator applications inside the Arnoldi
    process), not in cycles: a plain GMRES(10) cycle takes 10 steps, while a
    deflated cycle after the first takes only m - k = 5 because the recycled
    blocks fill the rest of its space.  Here the unrestarted optimum first
    meets tol after 58 steps, so no (10, 5) method can converge in fewer than
    11 cycles while GMRES(10) needs 9; a cycle count would call a saving a
    loss.  Both deflated runs must actually have deflated at every restart, so
    a solver whose deflated restarts all degrade to plain ones fails here, and
    no run may claim convergence in fewer steps than the unrestarted optimum.
    """
    runs, solve_s = _desk_runs()
    t0 = time.perf_counter()
    names = [name for name, _, _ in DESK_VARIANTS]
    reports = {name: report for name, (_, _, _, report) in zip(names, runs)}
    op, c, cfg, _ = runs[0]
    optimum = _optimal_krylov_steps(op, c, cfg.tol)
    elapsed = solve_s + time.perf_counter() - t0
    cycles = {name: r.cycles for name, r in reports.items()}
    steps = {name: r.history[-1].cumulative_iter for name, r in reports.items()}
    skipped = {name: sum("deflation skipped" in e for e in r.breakdowns)
               for name, r in reports.items()}
    all_converged = all(r.converged for r in reports.values())
    attainable = all(not reports[name].converged or steps[name] >= optimum
                     for name in names)
    deflated = skipped["glgmres-d"] == 0 and skipped["wglgmres-d"] == 0
    directional = (steps["wglgmres-d"] <= steps["glgmres"]
                   and steps["wglgmres-d"] <= steps["glgmres-d"])
    per_variant = ", ".join(
        f"{name}={cycles[name]}/{steps[name]}/{skipped[name]}" for name in names)
    _report(8, all_converged and attainable and deflated and directional
            and elapsed <= 30.0,
            f"(cycles/Krylov steps/deflation skips: {per_variant}; "
            f"unrestarted optimum meets tol at {optimum} steps; "
            f"all converged={all_converged}; {elapsed:.1f}s)")


def test_criterion_9_exit_honesty():
    """Every converged report of criteria 1, 3, 5, 7 and 8 has a small
    recomputed residual."""
    audited = 0
    worst_ratio = 0.0
    for runs in AUDITED:
        for op, c, cfg, report in runs()[0]:
            if not report.converged:
                continue
            audited += 1
            true_rel = frob(c - apply_sylvester(op, report.x)) / frob(c)
            worst_ratio = max(worst_ratio, true_rel / cfg.tol)
    _report(9, audited >= 20 and worst_ratio <= 1.0,
            f"(worst residual/tol ratio {worst_ratio:.2f} over {audited} converged runs)")


def test_criterion_10_matrix_market_round_trip(tmp_path):
    """Read-write-read identity on the fixtures; malformed files rejected."""
    good = ["single.mtx", "sym2.mtx", "identity4.mtx", "sym3.mtx", "general6.mtx"]
    round_trip_ok = True
    for name in good:
        first = read_matrix_market(FIXTURES / name)
        out = tmp_path / name
        write_matrix_market(first, out)
        second = read_matrix_market(out)
        round_trip_ok &= (first.shape == second.shape
                          and np.array_equal(first.indptr, second.indptr)
                          and np.array_equal(first.indices, second.indices)
                          and np.array_equal(first.data, second.data))
    bad = ["bad_header.mtx", "bad_field.mtx", "bad_index.mtx", "bad_value.mtx",
           "truncated.mtx"]
    rejected = 0
    for name in bad:
        try:
            read_matrix_market(FIXTURES / name)
        except MatrixMarketError as exc:
            if exc.lineno >= 1 and f":{exc.lineno}:" in str(exc):
                rejected += 1
    _report(10, round_trip_ok and rejected == len(bad),
            f"(5 round trips ok={round_trip_ok}, {rejected}/{len(bad)} malformed rejected)")
