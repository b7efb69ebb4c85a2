"""Restarted weighted global GMRES, harmonic extraction and deflation."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

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
from sylgmres.cli import COEFFICIENT_PRESETS
import sylgmres.solver as solver_mod
from sylgmres.core import (Weight, apply_sylvester, as_block, diamond_product, frob,
                           weighted_inner, weighted_norm)
from sylgmres.dense import EigenPairSet, hessenberg_lsq
from sylgmres.problems import FdmSpec, fdm_matrix, gen_rhs
from sylgmres.solver import restart_subspace, select_and_realify
from sylgmres.weighting import STRATEGY_KINDS, make_weight

from conftest import random_block, random_hessenberg, random_operator


def run_one_cycle(rng, n=10, s=2, m=6, weight=None):
    """One fresh weighted GMRES cycle on a random problem."""
    op = random_operator(rng, n, s)
    c = random_block(rng, n, s)
    w = weight if weight is not None else Weight.identity()
    beta = weighted_norm(c, w)
    dec = arnoldi_run(op, c, w, m)
    cvec = np.zeros(dec.h.shape[0])
    cvec[0] = beta
    sol = hessenberg_lsq(dec.h, cvec)
    return op, c, w, beta, dec, sol


class TestWglgmres:
    def test_identity_operator_one_step(self, rng):
        op = SylvesterOperator(np.eye(5), np.zeros((2, 2)))
        c = random_block(rng, 5, 2)
        for strat in ("identity", "mean", "max-col"):
            rep = wglgmres(op, c, SolverConfig(m=4, strategy=WeightStrategy(strat)))
            assert rep.converged
            assert rep.cycles == 1
            assert rep.history[0].cumulative_iter == 1
            assert np.allclose(rep.x, c, atol=1e-12)

    def test_hand_solved_diagonal_problem(self):
        op = SylvesterOperator(np.diag([1.0, 2.0]), np.array([[3.0]]))
        c = np.array([[1.0], [1.0]])
        rep = wglgmres(op, c, SolverConfig(m=2, tol=1e-12))
        assert np.allclose(rep.x, [[0.25], [0.2]], rtol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_full_length_matches_kron_solve(self, seed):
        rng = np.random.default_rng(seed)
        n, s = 6, 2
        op = random_operator(rng, n, s)
        c = random_block(rng, n, s)
        rep = wglgmres(op, c, SolverConfig(m=n * s, tol=1e-10))
        expect = kron_solve(op, c)
        assert rep.converged
        assert frob(rep.x - expect) <= 1e-8 * frob(expect)

    def test_requires_k_zero(self, rng):
        op = random_operator(rng, 5, 2)
        with pytest.raises(ValueError):
            wglgmres(op, random_block(rng, 5, 2), SolverConfig(m=4, k=1))

    def test_maxit_reached_reports_unconverged(self, rng):
        op = random_operator(rng, 12, 2)
        c = random_block(rng, 12, 2)
        rep = wglgmres(op, c, SolverConfig(m=2, maxit=2, tol=1e-14))
        assert not rep.converged
        assert rep.cycles == 2
        assert rep.true_resnorm > 0.0

    def test_estimate_matches_weighted_residual_single_weight(self, rng):
        # projected residual norm equals the weighted norm of the formed
        # residual whenever one weight rules the whole cycle
        op = random_operator(rng, 10, 2)
        c = random_block(rng, 10, 2)
        cfg = SolverConfig(m=4, strategy=WeightStrategy("random", seed=5),
                           tol=1e-10, maxit=6, record_cycles=True)
        rep = wglgmres(op, c, cfg)
        for t, rec in zip(rep.traces, rep.history):
            r_formed = c - apply_sylvester(op, rep_x_after(rep, t))
            norm_c_d = weighted_norm(c, t.weight)
            est_abs = rec.est_resnorm * norm_c_d
            assert abs(est_abs - weighted_norm(r_formed, t.weight)) <= 1e-8 * norm_c_d

    def test_petrov_galerkin_single_weight(self, rng):
        op, c, w, beta, dec, sol = run_one_cycle(rng, m=5)
        x = sum(sol.y[i] * dec.basis[i] for i in range(dec.h.shape[1]))
        r = c - apply_sylvester(op, x)
        scale = weighted_norm(c, w)
        for blk in dec.basis[: dec.h.shape[1]]:
            assert abs(weighted_inner(r, apply_sylvester(op, blk), w)) <= 1e-8 * scale

    def test_zero_rhs_zero_guess(self):
        op = SylvesterOperator(np.eye(3), np.eye(2))
        rep = wglgmres(op, np.zeros((3, 2)), SolverConfig(m=2))
        assert rep.converged and rep.cycles == 0 and rep.true_resnorm == 0.0

    def test_nonzero_initial_guess(self, rng):
        op = random_operator(rng, 8, 2)
        c = random_block(rng, 8, 2)
        x0 = random_block(rng, 8, 2)
        rep = wglgmres(op, c, SolverConfig(m=16, tol=1e-10), x0=x0)
        assert rep.converged
        expect = kron_solve(op, c)
        assert frob(rep.x - expect) <= 1e-8 * frob(expect)

    @pytest.mark.parametrize("k", [0, 2])
    def test_initial_guess_left_unmodified(self, k, rng):
        # the iterate is updated in place, on a copy of x0
        op = random_operator(rng, 10, 2)
        c = random_block(rng, 10, 2)
        for x0 in (random_block(rng, 10, 2), np.ascontiguousarray(random_block(rng, 10, 2))):
            keep = x0.copy()
            rep = wglgmres_dr(op, c, SolverConfig(m=4, k=k, tol=1e-15, maxit=3), x0=x0)
            assert rep.cycles == 3
            assert np.array_equal(x0, keep)
            assert not np.shares_memory(rep.x, x0)

    def test_exact_initial_guess_converges_immediately(self, rng):
        op = random_operator(rng, 6, 2)
        x = random_block(rng, 6, 2)
        c = apply_sylvester(op, x)
        rep = wglgmres(op, c, SolverConfig(m=4), x0=x)
        assert rep.converged and rep.cycles == 0
        assert np.array_equal(rep.x, np.asfortranarray(x))


def rep_x_after(rep, trace):
    """Reconstruct the iterate at the end of a traced cycle."""
    x = np.zeros(rep.x.shape)
    for t in rep.traces:
        ncols = t.dec.h.shape[1]
        x = x + sum(t.y[i] * t.dec.basis[i] for i in range(ncols))
        if t.cycle == trace.cycle:
            break
    return x


class TestHarmonicPairs:
    def test_scalar_closed_form(self):
        pairs = harmonic_pairs(np.array([[3.0], [4.0]]))
        assert len(pairs) == 1
        assert pairs.values[0] == pytest.approx(3.0 + 16.0 / 3.0, rel=1e-14)

    def test_zero_subdiagonal_reduces_to_eigenvalues(self):
        h = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        pairs = harmonic_pairs(h)
        assert np.allclose(np.sort(pairs.values.real), [1.0, 2.0], atol=1e-10)
        assert np.allclose(pairs.values.imag, 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_generalized_residual_bound(self, seed):
        rng = np.random.default_rng(seed)
        h = np.triu(rng.standard_normal((6, 5)), -1)
        h[np.arange(1, 6), np.arange(5)] += np.sign(h[np.arange(1, 6), np.arange(5)]) + 0.5
        pairs = harmonic_pairs(h)
        hm = h[:5, :]
        normal = h.T @ h
        scale = np.linalg.norm(normal)
        for i in range(len(pairs)):
            th, g = pairs.values[i], pairs.vectors[:, i]
            assert np.linalg.norm(normal @ g - th * (hm.T @ g)) <= 1e-8 * scale

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("e", [-600, 540])
    def test_pairs_scale_with_h_where_h_sub_squared_leaves_the_range(self, e, rng):
        # h_sub^2 underflows to 0 (overflows) at 2^-600 (2^540)
        h = np.triu(rng.standard_normal((7, 6)), -1)
        h[np.arange(1, 7), np.arange(6)] = np.abs(h[np.arange(1, 7), np.arange(6)]) + 0.5
        unit = harmonic_pairs(h)
        pairs = harmonic_pairs(2.0**e * h)
        assert np.allclose(pairs.values / 2.0**e, unit.values, rtol=1e-12, atol=0.0)
        # unit vectors, each up to a sign
        cos = np.abs(np.sum(pairs.vectors.conj() * unit.vectors, axis=0))
        assert np.allclose(cos, 1.0, rtol=1e-10)

    def test_singular_square_part_falls_back(self):
        # h with singular H_m exercises the generalized path
        h = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        pairs = harmonic_pairs(h)
        hm = h[:2, :]
        normal = h.T @ h
        for i in range(len(pairs)):
            th, g = pairs.values[i], pairs.vectors[:, i]
            res = np.linalg.norm(normal @ g - th * (hm.T @ g))
            assert res <= 1e-8 * np.linalg.norm(normal)

    def test_pencil_without_finite_values_rejected(self):
        # H_m = 0: every harmonic value is infinite
        with pytest.raises(np.linalg.LinAlgError, match="harmonic pencil has no finite eigenvalues"):
            harmonic_pairs(np.array([[0.0], [1.0]]))

    def test_sorted_ascending_with_adjacent_conjugates(self, rng):
        for seed in range(6):
            r = np.random.default_rng(seed)
            h = np.triu(r.standard_normal((8, 7)), -1)
            pairs = harmonic_pairs(h)
            mags = np.abs(pairs.values)
            assert np.all(np.diff(mags) >= -1e-12 * mags.max())
            i = 0
            while i < len(pairs):
                if pairs.values[i].imag != 0.0:
                    assert pairs.values[i + 1] == np.conj(pairs.values[i])
                    i += 2
                else:
                    i += 1


class TestSelectAndRealify:
    def _real_pairs(self, values, vectors):
        return EigenPairSet(np.asarray(values, complex), np.asarray(vectors, complex))

    def test_all_real_unchanged(self, rng):
        vecs = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        pairs = self._real_pairs([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vecs)
        g_real = select_and_realify(pairs, 2)
        assert g_real.shape[1] == 2
        assert np.allclose(g_real, vecs[:, :2].real)

    def test_split_conjugate_pair_grows(self, rng):
        g = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        g /= np.linalg.norm(g)
        values = [1.0, 2.0 + 1.0j, 2.0 - 1.0j, 4.0]
        vectors = np.column_stack([rng.standard_normal(6), g, np.conj(g),
                                   rng.standard_normal(6)])
        pairs = self._real_pairs(values, vectors)
        g_real = select_and_realify(pairs, 2)  # cut splits the pair, k grows to 3
        assert g_real.shape[1] == 3
        assert np.allclose(g_real[:, 1], g.real)
        assert np.allclose(g_real[:, 2], g.imag)

    def test_leading_conjugate_pair_deduplicated(self, rng):
        g = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        values = [1.0 + 0.5j, 1.0 - 0.5j, 3.0]
        vectors = np.column_stack([g, np.conj(g), rng.standard_normal(5)])
        g_real = select_and_realify(self._real_pairs(values, vectors), 2)
        assert g_real.shape == (5, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_selected_vectors_in_real_span(self, seed):
        rng = np.random.default_rng(seed)
        h = np.triu(rng.standard_normal((8, 7)), -1)
        pairs = harmonic_pairs(h)
        g_real = select_and_realify(pairs, 3)
        for i in range(g_real.shape[1]):  # the selected pairs lead ``pairs``
            g = pairs.vectors[:, i]
            coeff = np.linalg.lstsq(g_real.astype(complex), g, rcond=None)[0]
            assert np.linalg.norm(g_real @ coeff - g) <= 1e-10

    def test_cap_at_m_minus_two(self, rng):
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        values = [1.0, 2.0 + 1j, 2.0 - 1j, 5.0]
        vectors = np.column_stack([rng.standard_normal(4), g, np.conj(g),
                                   rng.standard_normal(4)])
        # m = 4 so cap is 2; the cut at k=2 splits the pair and must shrink
        g_real = select_and_realify(self._real_pairs(values, vectors), 2)
        assert g_real.shape[1] == 1

    def test_refusals(self, rng):
        g = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        with pytest.raises(np.linalg.LinAlgError, match="no harmonic pairs available"):
            # m = 2 leaves no room below the cap m - 2
            select_and_realify(self._real_pairs([1.0, 2.0], np.eye(2)), 1)
        with pytest.raises(np.linalg.LinAlgError, match="conjugate partner of a complex"):
            values = [1.0 + 1j, 2.0, 3.0, 4.0, 5.0, 6.0]
            vectors = np.column_stack([g] + [rng.standard_normal(6)] * 5)
            select_and_realify(self._real_pairs(values, vectors), 2)
        with pytest.raises(np.linalg.LinAlgError, match="left nothing to deflate"):
            # m = 3, so the cap is 1 and the cut pair cannot grow
            values = [1.0 + 1j, 1.0 - 1j, 3.0]
            vectors = np.column_stack([g[:3], np.conj(g[:3]), rng.standard_normal(3)])
            select_and_realify(self._real_pairs(values, vectors), 1)


class TestRestartSubspace:
    def test_new_basis_weight_orthonormal(self, rng):
        w = Weight.diagonal(rng.uniform(0.4, 2.5, 10), 2)
        op, c, w, beta, dec, sol = run_one_cycle(rng, m=6, weight=w)
        g_real = select_and_realify(harmonic_pairs(dec.h), 2)
        blocks, new_h, q = restart_subspace(dec, g_real, sol.residual)
        gram = diamond_product(blocks, blocks, w)
        assert np.abs(gram - np.eye(len(blocks))).max() <= 1e-12

    def test_single_real_vector_is_normalized_combination(self, rng):
        op, c, w, beta, dec, sol = run_one_cycle(rng, m=6)
        pairs = harmonic_pairs(dec.h)
        # find a real harmonic vector to make the single-column case exact
        real_idx = [i for i in range(len(pairs)) if pairs.values[i].imag == 0.0]
        if not real_idx:
            pytest.skip("no real harmonic value in this draw")
        g = pairs.vectors[:, real_idx[0]].real
        g_real = select_and_realify(
            EigenPairSet(pairs.values[real_idx[:1]], pairs.vectors[:, real_idx[:1]]), 1)
        blocks, new_h, q = restart_subspace(dec, g_real, sol.residual)
        gn = g / np.linalg.norm(g)
        expect = sum(gn[i] * dec.basis[i] for i in range(6))
        assert min(frob(blocks[0] - expect), frob(blocks[0] + expect)) <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_restart_relation(self, seed):
        rng = np.random.default_rng(seed)
        op, c, w, beta, dec, sol = run_one_cycle(rng, n=12, s=2, m=6)
        g_real = select_and_realify(harmonic_pairs(dec.h), 2)
        blocks, new_h, q = restart_subspace(dec, g_real, sol.residual)
        scale = max(frob(apply_sylvester(op, b)) for b in blocks)
        for j in range(new_h.shape[1]):
            lhs = apply_sylvester(op, blocks[j])
            rhs = sum(new_h[i, j] * blocks[i] for i in range(len(blocks)))
            assert frob(lhs - rhs) <= 1e-9 * scale

    def test_residual_in_span_rejected(self, rng):
        op, c, w, beta, dec, sol = run_one_cycle(rng, m=6)
        g_real = select_and_realify(harmonic_pairs(dec.h), 2)
        blocks, new_h, q = restart_subspace(dec, g_real, sol.residual)
        inside = q[:, 0] * 0.3 - 0.7 * q[:, 1]  # lies in the recycled span
        with pytest.raises(np.linalg.LinAlgError):
            restart_subspace(dec, g_real, inside)

    def test_residual_length_checked(self, rng):
        op, c, w, beta, dec, sol = run_one_cycle(rng, m=6)
        g_real = select_and_realify(harmonic_pairs(dec.h), 2)
        with pytest.raises(ValueError, match=r"residual vector must have length 7, got \(6,\)"):
            restart_subspace(dec, g_real, sol.residual[:6])

    def test_rank_zero_harmonic_columns_rejected(self, rng):
        # reduced_qr keeps no column of an all-zero set: its q is m x 0
        op, c, w, beta, dec, sol = run_one_cycle(rng, m=6)
        g_real = select_and_realify(harmonic_pairs(dec.h), 2)
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            restart_subspace(dec, np.zeros_like(g_real), sol.residual)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_residual_scale_does_not_matter(self, rng, scale):
        op, c, w, beta, dec, sol = run_one_cycle(rng, m=6)
        g_real = select_and_realify(harmonic_pairs(dec.h), 2)
        unit = restart_subspace(dec, g_real, sol.residual)
        scaled = restart_subspace(dec, g_real, scale * sol.residual)
        for a, b in zip(unit, scaled):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_out_may_overlap_the_basis(self, rng):
        # numpy's matmul reads a copy of an operand that overlaps its output,
        # so blocks written over the basis's own workspace are those of out=None
        op, c, w, beta, dec, sol = run_one_cycle(rng, n=12, s=2, m=6)
        g_real = select_and_realify(harmonic_pairs(dec.h), 2)
        expect = restart_subspace(dec, g_real, sol.residual)
        workspace = dec.basis.base
        assert workspace.shape == (7, 12, 2) and workspace.flags.writeable
        got = restart_subspace(dec, g_real, sol.residual, workspace)
        assert np.shares_memory(got[0], dec.basis)
        for a, b in zip(got, expect):
            assert np.array_equal(a, b)

    def test_workspace_validated(self, rng):
        op, c, w, beta, dec, sol = run_one_cycle(rng, n=12, s=2, m=6)
        g_real = select_and_realify(harmonic_pairs(dec.h), 2)
        blocks, _, _ = restart_subspace(dec, g_real, sol.residual)
        shape = (7, 12, 2)
        placed, _, _ = restart_subspace(dec, g_real, sol.residual, np.empty(shape))
        assert np.array_equal(placed, blocks)
        # the product into an F-ordered workspace would land in a reshaped
        # copy of it and leave the workspace unwritten
        for out in (np.empty(shape, order="F"), np.empty(shape, dtype=np.float32),
                    np.empty((len(blocks) - 1, 12, 2)), np.empty((7, 2, 12))):
            with pytest.raises(ValueError, match="workspace"):
                restart_subspace(dec, g_real, sol.residual, out)


class TestCollinearity:
    @pytest.mark.parametrize("seed", range(10))
    def test_small_instances(self, seed):
        rng = np.random.default_rng(seed)
        op, c, w, beta, dec, sol = run_one_cycle(rng, n=9, s=2, m=5)
        pairs = harmonic_pairs(dec.h)
        assert collinearity_check(dec, pairs, sol.y, beta) <= 1e-8

    def test_complex_values_appear_and_pass(self):
        # rotation-heavy operator forces complex harmonic values
        rng = np.random.default_rng(3)
        rot = np.array([[0.6, -1.1], [1.1, 0.6]])
        a = np.kron(np.eye(4), rot) + 0.05 * rng.standard_normal((8, 8))
        op = SylvesterOperator(a, 0.1 * np.eye(2))
        c = random_block(rng, 8, 2)
        w = Weight.identity()
        beta = weighted_norm(c, w)
        dec = arnoldi_run(op, c, w, 5)
        cvec = np.zeros(dec.h.shape[0])
        cvec[0] = beta
        sol = hessenberg_lsq(dec.h, cvec)
        pairs = harmonic_pairs(dec.h)
        assert np.any(pairs.values.imag != 0.0)
        assert collinearity_check(dec, pairs, sol.y, beta) <= 1e-8

    def test_zero_residual_is_zero_deviation(self, rng):
        op, c, w, beta, dec, sol = run_one_cycle(rng, m=5)
        pairs = harmonic_pairs(dec.h)
        assert collinearity_check(dec, pairs, np.zeros_like(sol.y), 0.0) == 0.0


class TestWglgmresDr:
    def test_k_zero_delegates_bit_for_bit(self, rng):
        op = random_operator(rng, 14, 2)
        c = random_block(rng, 14, 2)
        cfg = SolverConfig(m=4, k=0, strategy=WeightStrategy("mean"), maxit=8)
        a = wglgmres(op, c, cfg)
        b = wglgmres_dr(op, c, cfg)
        assert np.array_equal(a.x, b.x)
        assert [r.est_resnorm for r in a.history] == [r.est_resnorm for r in b.history]

    def test_first_cycle_convergence_skips_restart_machinery(self, rng):
        op = SylvesterOperator(np.eye(6), np.zeros((2, 2)))
        c = random_block(rng, 6, 2)
        cfg = SolverConfig(m=4, k=2, strategy=WeightStrategy("mean"))
        a = wglgmres_dr(op, c, cfg)
        b = wglgmres(op, c, SolverConfig(m=4, k=0, strategy=WeightStrategy("mean")))
        assert a.cycles == b.cycles == 1
        assert np.array_equal(a.x, b.x)

    def test_plain_restart_is_a_one_block_prefix(self):
        # on this right-hand side the norm of an F-ordered copy of the
        # residual differs from beta in the last bit, so the start block
        # must be built from the solver's own residual and beta
        op = SylvesterOperator(fdm_matrix(FdmSpec(8, *COEFFICIENT_PRESETS["varcoef1"])),
                               fdm_matrix(FdmSpec(2, *COEFFICIENT_PRESETS["varcoef2"])))
        c = gen_rhs(op.n, op.s, 2)
        rep = wglgmres_dr(op, c, SolverConfig(m=10, tol=1e-10, record_cycles=True))
        r = as_block(c, op.shape) - apply_sylvester(op, np.zeros(op.shape))
        beta = weighted_norm(r, Weight.identity())
        first = rep.traces[0]
        assert first.prefix_blocks == 1
        assert first.beta == first.c[0] == beta
        assert np.array_equal(first.dec.basis[0], r / beta)

    @pytest.mark.parametrize("strat", STRATEGY_KINDS)
    def test_weight_rebuilt_only_when_it_follows_the_residual(self, strat, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return make_weight(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "make_weight", counting)
        op = SylvesterOperator(fdm_matrix(FdmSpec(8, *COEFFICIENT_PRESETS["varcoef1"])),
                               fdm_matrix(FdmSpec(2, *COEFFICIENT_PRESETS["varcoef2"])))
        ws = WeightStrategy(strat, seed=3 if strat == "random" else None)
        rep = wglgmres_dr(op, gen_rhs(op.n, op.s, 7), SolverConfig(m=4, k=2, strategy=ws))
        assert rep.converged and rep.cycles >= 3
        assert len(calls) == (rep.cycles if ws.follows_residual else 1)

    @pytest.mark.parametrize("strat", ["identity", "mean"])
    def test_one_weighted_norm_per_residual(self, strat, monkeypatch):
        calls = []

        def counting(y, weight):
            calls.append(1)
            return weighted_norm(y, weight)

        monkeypatch.setattr(solver_mod, "weighted_norm", counting)
        op = SylvesterOperator(fdm_matrix(FdmSpec(8, *COEFFICIENT_PRESETS["varcoef1"])),
                               fdm_matrix(FdmSpec(2, *COEFFICIENT_PRESETS["varcoef2"])))
        c = gen_rhs(op.n, op.s, 7)
        cfg = SolverConfig(m=4, k=2, strategy=WeightStrategy(strat), record_cycles=True)
        rep = wglgmres_dr(op, c, cfg)
        assert rep.converged and rep.cycles >= 3
        # ||C||_D and the first beta once per weight, then one norm per residual
        weights = rep.cycles if cfg.strategy.follows_residual else 1
        assert len(calls) == 2 * weights + rep.cycles
        # each trace keeps the beta its own cycle started from
        x = np.zeros(op.shape)
        for t in rep.traces:
            expect = weighted_norm(c - apply_sylvester(op, x), t.weight)
            assert t.beta == pytest.approx(expect, rel=1e-10)
            x = rep_x_after(rep, t)

    @pytest.mark.parametrize("k", [0, 5])
    @pytest.mark.parametrize("strat", ["identity", "mean"])
    def test_trace_prev_weight_is_the_previous_traces_weight(self, strat, k):
        op = SylvesterOperator(fdm_matrix(FdmSpec(8, *COEFFICIENT_PRESETS["varcoef1"])),
                               fdm_matrix(FdmSpec(2, *COEFFICIENT_PRESETS["varcoef2"])))
        cfg = SolverConfig(m=10, k=k, tol=1e-10, strategy=WeightStrategy(strat),
                           record_cycles=True)
        rep = wglgmres_dr(op, gen_rhs(op.n, op.s, 7), cfg)
        assert rep.converged and rep.cycles >= 3
        assert rep.traces[0].prev_weight is None
        for before, t in zip(rep.traces, rep.traces[1:]):
            assert t.prev_weight is before.weight
            # a residual-following weight is a new object every cycle
            assert (t.weight is before.weight) == (strat == "identity")

    @pytest.mark.parametrize("strat", ["identity", "mean"])
    def test_failed_eigensolve_restarts_plainly(self, strat, monkeypatch):
        def no_convergence(mat):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(solver_mod, "small_eig", no_convergence)
        op = SylvesterOperator(fdm_matrix(FdmSpec(8, *COEFFICIENT_PRESETS["varcoef1"])),
                               fdm_matrix(FdmSpec(2, *COEFFICIENT_PRESETS["varcoef2"])))
        c = gen_rhs(op.n, op.s, 7)
        cfg = SolverConfig(m=10, k=5, tol=1e-10, strategy=WeightStrategy(strat),
                           record_cycles=True)
        rep = wglgmres_dr(op, c, cfg)
        assert rep.converged and rep.cycles >= 3
        assert rep.breakdowns == [f"cycle {i}: deflation skipped (Eigenvalues did not converge)"
                                  for i in range(1, rep.cycles)]
        assert all(t.prefix_blocks == 1 for t in rep.traces)
        # every restart is the plain one, so the solve is the k = 0 solve
        plain = wglgmres_dr(op, c, replace(cfg, k=0))
        assert np.array_equal(rep.x, plain.x)
        assert ([replace(h, wall_s=0.0) for h in rep.history]
                == [replace(h, wall_s=0.0) for h in plain.history])

    @pytest.mark.parametrize("k", [0, 4])
    @pytest.mark.parametrize("strat", [
        "identity",
        "mean",
        # make_weight floors the weights of C's zero column at FLOOR_REL, so
        # the weighted minimization neglects the residual there and the
        # Frobenius stop test never passes (0.48 for k = 0, 0.23 for k = 4
        # after 300 cycles); ROADMAP item 3 owns the fix
        pytest.param("hadamard", marks=pytest.mark.xfail(
            strict=True, reason="hadamard weight is blind to a zero column of C")),
    ])
    def test_zero_column_of_c_converges(self, strat, k):
        rng = np.random.default_rng(2)
        op = random_operator(rng, 8, 2)
        c = random_block(rng, 8, 2)
        c[:, 1] = 0.0
        cfg = SolverConfig(m=6, k=k, tol=1e-8, maxit=300, strategy=WeightStrategy(strat))
        rep = wglgmres_dr(op, c, cfg)
        assert rep.converged
        assert frob(rep.x - kron_solve(op, c)) <= 1e-6 * frob(rep.x)

    @pytest.mark.parametrize("strat", STRATEGY_KINDS)
    def test_non_finite_residual_raises(self, strat):
        # the first row of A @ x0 sums inf and -inf, so the residual holds NaN
        a = np.eye(6)
        a[0, 1], a[0, 2] = 1e308, -1e308
        op = SylvesterOperator(a, np.zeros((2, 2)))
        ws = WeightStrategy(strat, seed=3 if strat == "random" else None)
        with pytest.raises(ValueError, match="finite"):
            wglgmres_dr(op, np.ones((6, 2)), SolverConfig(m=4, strategy=ws),
                        x0=np.full((6, 2), 10.0))

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            SolverConfig(m=4, tol=float("nan"))

    def test_fdm_desk_problem_matches_oracle(self):
        a = fdm_matrix(FdmSpec(20,
                               lambda x, y: np.exp(x**2 + y),
                               lambda x, y: np.sin(x + 2 * y),
                               lambda x, y: np.cos(x * y)))
        b = fdm_matrix(FdmSpec(2,
                               lambda x, y: 2 * x * y,
                               lambda x, y: np.exp(x * y),
                               lambda x, y: x * y))
        op = SylvesterOperator(a, b)
        c = gen_rhs(op.n, op.s, 7)
        cfg = SolverConfig(m=10, k=5, strategy=WeightStrategy("mean"))
        rep = wglgmres_dr(op, c, cfg)
        assert rep.converged
        expect = kron_solve(op, c)
        assert frob(rep.x - expect) <= 1e-5 * frob(expect)

    @pytest.mark.parametrize("strat, k", [("identity", 0), ("mean", 5)])
    def test_scaled_operator_same_cycles_and_steps(self, strat, k):
        # the breakdown floor is relative to the recurrence coefficients, so
        # scaling A and B changes neither cycles nor steps; an absolute floor
        # of 1e-14 would stop every step at 1e-17 and some at 1e-16
        a = fdm_matrix(FdmSpec(8, *COEFFICIENT_PRESETS["varcoef1"]))
        b = fdm_matrix(FdmSpec(2, *COEFFICIENT_PRESETS["varcoef2"]))
        c = gen_rhs(a.shape[0], b.shape[0], 7)
        cfg = SolverConfig(m=10, k=k, strategy=WeightStrategy(strat))
        runs = [wglgmres_dr(SylvesterOperator(alpha * a, alpha * b), c, cfg)
                for alpha in (1.0, 1e-15, 1e-16, 1e-17)]
        for rep in runs:
            assert rep.converged and rep.breakdowns == []
            assert rep.cycles == runs[0].cycles
            assert rep.history[-1].cumulative_iter == runs[0].history[-1].cumulative_iter

    @pytest.mark.parametrize("strat", ["identity", "mean", "random"])
    def test_deflated_solves_converge_and_report_honestly(self, strat, rng):
        op = random_operator(rng, 16, 2)
        c = random_block(rng, 16, 2)
        cfg = SolverConfig(m=6, k=2, tol=1e-8,
                           strategy=WeightStrategy(strat, seed=3 if strat == "random" else None))
        rep = wglgmres_dr(op, c, cfg)
        assert rep.converged
        assert rep.true_resnorm == pytest.approx(
            frob(c - apply_sylvester(op, rep.x)) / frob(c), rel=1e-12)
        assert rep.true_resnorm <= 10 * cfg.tol

    def test_monotone_projected_residual_within_cycles(self, rng):
        op = random_operator(rng, 14, 2)
        c = random_block(rng, 14, 2)
        cfg = SolverConfig(m=6, k=2, strategy=WeightStrategy("mean"),
                           maxit=10, record_cycles=True, tol=1e-10)
        rep = wglgmres_dr(op, c, cfg)
        for t in rep.traces:
            h, cv = t.dec.h, t.c
            prev = None
            for j in range(1, h.shape[1] + 1):
                y = np.linalg.lstsq(h[:, :j], cv, rcond=None)[0]
                rho = np.linalg.norm(cv - h[:, :j] @ y)
                if prev is not None:
                    assert rho <= prev + 1e-12 * np.linalg.norm(cv)
                prev = rho

    def test_identity_weight_deflation_self_consistent(self, rng):
        # with a constant weight every cycle stays single-weight: full basis
        # stays orthonormal, so estimates agree with formed residuals
        op = random_operator(rng, 14, 2)
        c = random_block(rng, 14, 2)
        cfg = SolverConfig(m=6, k=2, maxit=12, record_cycles=True, tol=1e-9)
        rep = wglgmres_dr(op, c, cfg)
        assert rep.converged
        for t in rep.traces:
            gram = diamond_product(t.dec.basis, t.dec.basis, t.weight)
            assert np.abs(gram - np.eye(len(t.dec.basis))).max() <= 1e-10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(m=4, k=3)  # k > m - 2
        with pytest.raises(ValueError):
            SolverConfig(m=0)
        with pytest.raises(ValueError):
            SolverConfig(m=4, tol=0.0)

    @pytest.mark.parametrize("k", [0, 3])
    def test_zero_operator_takes_the_degenerate_least_squares_path(self, k, rng):
        # op(V_1) = 0: the first step breaks down with h = 0, so the projected
        # problem has no full-rank column and every cycle leaves x at 0
        op = SylvesterOperator(sp.csr_array((6, 6)), sp.csr_array((2, 2)))
        rep = wglgmres_dr(op, random_block(rng, 6, 2), SolverConfig(m=5, k=k, maxit=2))
        assert rep.breakdowns == [event for cycle in (1, 2) for event in (
            f"cycle {cycle}: invariant subspace at step 1",
            f"cycle {cycle}: degenerate projected least-squares")]
        assert not rep.x.any()
        assert [r.est_resnorm for r in rep.history] == [1.0, 1.0]
        assert rep.cycles == 2 and not rep.converged

    def test_unconverged_report_is_honest(self, rng):
        # a deliberately starved run must come back flagged, with the true
        # residual matching a recomputation from the returned iterate
        op = random_operator(rng, 20, 2, shift=0.3)
        c = random_block(rng, 20, 2)
        cfg = SolverConfig(m=5, k=2, maxit=3, tol=1e-12,
                           strategy=WeightStrategy("min-col"))
        rep = wglgmres_dr(op, c, cfg)
        assert not rep.converged
        assert rep.cycles == 3
        recomputed = frob(c - apply_sylvester(op, rep.x)) / frob(c)
        assert rep.true_resnorm == pytest.approx(recomputed, rel=1e-12)

    def test_orthogonality_holds_at_larger_subspace(self, rng):
        # single reorthogonalization sweep keeps the Gram tight even for a
        # longer recurrence
        op = random_operator(rng, 40, 3)
        c = random_block(rng, 40, 3)
        cfg = SolverConfig(m=25, k=8, tol=1e-10, maxit=6, record_cycles=True)
        rep = wglgmres_dr(op, c, cfg)
        for t in rep.traces:
            gram = diamond_product(t.dec.basis, t.dec.basis, t.weight)
            assert np.abs(gram - np.eye(len(t.dec.basis))).max() <= 1e-10


class TestExtremeScales:
    """The solve of s * C runs at a power-of-two scale of C near 1, and norms
    rescale a block whose squares under- or overflow, so the solve of s * C,
    or of the operator scaled by t, takes the counts of the unscaled solve and
    its iterate meets tol."""

    @staticmethod
    def _check(op, c, scale, cfg):
        unit = wglgmres_dr(op, c, cfg)
        rep = wglgmres_dr(op, scale * c, cfg)
        assert rep.converged and unit.converged
        assert rep.cycles == unit.cycles and rep.breakdowns == unit.breakdowns
        assert [r.weight_tag for r in rep.history] == [r.weight_tag for r in unit.history]
        assert frob(c - apply_sylvester(op, rep.x / scale)) / frob(c) <= cfg.tol

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160, 1e200])
    @pytest.mark.parametrize("strat", ["identity", "mean"])
    def test_diagonal_operator(self, scale, strat):
        op = SylvesterOperator(np.diag(np.arange(1.0, 7.0)), np.zeros((2, 2)))
        cfg = SolverConfig(m=4, strategy=WeightStrategy(strat))
        self._check(op, np.ones((6, 2)), scale, cfg)

    @staticmethod
    def _fdm_operator():
        return SylvesterOperator(fdm_matrix(FdmSpec(8, 1.0, 2.0, 0.5)),
                                 fdm_matrix(FdmSpec(2, 0.3, 0.1, 0.0)))

    # the solve runs at 2^-e C, so its norms stay in range: under the mean
    # weight, whose norms grow like |C|^1.5, every scale from 1e-300 to 1e-205
    # and from 1e205 to 1e300 used to fail, and at 5e306 five strategies did
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-300, 1e-250, 1e-215, 1e-210, 1e-207, 1e-205,
                                       1e-200, 1e-120, 1e105, 1e200, 1e204, 1e205, 1e206,
                                       1e300, 5e306])
    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("strat", STRATEGY_KINDS)
    def test_fdm_operator_every_strategy(self, scale, k, strat):
        ws = WeightStrategy(strat, seed=1 if strat == "random" else None)
        cfg = SolverConfig(m=8, k=k, strategy=ws)
        self._check(self._fdm_operator(), gen_rhs(64, 4, 3, density=0.5), scale, cfg)

    @pytest.mark.parametrize("j", [-350, -1, 1, 350])
    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("strat", STRATEGY_KINDS)
    def test_even_power_of_two_scaling_is_exact(self, j, k, strat):
        # both scalings are exact and the exponent moves by 2j, so the solve
        # of 4^j C is the solve of C bit for bit
        op, c = self._fdm_operator(), gen_rhs(64, 4, 3, density=0.5)
        ws = WeightStrategy(strat, seed=1 if strat == "random" else None)
        cfg = SolverConfig(m=8, k=k, strategy=ws)
        unit = wglgmres_dr(op, c, cfg)
        rep = wglgmres_dr(op, np.ldexp(c, 2 * j), cfg)
        assert unit.converged and rep.converged
        assert np.array_equal(rep.x, np.ldexp(unit.x, 2 * j))
        assert ([replace(h, wall_s=0.0) for h in rep.history]
                == [replace(h, wall_s=0.0) for h in unit.history])
        assert rep.breakdowns == unit.breakdowns

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("strat", ["identity", "mean"])
    def test_rhs_norm_overflow_raises(self, strat):
        # ||C||_F overflows although every entry is finite; the solve used to
        # start its first cycle and raise there on ||C||_D
        c = gen_rhs(64, 4, 3, density=0.5)
        c[0, 0], c[1, 1] = 1.7e308, -1.7e308
        with pytest.raises(ValueError, match=r"^\|\|C\|\|_F is inf"):
            wglgmres_dr(self._fdm_operator(), c, SolverConfig(m=8, strategy=WeightStrategy(strat)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_initial_residual_raises(self):
        # A x0 overflows, so the weighted norm of the first residual is not a
        # finite float
        op = self._fdm_operator()
        with pytest.raises(ValueError, match="finite positive"):
            wglgmres_dr(op, gen_rhs(64, 4, 3, density=0.5), SolverConfig(m=8),
                        x0=np.full(op.shape, 1e307))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("strat", ["mean", "identity", "max-col"])
    def test_overflowing_weighted_residual_norm_raises(self, strat):
        # from x0 = 1e290 the first residual and its Frobenius norm are
        # finite, but the mean weight grows with |R|, so ||R||_D overflows and
        # the check after the weight is built names it; under the identity and
        # the normalized max-col weight the first cycle runs
        op = SylvesterOperator(fdm_matrix(FdmSpec(10, *COEFFICIENT_PRESETS["varcoef1"])),
                               fdm_matrix(FdmSpec(2, *COEFFICIENT_PRESETS["varcoef2"])))
        c, x0 = gen_rhs(op.n, op.s, 7), np.full(op.shape, 1e290)
        cfg = SolverConfig(m=6, k=2, maxit=1, strategy=WeightStrategy(strat))
        if strat != "mean":
            assert wglgmres_dr(op, c, cfg, x0=x0).cycles == 1
            return
        with pytest.raises(ValueError, match=r"^cycle 1: the weighted residual norm is inf, "
                                             r"not a finite positive float$"):
            wglgmres_dr(op, c, cfg, x0=x0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("e", [-600, -500, 500, 540])
    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("strat", STRATEGY_KINDS)
    def test_scaled_operator(self, e, k, strat):
        # the Arnoldi norms, the projected least squares and the harmonic
        # matrix rescale: their sums of squares used to under- or overflow
        # here, breaking down at step 1 of every cycle or raising
        op, c = self._fdm_operator(), gen_rhs(64, 4, 3, density=0.5)
        ws = WeightStrategy(strat, seed=1 if strat == "random" else None)
        cfg = SolverConfig(m=8, k=k, strategy=ws)
        t = 2.0**e
        scaled = SylvesterOperator(t * op.a, t * op.b)
        unit = wglgmres_dr(op, c, cfg)
        rep = wglgmres_dr(scaled, c, cfg)
        assert rep.converged and unit.converged
        assert rep.cycles == unit.cycles and rep.breakdowns == unit.breakdowns == []
        if k == 0 and abs(e) <= 500:  # a power-of-two scaling of every step
            assert np.array_equal(rep.x * t, unit.x)
        assert frob(c - apply_sylvester(scaled, rep.x)) / frob(c) <= cfg.tol


class TestBasisWorkspaces:
    """A plain-restart solve builds every basis in one workspace and a deflated
    one in two that alternate; a recorded solve also keeps a copy of each
    cycle's basis."""

    @pytest.mark.parametrize("strat", ["identity", "mean"])
    def test_plain_solve_holds_less_than_two_bases(self, strat):
        a = fdm_matrix(FdmSpec(60, *COEFFICIENT_PRESETS["varcoef1"]))
        b = fdm_matrix(FdmSpec(2, *COEFFICIENT_PRESETS["varcoef2"]))
        op = SylvesterOperator(a, b)
        c = gen_rhs(op.n, op.s, 7)
        cfg = SolverConfig(m=20, maxit=3, strategy=WeightStrategy(strat))
        wglgmres(op, c, cfg)  # numpy's and scipy's first-call allocations stay out
        tracemalloc.start()
        try:
            rep = wglgmres(op, c, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.cycles == 3
        # two (m+1)-block bases would be 42 blocks; one with its temporaries is
        # about 29 (identity) or 31 (mean)
        assert peak < 2 * (cfg.m + 1) * c.nbytes

    @pytest.mark.parametrize("k", [0, 5])
    @pytest.mark.parametrize("strat", STRATEGY_KINDS)
    def test_recording_does_not_change_the_solve(self, strat, k):
        a = fdm_matrix(FdmSpec(8, *COEFFICIENT_PRESETS["varcoef1"]))
        b = fdm_matrix(FdmSpec(2, *COEFFICIENT_PRESETS["varcoef2"]))
        op = SylvesterOperator(a, b)
        c = gen_rhs(op.n, op.s, 7)
        ws = WeightStrategy(strat, seed=3 if strat == "random" else None)
        plain, recorded = (
            wglgmres_dr(op, c, SolverConfig(m=10, k=k, tol=1e-10, strategy=ws,
                                            record_cycles=record))
            for record in (False, True))
        assert plain.converged and recorded.converged
        assert np.array_equal(plain.x, recorded.x)
        assert plain.cycles == recorded.cycles >= 3
        assert ([replace(h, wall_s=0.0) for h in plain.history]
                == [replace(h, wall_s=0.0) for h in recorded.history])
        if k:
            assert sum(t.prefix_blocks > 1 for t in recorded.traces) >= 2
        bases = [t.dec.basis for t in recorded.traces]
        for i, basis in enumerate(bases):
            assert not any(np.shares_memory(basis, other) for other in bases[:i])
        # every recorded basis still holds its own Arnoldi relation
        scale = op.frobenius_scale()
        for t in recorded.traces:
            h, basis = t.dec.h, t.dec.basis
            for j in range(h.shape[1]):
                lhs = apply_sylvester(op, basis[j])
                rhs = np.tensordot(h[:, j], basis, axes=1)
                assert frob(lhs - rhs) <= 1e-10 * scale


@pytest.mark.parametrize("call, message", [
    (lambda rng: SolverConfig(m=4, k=-1), "deflation count k must be >= 0"),
    (lambda rng: SolverConfig(m=4, maxit=0), "maxit must be >= 1"),
    (lambda rng: wglgmres_dr(random_operator(rng, 6, 2), np.zeros((6, 2)), SolverConfig(m=4),
                             x0=np.ones((6, 2))),
     "zero right-hand side with a nonzero initial residual"),
    (lambda rng: wglgmres_dr(random_operator(rng, 6, 2), np.ones((6, 3)), SolverConfig(m=4)),
     r"right-hand side shape \(6, 3\) does not match operator \(6, 2\)"),
    (lambda rng: wglgmres_dr(random_operator(rng, 6, 2), np.ones((6, 2)), SolverConfig(m=4),
                             x0=np.ones((2, 6))),
     r"initial guess shape \(2, 6\) does not match operator \(6, 2\)"),
    (lambda rng: harmonic_pairs(np.eye(3)), r"expected an \(m\+1\) x m matrix, got \(3, 3\)"),
    (lambda rng: select_and_realify(harmonic_pairs(random_hessenberg(rng, 5)), 0),
     "selection count k must be >= 1"),
])
def test_input_refusals(call, message, rng):
    with pytest.raises(ValueError, match=message):
        call(rng)
