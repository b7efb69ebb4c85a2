"""Weighted global Arnoldi process."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import sylgmres.arnoldi as arnoldi_mod
from sylgmres import SylvesterOperator, WeightStrategy
from sylgmres.arnoldi import (
    _fused_step,
    _norm,
    _prefix_projector,
    arnoldi_extend,
    arnoldi_run,
)
from sylgmres.core import (Weight, apply_sylvester, diamond_product, frob, weighted_inner,
                           weighted_norm)
from sylgmres.dense import hessenberg_lsq
from sylgmres.solver import harmonic_pairs, restart_subspace, select_and_realify
from sylgmres.weighting import make_weight

from conftest import random_block, random_operator


def relation_residual(op, dec, first=0):
    """Largest per-column residual of op(V_j) = sum_i h[i,j] V_i, over the
    columns from ``first`` on."""
    worst = 0.0
    for j in range(first, dec.h.shape[1]):
        lhs = apply_sylvester(op, dec.basis[j])
        rhs = sum(dec.h[i, j] * dec.basis[i] for i in range(len(dec.basis)))
        worst = max(worst, frob(lhs - rhs) / frob(dec.basis[j]))
    return worst


def extend_copy(blocks, h_prefix, op, weight, to_m):
    """arnoldi_extend from ``blocks`` copied to the front of a new
    (to_m + 1)-block workspace, as the solver places its prefix."""
    basis = np.empty((to_m + 1,) + blocks.shape[1:])
    basis[:len(blocks)] = blocks
    return arnoldi_extend(basis, h_prefix, op, weight)


def make_weight_for(kind, rng, r, c):
    seed = 11 if kind == "random" else None
    return make_weight(WeightStrategy(kind, seed=seed), residual=r, rhs=c)


class TestArnoldiRun:
    def test_scalar_operator_breaks_down(self, rng):
        op = SylvesterOperator(2.0 * np.eye(3), np.zeros((2, 2)))
        v = random_block(rng, 3, 2)
        dec = arnoldi_run(op, v, Weight.identity(), 1)
        assert dec.breakdown == 1
        assert len(dec.basis) == 1
        assert dec.h.shape == (2, 1)
        assert dec.h[0, 0] == pytest.approx(2.0, rel=1e-14)
        assert abs(dec.h[1, 0]) <= 1e-13

    def test_h_matches_diamond_recomputation(self, rng):
        op = random_operator(rng, 8, 2)
        v = random_block(rng, 8, 2)
        dec = arnoldi_run(op, v, Weight.identity(), 5)
        applied = np.stack([apply_sylvester(op, b) for b in dec.basis[:5]])
        expect = diamond_product(dec.basis, applied, Weight.identity())
        assert np.allclose(dec.h, expect, atol=1e-10)

    @pytest.mark.parametrize("kind", ["identity", "max-col", "min-col", "mean",
                                      "hadamard", "random"])
    def test_gram_identity_all_strategies(self, kind, rng):
        op = random_operator(rng, 10, 3)
        c = rng.random((10, 3))
        r = random_block(rng, 10, 3)
        w = make_weight_for(kind, rng, r, c)
        dec = arnoldi_run(op, r, w, 6)
        g = diamond_product(dec.basis, dec.basis, w)
        assert np.abs(g - np.eye(len(dec.basis))).max() <= 1e-10

    @pytest.mark.parametrize("kind", ["identity", "max-col", "min-col", "mean",
                                      "hadamard", "random"])
    def test_arnoldi_relation_all_strategies(self, kind, rng):
        op = random_operator(rng, 9, 2)
        c = rng.random((9, 2))
        r = random_block(rng, 9, 2)
        w = make_weight_for(kind, rng, r, c)
        dec = arnoldi_run(op, r, w, 6)
        assert relation_residual(op, dec) <= 1e-10 * op.frobenius_scale()

    def test_subdiagonal_nonnegative_and_structural_zeros(self, rng):
        op = random_operator(rng, 8, 2)
        dec = arnoldi_run(op, random_block(rng, 8, 2), Weight.identity(), 6)
        m = dec.h.shape[1]
        assert np.all(dec.h[np.arange(1, m + 1), np.arange(m)] >= 0.0)
        for j in range(m):
            assert np.all(dec.h[j + 2:, j] == 0.0)

    def test_block_norms_unit_in_construction_weight(self, rng):
        op = random_operator(rng, 8, 2)
        d = rng.uniform(0.2, 3.0, 8)
        w = Weight.diagonal(d, 2)
        dec = arnoldi_run(op, random_block(rng, 8, 2), w, 5)
        for b in dec.basis:
            assert weighted_norm(b, w) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_zero_start(self, rng):
        op = random_operator(rng, 4, 2)
        with pytest.raises(ValueError):
            arnoldi_run(op, np.zeros((4, 2)), Weight.identity(), 3)

    def test_basis_blocks_readonly(self, rng):
        op = random_operator(rng, 5, 2)
        dec = arnoldi_run(op, random_block(rng, 5, 2), Weight.identity(), 3)
        with pytest.raises(ValueError):
            dec.basis[0][0, 0] = 7.0


class TestArnoldiExtend:
    def test_degenerate_continuation_equals_run(self, rng):
        op = random_operator(rng, 7, 2)
        v = random_block(rng, 7, 2)
        w = Weight.identity()
        full = arnoldi_run(op, v, w, 5)
        basis = np.empty((6,) + v.shape)
        np.divide(v, weighted_norm(v, w), out=basis[0])
        ext = arnoldi_extend(basis, np.zeros((1, 0)), op, w)
        assert np.array_equal(full.h, ext.h)
        for a, b in zip(full.basis, ext.basis):
            assert np.array_equal(a, b)

    def _one_restart(self, rng, weight_new=None):
        """Run one cycle, build the deflated prefix, extend under weight_new."""
        op = random_operator(rng, 12, 2)
        v = random_block(rng, 12, 2)
        w_old = Weight.diagonal(rng.uniform(0.5, 2.0, 12), 2)
        m, k = 6, 2
        dec = arnoldi_run(op, v, w_old, m)
        c = np.zeros(m + 1)
        c[0] = weighted_norm(v, w_old)
        sol = hessenberg_lsq(dec.h, c)
        g_real = select_and_realify(harmonic_pairs(dec.h), k)
        blocks, new_h, q = restart_subspace(dec, g_real, sol.residual)
        w_new = weight_new if weight_new is not None else w_old
        ext = extend_copy(blocks, new_h, op, w_new, m)
        return op, ext, w_old, w_new, len(blocks)

    def test_same_weight_restart_full_gram(self, rng):
        op, ext, w_old, w_new, _ = self._one_restart(rng)
        g = diamond_product(ext.basis, ext.basis, w_new)
        assert np.abs(g - np.eye(len(ext.basis))).max() <= 1e-10

    def test_mixed_weight_block_conditions(self, rng):
        w_new = Weight.diagonal(rng.uniform(0.1, 5.0, 12), 2)
        op, ext, w_old, w_new, p = self._one_restart(rng, weight_new=w_new)
        prefix = ext.basis[:p]
        fresh = ext.basis[p:]
        # prefix orthonormal in the weight of its construction
        g_old = diamond_product(prefix, prefix, w_old)
        assert np.abs(g_old - np.eye(p)).max() <= 1e-10
        # fresh blocks orthonormal in the new weight
        g_new = diamond_product(fresh, fresh, w_new)
        assert np.abs(g_new - np.eye(len(fresh))).max() <= 1e-10
        # cross-orthogonality in the new weight
        g_cross = diamond_product(fresh, prefix, w_new)
        assert np.abs(g_cross).max() <= 1e-10

    def test_mixed_weight_relation_still_holds(self, rng):
        w_new = Weight.diagonal(rng.uniform(0.1, 5.0, 12), 2)
        op, ext, _, _, _ = self._one_restart(rng, weight_new=w_new)
        assert relation_residual(op, ext) <= 1e-10 * op.frobenius_scale()

    def test_prefix_shape_validation(self, rng):
        op = random_operator(rng, 5, 2)
        dec = arnoldi_run(op, random_block(rng, 5, 2), Weight.identity(), 3)
        basis = np.empty((6, 5, 2))
        basis[:4] = dec.basis
        with pytest.raises(ValueError, match="shape"):
            arnoldi_extend(basis, dec.h[:, :2], op, Weight.identity())
        # four prefix blocks fill a four-block workspace: no step is left
        for h_prefix, ws in ((dec.h, basis[:4]), (np.zeros((0, 0)), basis)):
            with pytest.raises(ValueError, match="cannot extend"):
                arnoldi_extend(ws, h_prefix, op, Weight.identity())


class TestWorkspaces:
    """The basis built in a caller's workspace, as the solver builds it."""

    N, S, M, K = 12, 2, 6, 2

    def test_run_in_workspace_equals_fresh_and_view_is_readonly(self, rng):
        op = random_operator(rng, self.N, self.S)
        v = random_block(rng, self.N, self.S)
        w = Weight.diagonal(rng.uniform(0.5, 2.0, self.N), self.S)
        out, spare = np.empty((2, self.M + 1, self.N, self.S))
        fresh = arnoldi_run(op, v, w, self.M)
        np.divide(v, weighted_norm(v, w), out=out[0])
        placed = arnoldi_extend(out, np.zeros((1, 0)), op, w, spare)
        assert np.array_equal(fresh.h, placed.h)
        assert np.array_equal(fresh.basis, placed.basis)
        assert np.shares_memory(placed.basis, out)
        for dec in (fresh, placed):
            assert not dec.basis.flags.writeable
            with pytest.raises(ValueError):
                dec.basis[0][0, 0] = 7.0
        # only the returned view is read-only, not the workspace behind it
        assert out.flags.writeable
        out[0, 0, 0] = 7.0

    def test_prefix_written_in_place_extends_like_a_copied_one(self, rng):
        op = random_operator(rng, self.N, self.S)
        v = random_block(rng, self.N, self.S)
        w_old = Weight.diagonal(rng.uniform(0.5, 2.0, self.N), self.S)
        w_new = Weight(rng.uniform(0.1, 5.0, (self.N, self.S)))
        first, second = np.empty((2, self.M + 1, self.N, self.S))
        c = np.zeros(self.M + 1)
        c[0] = weighted_norm(v, w_old)
        np.divide(v, c[0], out=first[0])
        dec = arnoldi_extend(first, np.zeros((1, 0)), op, w_old, second)
        sol = hessenberg_lsq(dec.h, c)
        g_real = select_and_realify(harmonic_pairs(dec.h), self.K)
        blocks, new_h, _ = restart_subspace(dec, g_real, sol.residual)
        placed, placed_h, _ = restart_subspace(dec, g_real, sol.residual, second)
        assert np.array_equal(blocks, placed) and np.array_equal(new_h, placed_h)
        assert np.shares_memory(placed, second) and not np.shares_memory(blocks, second)
        fresh = extend_copy(blocks, new_h, op, w_new, self.M)
        # the old basis in ``first`` is dead now and takes the weighted prefix
        ext = arnoldi_extend(second, placed_h, op, w_new, first)
        assert np.array_equal(fresh.h, ext.h)
        assert np.array_equal(fresh.basis, ext.basis)
        assert np.shares_memory(ext.basis, second)
        assert not fresh.basis.flags.writeable and not ext.basis.flags.writeable

    def test_spare_validated(self, rng):
        op = random_operator(rng, self.N, self.S)
        blocks, new_h = _deflated_prefix(rng, op, self.M, self.K)
        w = Weight(rng.uniform(0.1, 5.0, (self.N, self.S)))
        fresh = extend_copy(blocks, new_h, op, w, self.M)
        p = len(blocks)
        out, spare = np.empty((2, self.M + 1, self.N, self.S))
        out[:p] = blocks
        # ``spare is out`` would write the weighted prefix over the prefix
        for bad in (out, out[p:], spare.astype(np.float32), np.asfortranarray(spare),
                    spare[:p - 1], np.empty((self.M + 1, self.N, self.S + 1))):
            with pytest.raises(ValueError, match="spare"):
                arnoldi_extend(out, new_h, op, w, bad)
        ext = arnoldi_extend(out, new_h, op, w, spare[:p])
        assert np.array_equal(ext.h, fresh.h) and np.array_equal(ext.basis, fresh.basis)

    def test_workspace_shape_checked(self, rng):
        op = random_operator(rng, self.N, self.S)
        v = random_block(rng, self.N, self.S)
        for out in (np.empty((self.M + 1, self.N * self.S)),
                    np.empty((self.M + 1, self.N, self.S), order="F"),
                    np.empty((2 * self.M + 2, self.N, self.S))[::2],
                    np.empty((self.M + 1, self.N, self.S), dtype=np.float32)):
            out[0] = v.reshape(out[0].shape)
            with pytest.raises(ValueError, match="workspace"):
                arnoldi_extend(out, np.zeros((1, 0)), op, Weight.identity())


def test_norm_of_nan_is_nan():
    v = np.ones(6)
    v[2] = np.nan
    assert math.isnan(_norm(v, None)) and math.isnan(_norm(v, np.full(6, 2.0)))


class TestHappyBreakdown:
    def test_projected_solve_is_exact(self, rng):
        # operator with a 2-dimensional invariant Krylov block subspace
        n, s = 6, 2
        op = SylvesterOperator(np.diag([3.0] * 3 + [5.0] * 3), np.zeros((s, s)))
        v = np.zeros((n, s))
        v[0, 0] = 1.0
        v[3, 1] = 1.0
        w = Weight.identity()
        c_rhs = apply_sylvester(op, v)  # exact solution is v
        beta = weighted_norm(c_rhs, w)
        dec = arnoldi_run(op, c_rhs, w, 5)
        assert dec.breakdown is not None
        cols = dec.h.shape[1]
        cvec = np.zeros(dec.h.shape[0])
        cvec[0] = beta
        sol = hessenberg_lsq(dec.h, cvec)
        x = sum(sol.y[i] * dec.basis[i] for i in range(cols))
        resid = frob(c_rhs - apply_sylvester(op, x))
        assert resid <= 1e-8 * frob(c_rhs)


def mgs_orthogonalize(w, basis, weight, prefix_solve=None, prefix_count=0):
    """Reference: the per-block modified Gram-Schmidt loop that classical
    Gram-Schmidt with reorthogonalization replaced, with the same prefix
    projection and its 1/sqrt(2) reorthogonalization rule.  Where the rule
    skips the second sweep, the sweep that the step under test always runs
    changes the result by rounding only."""
    before = weighted_norm(w, weight)
    coeffs = np.zeros(len(basis))

    def sweep(w):
        start = 0
        if prefix_solve is not None:
            b = np.array([weighted_inner(w, basis[i], weight) for i in range(prefix_count)])
            z = prefix_solve(b)
            for i in range(prefix_count):
                w = w - z[i] * basis[i]
            coeffs[:prefix_count] += z
            start = prefix_count
        for i in range(start, len(basis)):
            t = weighted_inner(w, basis[i], weight)
            coeffs[i] += t
            w = w - t * basis[i]
        return w

    w = sweep(w)
    after = weighted_norm(w, weight)
    if prefix_solve is not None or after < math.sqrt(0.5) * before:
        w = sweep(w)
        after = weighted_norm(w, weight)
    return coeffs, w, after


# Fixed before comparing: the two loops sum the same terms in a different
# order, so they may differ by a few hundred rounding units of ||w||.
_ORTH_RTOL = 1000 * np.finfo(np.float64).eps


def _weights_for(rng, n, s):
    # "diagonal" is row-constant, "elementwise" a general positive n x s array
    return {
        "identity": Weight.identity(),
        "diagonal": Weight.diagonal(rng.uniform(0.2, 5.0, n), s),
        "elementwise": Weight(rng.uniform(0.2, 5.0, (n, s))),
    }


def _deflated_prefix(rng, op, m, k):
    """Blocks and recurrence of a deflated restart after one cycle under a
    diagonal weight, as the solver builds them."""
    w_old = Weight.diagonal(rng.uniform(0.5, 2.0, op.n), op.s)
    v = random_block(rng, op.n, op.s)
    dec = arnoldi_run(op, v, w_old, m)
    c = np.zeros(m + 1)
    c[0] = weighted_norm(v, w_old)
    sol = hessenberg_lsq(dec.h, c)
    g_real = select_and_realify(harmonic_pairs(dec.h), k)
    blocks, new_h, _ = restart_subspace(dec, g_real, sol.residual)
    return blocks, new_h


def mgs_extend(blocks, h_prefix, op, weight, to_m):
    """Reference: the Arnoldi loop on ``mgs_orthogonalize``, with a prefix
    projection solved by ``np.linalg.solve`` on the prefix Gram matrix."""
    basis = [np.array(b) for b in blocks]
    from_j = len(basis)
    h = np.zeros((to_m + 1, to_m))
    h[:from_j, : from_j - 1] = h_prefix
    gram = diamond_product(np.stack(basis), np.stack(basis), weight)
    prefix_solve, prefix_count = None, 0
    if np.abs(gram - np.eye(from_j)).max() > 1e-12:
        prefix_solve, prefix_count = (lambda b: np.linalg.solve(gram, b)), from_j
    for col in range(from_j - 1, to_m):
        w = apply_sylvester(op, basis[col])
        coeffs, w, nrm = mgs_orthogonalize(w, basis, weight, prefix_solve, prefix_count)
        h[: col + 1, col] = coeffs
        h[col + 1, col] = nrm
        basis.append(w / nrm)
    return np.array(basis), h


class TestExtendReference:
    """arnoldi_extend against the per-block MGS loop, on the fresh path (one
    start block) and on the mixed-weight-prefix path, under the identity, a
    row-constant and a general weight."""

    @staticmethod
    def _seeds(rng, op):
        v = random_block(rng, op.n, op.s)
        fresh = ((v / frob(v))[None], np.zeros((1, 0)))
        mixed = _deflated_prefix(rng, op, 6, 2)
        return {"fresh": fresh, "mixed": mixed}

    @pytest.mark.parametrize("path", ["fresh", "mixed"])
    @pytest.mark.parametrize("kind", ["identity", "diagonal", "elementwise"])
    def test_matches_mgs_loop(self, path, kind, rng):
        op = random_operator(rng, 12, 3)
        blocks, h_prefix = self._seeds(rng, op)[path]
        weight = _weights_for(rng, 12, 3)[kind]
        if path == "mixed":
            # the new weight leaves the prefix non-orthonormal: the oblique path runs
            assert _prefix_projector(blocks, weight) is not None
        ext = extend_copy(blocks, h_prefix, op, weight, 6)
        basis_ref, h_ref = mgs_extend(blocks, h_prefix, op, weight, 6)
        assert ext.breakdown is None
        assert np.abs(ext.h - h_ref).max() <= _ORTH_RTOL * np.abs(h_ref).max()
        assert frob(np.asarray(ext.basis) - basis_ref) <= _ORTH_RTOL * frob(basis_ref)

    @pytest.mark.parametrize("path", ["fresh", "mixed"])
    @pytest.mark.parametrize("kind", ["identity", "diagonal", "elementwise"])
    def test_prefix_returned_bitwise(self, path, kind, rng):
        op = random_operator(rng, 12, 3)
        blocks, h_prefix = self._seeds(rng, op)[path]
        p = len(blocks)
        kept_h = h_prefix.copy()
        weight = _weights_for(rng, 12, 3)[kind]
        ext = extend_copy(blocks, h_prefix, op, weight, 6)
        # the prefix blocks at the front of the workspace and h_prefix are not modified
        assert np.array_equal(ext.basis[:p], blocks)
        assert np.array_equal(h_prefix, kept_h) and np.array_equal(ext.h[:p, :p - 1], kept_h)


class TestClusteredSpectrum:
    """Extensions on which one Gram-Schmidt sweep per block is far from enough.

    A = Q diag(lambda) Q^T with n = 60 has its eigenvalues in four clusters
    of width 2e-7 (B = 0), so after four steps each new block is nearly
    inside the span of the earlier ones and a single sweep leaves errors of
    about 1e-10.  The delayed second sweep of every block must remove them:
    without the sweep of the last block the Gram deviation is about 1e-10,
    and without the op(V_<) a term in the new column the relation residual
    is about 1e-10 * ||A||; both sit near 1e-15 here.  The correction of
    column j - 1 by nu_1 * a is not pinned: nu_1 is small exactly when a is
    large, so the term it adds is at rounding level and no test of this size
    separates it.
    """

    N, S, M, TOL = 60, 2, 8, 1e-13

    @classmethod
    def _operator(cls, rng):
        q, _ = np.linalg.qr(rng.standard_normal((cls.N, cls.N)))
        lam = np.repeat([1.0, 2.0, 3.0, 5.0], cls.N // 4) + 1e-7 * rng.uniform(-1, 1, cls.N)
        return SylvesterOperator((q * lam) @ q.T, np.zeros((cls.S, cls.S))), np.abs(lam).max()

    @classmethod
    def _weights(cls, rng):
        return {"identity": Weight.identity(),
                "diagonal": Weight.diagonal(10.0 ** rng.uniform(-12, 0, cls.N), cls.S)}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["identity", "diagonal"])
    def test_fresh_path(self, seed, kind):
        rng = np.random.default_rng(seed)
        op, anorm = self._operator(rng)
        weight = self._weights(rng)[kind]
        dec = arnoldi_run(op, random_block(rng, self.N, self.S), weight, self.M)
        assert dec.breakdown is None
        g = diamond_product(dec.basis, dec.basis, weight)
        assert np.abs(g - np.eye(self.M + 1)).max() <= self.TOL
        assert relation_residual(op, dec) <= self.TOL * anorm

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["identity", "diagonal"])
    def test_mixed_prefix_path(self, seed, kind):
        # A prefix from a three-step cycle leaves the clusters to the
        # extension, so its last steps are as hard as on the fresh path.  The
        # restart relation of the prefix columns holds only to about 1e-7 on
        # this spectrum (restart_subspace), so the relation is checked on the
        # columns the extension writes.
        rng = np.random.default_rng(seed)
        op, anorm = self._operator(rng)
        blocks, new_h = _deflated_prefix(rng, op, 3, 1)
        weight = self._weights(rng)[kind]
        p = len(blocks)
        assert _prefix_projector(np.asarray(blocks), weight) is not None
        ext = extend_copy(blocks, new_h, op, weight, self.M)
        assert ext.breakdown is None
        fresh = ext.basis[p:]
        g_new = diamond_product(fresh, fresh, weight)
        assert np.abs(g_new - np.eye(len(fresh))).max() <= self.TOL
        assert np.abs(diamond_product(fresh, ext.basis[:p], weight)).max() <= self.TOL
        assert relation_residual(op, ext, first=p - 1) <= self.TOL * anorm


def test_pending_block_inside_span_breaks_down():
    # The pending block V_2 passed the breakdown test on its one-sweep norm
    # (1e-12 against a floor of 1e-14) but is V_0 itself: its second sweep
    # leaves nothing, so the corrected subdiagonal of column 1 falls below the
    # floor and the step stops before dividing by it, with the basis untouched.
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((16, 3)))
    flat = np.vstack([q[:, 0], q[:, 1], q[:, 0], q[:, 2]])
    h = np.zeros((4, 3))
    h[:2, 0] = 2.0, 1.0
    h[:3, 1] = 0.5, 0.5, 1e-12
    kept_flat, kept_h = flat.copy(), h.copy()
    assert _fused_step(flat, 2, h, None, np.empty((2, 16)), None, 1e-14) is None
    assert np.array_equal(flat, kept_flat)
    assert h[2, 1] <= 1e-14
    # the second sweep's coefficients a = (1, 0) moved into column 1
    assert np.abs(h[:2, 1] - (kept_h[:2, 1] + [1e-12, 0.0])).max() <= 1e-27


class TestSecondSweepBreakdownExits:
    """The two exits of arnoldi_extend after a block's second sweep: the
    fused step finds the pending block dependent, or the lone sweep of the
    last block does.  The patched run cuts a full run short, so its basis and
    recurrence are that run's leading blocks and columns, bitwise."""

    M = 6

    @staticmethod
    def _check_cut(op, weight, full, dec, cut):
        assert dec.breakdown == cut
        assert len(dec.basis) == cut
        assert dec.h.shape == (len(dec.basis) + 1, len(dec.basis))
        assert np.array_equal(dec.h, full.h[:cut + 1, :cut])
        assert np.array_equal(dec.basis, full.basis[:cut])
        # the last column needs the dropped block; the columns before it hold
        assert (relation_residual(op, replace(dec, h=dec.h[:, :cut - 1]))
                <= 1e-12 * op.frobenius_scale())
        g = diamond_product(dec.basis, dec.basis, weight)
        assert np.abs(g - np.eye(cut)).max() <= 1e-12

    @pytest.mark.parametrize("cut", [1, 3, 5])
    @pytest.mark.parametrize("kind", ["identity", "diagonal", "elementwise"])
    def test_fused_step_exit(self, cut, kind, rng, monkeypatch):
        op = random_operator(rng, 10, 2)
        v = random_block(rng, 10, 2)
        weight = _weights_for(rng, 10, 2)[kind]
        full = arnoldi_run(op, v, weight, self.M)
        fused = arnoldi_mod._fused_step

        def dependent_at_cut(flat, p, *args):
            # an infinite floor: the pending block of step ``cut`` is dependent
            return fused(flat, p, *args[:-1], math.inf if p == cut else args[-1])

        monkeypatch.setattr(arnoldi_mod, "_fused_step", dependent_at_cut)
        self._check_cut(op, weight, full, arnoldi_run(op, v, weight, self.M), cut)

    @pytest.mark.parametrize("kind", ["identity", "diagonal", "elementwise"])
    def test_last_lone_sweep_exit(self, kind, rng, monkeypatch):
        op = random_operator(rng, 10, 2)
        v = random_block(rng, 10, 2)
        weight = _weights_for(rng, 10, 2)[kind]
        full = arnoldi_run(op, v, weight, self.M)
        fold = arnoldi_mod._fold_second_sweep

        def dependent_last(h, p, a, nu2):
            # the fold runs; only the lone sweep of the last block sees a zero
            nu = fold(h, p, a, nu2)
            return 0.0 if p == self.M else nu

        monkeypatch.setattr(arnoldi_mod, "_fold_second_sweep", dependent_last)
        self._check_cut(op, weight, full, arnoldi_run(op, v, weight, self.M), self.M)


def two_call_fused_step(flat, p, h, d, work, project, floor):
    """Reference: _fused_step with its update as a product into ``work``
    followed by a subtract, the form the in-place dgemm replaced."""
    pair = flat[p:p + 2]
    weighted = pair if d is None else np.multiply(d, pair, out=work)
    s = flat[:p + 1] @ weighted.T
    raw = s[:p]
    if project is not None:
        raw = raw.copy()
        project(s)
    a = s[:p, 0]
    aa, ab = (a @ raw).tolist()
    gamma, omega = s[p].tolist()
    nu2 = math.sqrt(max(gamma - aa, 0.0))
    if arnoldi_mod._fold_second_sweep(h, p, a, nu2) <= floor:
        return None
    c = (omega - ab) / nu2
    s[p, 1] = c
    hcol = h[:p + 1, p]
    np.subtract(s[:, 1], np.matmul(h[:p + 1, :p], a), out=hcol)
    np.divide(hcol, nu2, out=hcol)
    r = c / nu2
    s[:p, 1] -= r * a
    s[p, 0] = 1.0 - 1.0 / nu2
    s[p, 1] = r
    a /= nu2
    np.subtract(pair, np.matmul(s.T, flat[:p + 1], out=work), out=pair)
    return nu2


class TestInPlaceUpdate:
    """The fused step subtracts its update from the basis in place through
    one dgemm with beta = 1.  Basis and recurrence must be those of the
    product-then-subtract update bitwise; a dgemm that worked on a copy of
    the basis (f2py copies an output that is not F-contiguous) would leave
    the basis unswept and fail here too."""

    @pytest.mark.parametrize("n, s, m", [(12, 3, 6), (400, 4, 10)])
    @pytest.mark.parametrize("path", ["fresh", "mixed"])
    @pytest.mark.parametrize("kind", ["identity", "diagonal", "elementwise"])
    def test_matches_two_call_update_bitwise(self, n, s, m, path, kind, rng, monkeypatch):
        op = random_operator(rng, n, s)
        weight = _weights_for(rng, n, s)[kind]
        if path == "fresh":
            v = random_block(rng, n, s)
            blocks, h_prefix = (v / frob(v))[None], np.zeros((1, 0))
        else:
            blocks, h_prefix = _deflated_prefix(rng, op, m, 2)
            # the new weight leaves the prefix non-orthonormal: the projector runs
            assert _prefix_projector(np.asarray(blocks), weight) is not None
        ext = extend_copy(blocks, h_prefix, op, weight, m)
        monkeypatch.setattr(arnoldi_mod, "_fused_step", two_call_fused_step)
        ref = extend_copy(blocks, h_prefix, op, weight, m)
        assert ext.breakdown is ref.breakdown is None
        assert ext.basis.tobytes() == ref.basis.tobytes()
        assert ext.h.tobytes() == ref.h.tobytes()


class TestPrefixProjector:
    """The prefix Gram solve: LAPACK's potrf/potrs as scipy.linalg.cho_factor
    and cho_solve call them, and the least-squares fallback when the Gram
    matrix in the new weight is not positive definite."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["diagonal", "elementwise"])
    def test_cholesky_solve_bitwise(self, seed, kind):
        rng = np.random.default_rng(seed)
        op = random_operator(rng, 12, 3)
        blocks, _ = _deflated_prefix(rng, op, 6, 2)
        prefix = np.asarray(blocks)
        weight = _weights_for(rng, 12, 3)[kind]
        project = _prefix_projector(prefix, weight)
        count = len(prefix)
        factor = scipy.linalg.cho_factor(diamond_product(prefix, prefix, weight))
        # a coefficient vector of _sweep and the coefficient pairs of
        # _fused_step, with two rows after the prefix that stay as they are
        b1 = rng.standard_normal(count + 2)
        b2 = rng.standard_normal((count + 2, 2))
        for b in (b1, b2, np.asfortranarray(b2)):
            t = b.copy(order="A")
            project(t)
            assert np.array_equal(t[:count], scipy.linalg.cho_solve(factor, b[:count]))
            assert np.array_equal(t[count:], b[count:])
        with pytest.raises(ValueError):
            project(np.full(count, np.nan))

    def test_non_finite_gram_raises(self, rng):
        prefix = rng.standard_normal((2, 6, 2))
        prefix[1, 3, 0] = np.nan
        with pytest.raises(ValueError):
            _prefix_projector(prefix, Weight.identity())

    @pytest.mark.parametrize("kind", ["identity", "diagonal", "elementwise"])
    def test_dependent_prefix_takes_lstsq_fallback(self, kind, rng):
        # two equal blocks: the Gram matrix is singular, potrf reports info > 0
        op = random_operator(rng, 10, 2)
        weight = _weights_for(rng, 10, 2)[kind]
        v = random_block(rng, 10, 2)
        v = v / weighted_norm(v, weight)
        prefix = np.stack([v, v])
        gram = diamond_product(prefix, prefix, weight)
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(gram)
        project = _prefix_projector(prefix, weight)
        b = rng.standard_normal(3)
        t = b.copy()
        project(t)
        assert np.array_equal(t[:2], np.linalg.lstsq(gram, b[:2], rcond=None)[0])
        assert t[2] == b[2]

        ext = extend_copy(prefix, np.zeros((2, 1)), op, weight, 6)
        assert ext.breakdown is None
        assert len(ext.basis) == 7
        assert np.isfinite(ext.h).all()
        assert relation_residual(op, ext, first=1) <= 1e-10 * op.frobenius_scale()


@pytest.mark.parametrize("m, v, message", [
    (0, np.ones((5, 2)), "step count m must be >= 1"),
    (3, np.ones((2, 5)), r"start block shape \(2, 5\) does not match operator \(5, 2\)"),
])
def test_input_refusals(m, v, message, rng):
    with pytest.raises(ValueError, match=message):
        arnoldi_run(random_operator(rng, 5, 2), v, Weight.identity(), m)
