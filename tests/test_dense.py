"""Small dense kernels: Hessenberg least squares, reduced QR, eig, solve.

The plane-rotation least squares and the modified Gram-Schmidt QR that the
Householder kernels replaced stay here as references.
"""

import numpy as np
import pytest
import scipy.linalg

from sylgmres import dense
from sylgmres.dense import (
    hessenberg_lsq,
    reduced_qr,
    small_eig,
    small_solve,
)

from conftest import random_hessenberg


# Reference comparisons: a relative error of 1000 unit roundoffs, scaled by
# the condition number the perturbation bound of each quantity carries.
RTOL = 1000 * np.finfo(np.float64).eps


def deflated_hessenberg(rng, m, k):
    """Quasi-Hessenberg shape left behind by a deflated restart: a dense
    (k+1) x k leading block, Hessenberg columns after it."""
    h = np.zeros((m + 1, m))
    h[: k + 1, :k] = rng.standard_normal((k + 1, k))
    h[:, k:] = np.triu(rng.standard_normal((m + 1, m - k)), -(k + 1))
    return h


def rotation_lsq_reference(h, c):
    """Plane-rotation least squares: (y, rho, degenerate), with the same
    degeneracy rule as ``hessenberg_lsq``."""
    m = h.shape[1]
    r = h.copy()
    g = c.copy()
    for j in range(m):
        for i in range(m, j, -1):
            if r[i, j] == 0.0:
                continue
            rad = np.hypot(r[i - 1, j], r[i, j])
            cs, sn = r[i - 1, j] / rad, r[i, j] / rad
            top = cs * r[i - 1, j:] + sn * r[i, j:]
            r[i, j:] = -sn * r[i - 1, j:] + cs * r[i, j:]
            r[i - 1, j:] = top
            gt = cs * g[i - 1] + sn * g[i]
            g[i] = -sn * g[i - 1] + cs * g[i]
            g[i - 1] = gt
    diag = np.abs(np.diagonal(r[:m, :m]))
    degenerate = bool(np.any(diag <= 1e-14 * np.linalg.norm(h)))
    if degenerate:
        y = np.linalg.lstsq(r[:m], g[:m], rcond=None)[0]
        return y, float(np.linalg.norm(c - h @ y)), True
    return scipy.linalg.solve_triangular(r[:m], g[:m]), abs(float(g[m])), False


def mgs_qr_reference(g):
    """Modified Gram-Schmidt with one reorthogonalization sweep: (q, gamma,
    kept), dropping columns whose remainder is below 1e-12 times the largest
    column norm."""
    m, k = g.shape
    tol = 1e-12 * np.linalg.norm(g, axis=0).max()
    q_cols, gamma_cols, kept = [], [], []
    for j in range(k):
        v = g[:, j].copy()
        coeff = np.zeros(k)
        for _ in range(2):
            for i, qi in enumerate(q_cols):
                t = float(qi @ v)
                coeff[i] += t
                v -= t * qi
        nrm = float(np.linalg.norm(v))
        if nrm > tol:
            coeff[len(q_cols)] = nrm
            q_cols.append(v / nrm)
            kept.append(j)
        gamma_cols.append(coeff)
    rank = len(q_cols)
    return np.column_stack(q_cols), np.column_stack([c[:rank] for c in gamma_cols]), kept


def assert_lsq_matches_reference(h, c):
    sol = hessenberg_lsq(h, c)
    y_ref, rho_ref, degenerate_ref = rotation_lsq_reference(h, c)
    assert sol.degenerate == degenerate_ref
    kappa = np.linalg.cond(h)
    hnorm = np.linalg.norm(h, 2)
    # least-squares perturbation bound: kappa for y, kappa^2 for the residual
    y_err = RTOL * kappa * (np.linalg.norm(y_ref) + kappa * rho_ref / hnorm)
    assert np.linalg.norm(sol.y - y_ref) <= y_err
    assert abs(sol.rho - rho_ref) <= RTOL * (hnorm * np.linalg.norm(y_ref) + np.linalg.norm(c))


class TestHessenbergLsq:
    def test_consistent_single_column(self):
        sol = hessenberg_lsq(np.array([[2.0], [0.0]]), np.array([4.0, 0.0]))
        assert sol.y == pytest.approx([2.0])
        assert np.allclose(sol.residual, 0.0)
        assert sol.rho == pytest.approx(0.0, abs=1e-15)
        assert not sol.degenerate

    def test_inconsistent_by_hand(self):
        # normal equations: 2 y = 1
        sol = hessenberg_lsq(np.array([[1.0], [1.0]]), np.array([1.0, 0.0]))
        assert sol.y == pytest.approx([0.5], rel=1e-14)
        assert sol.rho == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_normal_equations_oracle(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hessenberg(rng, 5)
        c = rng.standard_normal(6)
        sol = hessenberg_lsq(h, c)
        lhs = h.T @ h @ sol.y
        rhs = h.T @ c
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("seed", range(8))
    def test_rho_matches_recomputation(self, seed):
        rng = np.random.default_rng(seed + 100)
        h = random_hessenberg(rng, 7)
        c = rng.standard_normal(8)
        sol = hessenberg_lsq(h, c)
        direct = np.linalg.norm(c - h @ sol.y)
        assert abs(sol.rho - direct) <= 1e-13 * max(direct, 1.0)
        assert np.allclose(sol.residual, c - h @ sol.y)

    def test_dense_leading_block(self, rng):
        m = 6
        h = deflated_hessenberg(rng, m, 3)
        c = rng.standard_normal(m + 1)
        sol = hessenberg_lsq(h, c)
        y_ref = np.linalg.lstsq(h, c, rcond=None)[0]
        assert np.allclose(sol.y, y_ref, rtol=1e-9, atol=1e-11)

    def test_rank_deficient_flagged(self):
        h = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        c = np.array([2.0, 0.0, 0.0])
        sol = hessenberg_lsq(h, c)
        assert sol.degenerate
        # minimum-norm solution of y1 + y2 = 2
        assert sol.y == pytest.approx([1.0, 1.0], rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_rotation_reference_hessenberg(self, seed):
        rng = np.random.default_rng(seed + 200)
        m = 1 + seed
        assert_lsq_matches_reference(random_hessenberg(rng, m), rng.standard_normal(m + 1))

    @pytest.mark.parametrize("m,k", [(3, 1), (6, 3), (10, 5), (10, 8), (20, 10)])
    def test_matches_rotation_reference_deflated(self, m, k):
        rng = np.random.default_rng(10 * m + k)
        assert_lsq_matches_reference(deflated_hessenberg(rng, m, k), rng.standard_normal(m + 1))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            hessenberg_lsq(np.ones((3, 3)), np.ones(3))
        with pytest.raises(ValueError):
            hessenberg_lsq(np.ones((3, 2)), np.ones(4))


class TestReducedQr:
    def test_orthonormal_input(self, rng):
        q0, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        q = reduced_qr(q0)
        assert np.allclose(np.abs(q.T @ q0), np.eye(3), atol=1e-13)
        assert np.allclose(q @ (q.T @ q0), q0, atol=1e-13)

    def test_single_column(self):
        g = np.array([[3.0], [4.0]])
        q = reduced_qr(g)
        assert np.allclose(q, [[0.6], [0.8]])
        assert np.allclose(q.T @ g, [[5.0]])

    @pytest.mark.parametrize("seed", range(6))
    def test_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((8, 4))
        q = reduced_qr(g)
        assert q.shape == (8, 4)
        assert np.linalg.norm(g - q @ (q.T @ g)) <= 1e-13 * np.linalg.norm(g)
        assert np.linalg.norm(q.T @ q - np.eye(4)) <= 1e-13

    def test_dependent_columns_dropped(self, rng):
        a = rng.standard_normal((7, 2))
        g = np.column_stack([a[:, 0], a[:, 1], a[:, 0] + a[:, 1]])
        q = reduced_qr(g)
        assert q.shape == (7, 2)
        assert np.linalg.norm(q.T @ q - np.eye(2)) <= 1e-13
        # the dropped column is still reconstructed through its projection
        assert np.allclose(q @ (q.T @ g), g, atol=1e-12)

    def test_repeated_column_dropped_and_span_kept(self, rng):
        a = rng.standard_normal((7, 2))
        g = np.column_stack([a[:, 0], 2.0 * a[:, 0], a[:, 1]])
        q = reduced_qr(g)
        assert q.shape == (7, 2)
        assert np.linalg.norm(q.T @ q - np.eye(2)) <= 1e-13
        # q spans {a0, a1}: both are reproduced by their projections
        assert np.linalg.norm(a - q @ (q.T @ a)) <= 1e-13 * np.linalg.norm(a)
        assert np.linalg.norm(g - q @ (q.T @ g)) <= 1e-13 * np.linalg.norm(g)

    @pytest.mark.parametrize("shape", [(6, 1), (8, 4), (10, 5), (12, 12), (21, 10)])
    def test_matches_mgs_reference(self, shape):
        rng = np.random.default_rng(shape[0] * shape[1])
        g = rng.standard_normal(shape)
        self._assert_matches_mgs(g)

    def test_matches_mgs_reference_rank_deficient(self, rng):
        a = rng.standard_normal((9, 3))
        g = np.column_stack([a[:, 0], a[:, 1], a[:, 0] - a[:, 1], a[:, 2], 3.0 * a[:, 2]])
        self._assert_matches_mgs(g)

    @staticmethod
    def _assert_matches_mgs(g):
        q = reduced_qr(g)
        q_ref, gamma_ref, kept_ref = mgs_qr_reference(g)
        assert q.shape == (g.shape[0], len(kept_ref))
        assert np.linalg.norm(g - q @ (q.T @ g)) <= 1e-12 * np.linalg.norm(g)
        kappa = np.linalg.cond(g[:, kept_ref])
        assert np.linalg.norm(q - q_ref) <= RTOL * kappa
        assert np.linalg.norm(q.T @ g - gamma_ref) <= RTOL * kappa * np.linalg.norm(g)

    def test_more_columns_than_rows(self, rng):
        with pytest.raises(ValueError):
            reduced_qr(rng.standard_normal((2, 3)))


class TestSmallEig:
    def test_diagonal(self):
        pairs = small_eig(np.diag([3.0, 1.0, -2.0]))
        assert np.allclose(pairs.values, [1.0, -2.0, 3.0])
        for i, row in enumerate([1, 2, 0]):
            assert abs(np.abs(pairs.vectors[row, i]) - 1.0) < 1e-14

    def test_rotation_conjugate_pair(self):
        pairs = small_eig(np.array([[0.0, -1.0], [1.0, 0.0]]))
        vals = pairs.values
        assert sorted(vals.imag) == pytest.approx([-1.0, 1.0])
        # conjugate pairs adjacent
        assert vals[0] == np.conj(vals[1])

    @pytest.mark.parametrize("seed", range(5))
    def test_against_characteristic_roots(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((7, 7))
        pairs = small_eig(mat)
        roots = np.roots(np.poly(mat))
        got = np.sort_complex(pairs.values)
        expect = np.sort_complex(roots)
        assert np.allclose(got, expect, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_pair_residuals(self, seed):
        rng = np.random.default_rng(seed + 50)
        mat = rng.standard_normal((6, 6))
        pairs = small_eig(mat)
        scale = np.linalg.norm(mat)
        for i in range(len(pairs)):
            res = np.linalg.norm(mat @ pairs.vectors[:, i] - pairs.values[i] * pairs.vectors[:, i])
            assert res <= 1e-10 * scale
            assert np.linalg.norm(pairs.vectors[:, i]) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_trace_and_det_invariants(self, m):
        rng = np.random.default_rng(m)
        mat = rng.standard_normal((m, m))
        pairs = small_eig(mat)
        assert np.sum(pairs.values).real == pytest.approx(np.trace(mat), rel=1e-10, abs=1e-10)
        assert np.prod(pairs.values).real == pytest.approx(np.linalg.det(mat), rel=1e-8, abs=1e-8)

    def test_magnitude_order_keeps_conjugates_adjacent(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            mat = r.standard_normal((8, 8))
            vals = small_eig(mat).values
            assert np.all(np.diff(np.abs(vals)) >= 0.0)
            i = 0
            while i < len(vals):
                if vals[i].imag != 0.0:
                    assert vals[i + 1] == np.conj(vals[i])
                    i += 2
                else:
                    i += 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            small_eig(np.ones((2, 3)))
        with pytest.raises(ValueError):
            small_eig(np.array([[np.inf]]))


class TestSmallSolve:
    def test_identity(self, rng):
        rhs = rng.standard_normal((4, 2))
        assert np.allclose(small_solve(np.eye(4), rhs), rhs)

    def test_diagonal(self):
        got = small_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        assert np.allclose(got, [1.0, 1.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_residual(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        rhs = rng.standard_normal(6)
        x = small_solve(mat, rhs)
        assert np.linalg.norm(mat @ x - rhs) <= 1e-12 * np.linalg.norm(mat) * np.linalg.norm(x)

    def test_singular_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            small_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
        with pytest.raises(np.linalg.LinAlgError):
            small_solve(np.zeros((2, 2)), np.ones(2))


def front_end_lsq(h, c):
    """hessenberg_lsq through the scipy.linalg front ends, with g = Q^T c from
    qr's raw reflectors by scipy's ormqr at its workspace query's optimum:
    (y, residual, rho, degenerate)."""
    m = h.shape[1]
    (qr, tau), r = scipy.linalg.qr(h, mode="raw")
    ormqr = scipy.linalg.lapack.dormqr
    lwork = int(ormqr("L", "T", qr, tau, c, -1)[1][0])
    g = ormqr("L", "T", qr, tau, c, lwork)[0]
    degenerate = bool(m and np.any(np.abs(np.diagonal(r)) <= 1e-14 * np.linalg.norm(h)))
    if degenerate:
        y = np.linalg.lstsq(r[:m], g[:m], rcond=None)[0]
    elif m:
        assert r[:m].flags.c_contiguous or m == 1  # the case solve_triangular transposes
        y = scipy.linalg.solve_triangular(r[:m], g[:m])
    else:
        y = np.empty(0)
    residual = c - h @ y
    rho = float(np.linalg.norm(residual)) if degenerate else abs(float(g[m]))
    return y, residual, rho, degenerate


def front_end_qr(g):
    """reduced_qr through scipy.linalg.qr: (q, the kept column indices)."""
    k = g.shape[1]
    tol = 1e-12 * (np.linalg.norm(g, axis=0).max() if k else 0.0)
    q, r = scipy.linalg.qr(g, mode="economic")
    kept = [j for j in range(k) if abs(r[j, j]) > tol]
    if len(kept) < k:
        q, r = scipy.linalg.qr(g[:, kept], mode="economic")
    return q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0), kept


def front_end_solve(mat, rhs):
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(mat), rhs)


# inputs as given (C order, and a strided view), in C order and in F order
ORDERS = [pytest.param(lambda a: a, id="given"),
          pytest.param(np.ascontiguousarray, id="C"),
          pytest.param(np.asfortranarray, id="F")]


def _lsq_inputs():
    """(h, c) pairs: Hessenberg, deflated (dense leading block) and a
    column-sliced view of a larger array, as the Arnoldi step leaves it after
    a breakdown."""
    for seed in range(12):
        rng = np.random.default_rng(seed + 300)
        m = 1 + seed
        yield random_hessenberg(rng, m), rng.standard_normal(m + 1)
    for m, k in [(3, 1), (6, 3), (10, 5), (10, 8), (20, 10), (40, 20)]:
        rng = np.random.default_rng(7 * m + k)
        yield deflated_hessenberg(rng, m, k), rng.standard_normal(m + 1)
    rng = np.random.default_rng(5)
    big = deflated_hessenberg(rng, 10, 5)
    yield big[:8, :7], rng.standard_normal(8)


class TestBitwiseFrontEnds:
    """The LAPACK calls of the dense kernels give bitwise the results of the
    scipy.linalg front ends they replace, in C and in F order."""

    @pytest.mark.parametrize("order", ORDERS)
    def test_hessenberg_lsq(self, order):
        for h, c in _lsq_inputs():
            h = order(h)
            sol = hessenberg_lsq(h, c)
            y, residual, rho, degenerate = front_end_lsq(h, c)
            assert not degenerate and not sol.degenerate
            assert np.array_equal(sol.y, y)
            assert np.array_equal(sol.residual, residual)
            assert sol.rho == rho

    @pytest.mark.parametrize("order", ORDERS)
    def test_hessenberg_lsq_degenerate(self, order, rng):
        h = deflated_hessenberg(rng, 6, 3)
        h[:, 4] = h[:, 2]  # a repeated column: rank deficient
        h = order(h)
        c = rng.standard_normal(7)
        sol = hessenberg_lsq(h, c)
        y, residual, rho, degenerate = front_end_lsq(h, c)
        assert sol.degenerate and degenerate
        assert np.array_equal(sol.y, y)
        assert sol.rho == rho

    def test_hessenberg_lsq_no_columns(self):
        sol = hessenberg_lsq(np.zeros((1, 0)), np.array([-3.0]))
        assert sol.y.shape == (0,) and sol.rho == 3.0 and not sol.degenerate

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("shape", [(6, 1), (8, 4), (10, 5), (11, 6), (12, 12), (21, 10)])
    def test_reduced_qr(self, order, shape):
        g = np.random.default_rng(shape[0] + 31 * shape[1]).standard_normal(shape)
        g = order(g)
        q, kept = front_end_qr(g)
        assert kept == list(range(shape[1]))
        assert np.array_equal(reduced_qr(g), q)

    @pytest.mark.parametrize("order", ORDERS)
    def test_reduced_qr_dropped_column_refactor(self, order, rng):
        a = rng.standard_normal((9, 3))
        g = order(np.column_stack([a[:, 0], a[:, 1], a[:, 0] - a[:, 1], a[:, 2], 3.0 * a[:, 2]]))
        q, kept = front_end_qr(g)
        assert kept == [0, 1, 3]
        assert np.array_equal(reduced_qr(g), q)

    @pytest.mark.parametrize("shape", [(0, 0), (4, 0)])
    def test_reduced_qr_empty(self, shape):
        q, kept = front_end_qr(np.zeros(shape))
        assert reduced_qr(np.zeros(shape)).shape == q.shape == (shape[0], 0)
        assert kept == []

    @pytest.mark.parametrize("order", ORDERS)
    def test_small_solve(self, order):
        for seed in range(8):
            rng = np.random.default_rng(seed + 400)
            m = 2 + seed
            mat = order(rng.standard_normal((m, m)))
            for rhs in (rng.standard_normal(m), order(rng.standard_normal((m, 3)))):
                assert np.array_equal(small_solve(mat, rhs), front_end_solve(mat, rhs))

    def test_small_solve_harmonic_layout(self):
        # harmonic_pairs solves with the F-ordered transpose of a C-ordered
        # square part, and with it as a matrix right-hand side
        for seed in range(6):
            rng = np.random.default_rng(seed + 500)
            h = random_hessenberg(rng, 10)
            hm_t = h[:10].T
            assert hm_t.flags.f_contiguous
            em = np.zeros(10)
            em[-1] = 1.0
            assert np.array_equal(small_solve(hm_t, em), front_end_solve(hm_t, em))
            normal = h.T @ h
            assert np.array_equal(small_solve(normal, hm_t), front_end_solve(normal, hm_t))

    def test_small_solve_empty(self):
        assert small_solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
        assert small_solve(np.zeros((0, 0)), np.zeros((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("rows,cols", [(11, 10), (40, 30), (200, 150), (300, 300)])
    def test_workspace_covers_lapack_block_size(self, rows, cols):
        # the kernels pass 64 workspace entries per column of Q; at or above
        # the workspace query's optimum LAPACK blocks as the front end makes
        # it.  Q is only ever formed economic (reduced_qr's dorgqr)
        lapack = scipy.linalg.lapack
        assert lapack.dgeqrf(np.zeros((rows, cols)), lwork=-1)[2][0] <= 64 * cols
        assert lapack.dorgqr(np.zeros((rows, cols)), np.zeros(cols), lwork=-1)[1][0] <= 64 * cols

    @pytest.mark.parametrize("rows", [2, 11, 41, 301])
    def test_ormqr_workspace_covers_its_query(self, rows):
        # hessenberg_lsq's dormqr workspace is at least the query's optimum,
        # so LAPACK blocks the reflectors as test_hessenberg_lsq's reference
        ormqr = scipy.linalg.lapack.dormqr
        query = ormqr("L", "T", np.zeros((rows, rows - 1)), np.zeros(rows - 1), np.zeros(rows), -1)
        assert query[1][0] <= dense._ORMQR_LWORK


class TestRetainedChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad, rng):
        h = random_hessenberg(rng, 4)
        c = rng.standard_normal(5)
        h_bad, c_bad = h.copy(), c.copy()
        h_bad[1, 2] = bad
        c_bad[3] = bad
        with pytest.raises(ValueError):
            hessenberg_lsq(h_bad, c)
        with pytest.raises(ValueError):
            hessenberg_lsq(h, c_bad)
        with pytest.raises(ValueError):
            reduced_qr(h_bad)
        with pytest.raises(ValueError):
            small_solve(h_bad[:4], c[:4])

    def test_singular_small_solve(self):
        # an exactly zero pivot (LAPACK's info > 0) and a rounding-level one
        for mat in (np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0 + 1e-16]])):
            with pytest.raises(np.linalg.LinAlgError):
                small_solve(mat, np.ones(mat.shape[0]))

    def test_degenerate_flag_on_zero_matrix(self):
        sol = hessenberg_lsq(np.zeros((4, 3)), np.array([1.0, 2.0, 0.0, 0.0]))
        assert sol.degenerate
        assert np.array_equal(sol.y, np.zeros(3))
        assert sol.rho == pytest.approx(np.sqrt(5.0), rel=1e-15)

    @pytest.mark.parametrize("shape", [(5, 3), (6, 6), (4, 1)])
    def test_reduced_qr_rank_zero(self, shape):
        assert reduced_qr(np.zeros(shape)).shape == (shape[0], 0)


@pytest.mark.parametrize("call, message", [
    (lambda: reduced_qr(np.ones(3)), "expected a 2-d matrix"),
    (lambda: small_eig(np.zeros((0, 0))), "matrix must be at least 1 x 1"),
    (lambda: small_solve(np.ones((2, 3)), np.ones(2)), r"expected a square matrix, got \(2, 3\)"),
    (lambda: small_solve(np.eye(3), np.ones(2)),
     r"right-hand side rows 2 do not match matrix \(3, 3\)"),
])
def test_input_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
