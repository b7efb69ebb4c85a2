"""Finite-difference generator, Matrix Market I/O, seeded right-hand sides
and the dense Kronecker oracle."""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse as sp

from sylgmres import SolverConfig, SylvesterOperator, WeightStrategy, kron_solve, wglgmres_dr
from sylgmres.cli import COEFFICIENT_PRESETS
from sylgmres.core import apply_sylvester, frob
from sylgmres.problems import (
    FdmSpec,
    MatrixMarketError,
    default_density,
    fdm_matrix,
    gen_rhs,
    read_matrix_market,
    write_matrix_market,
)

from conftest import bartels_stewart, kron_matrix, random_block, random_operator

FIXTURES = Path(__file__).parent / "fixtures"
GOOD_FILES = ["single.mtx", "sym2.mtx", "identity4.mtx", "sym3.mtx", "general6.mtx"]
GENERAL = "%%MatrixMarket matrix coordinate real general\n"
SYMMETRIC = "%%MatrixMarket matrix coordinate real symmetric\n"


class TestFdmMatrix:
    def test_single_interior_point(self):
        for c in (0.0, 2.5, -1.0):
            mat = fdm_matrix(FdmSpec(1, 0.0, 0.0, c))
            assert mat.shape == (1, 1)
            assert mat.toarray()[0, 0] == pytest.approx(-16.0 - c, rel=1e-14)

    def test_two_by_two_laplacian(self):
        mat = fdm_matrix(FdmSpec(2)).toarray()
        expect = np.array(
            [
                [-36.0, 9.0, 9.0, 0.0],
                [9.0, -36.0, 0.0, 9.0],
                [9.0, 0.0, -36.0, 9.0],
                [0.0, 9.0, 9.0, -36.0],
            ]
        )
        assert np.array_equal(mat, expect)

    def test_at_most_five_entries_per_row(self):
        mat = fdm_matrix(FdmSpec(7, lambda x, y: x, lambda x, y: y, 1.0))
        counts = np.diff(mat.indptr)
        assert counts.max() <= 5

    def test_laplacian_symmetric_negative_definite(self):
        for n0 in (2, 5, 10):
            mat = fdm_matrix(FdmSpec(n0)).toarray()
            assert np.array_equal(mat, mat.T)
            assert np.linalg.eigvalsh(mat).max() < 0.0

    def test_truncation_error_second_order(self):
        # applying the matrix to samples of a smooth function that vanishes on
        # the boundary reproduces the operator to O(h^2)
        f1 = lambda x, y: np.exp(x) * y
        f2 = lambda x, y: np.sin(x + y)
        f3 = lambda x, y: 1.0 + x * y

        def u(x, y):
            return np.sin(np.pi * x) * np.sin(np.pi * y)

        def lu(x, y):
            ux = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
            uy = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
            lap = -2.0 * np.pi**2 * u(x, y)
            return lap - f1(x, y) * ux - f2(x, y) * uy - f3(x, y) * u(x, y)

        errs = []
        for n0 in (8, 16, 32):
            mat = fdm_matrix(FdmSpec(n0, f1, f2, f3))
            h = 1.0 / (n0 + 1)
            idx = np.arange(n0 * n0)
            x = (idx % n0 + 1) * h
            y = (idx // n0 + 1) * h
            errs.append(np.abs(mat @ u(x, y) - lu(x, y)).max())
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_scalar_coefficients_accepted(self):
        mat = fdm_matrix(FdmSpec(3, 1.0, 0.5, 10.0))
        assert mat.shape == (9, 9)

    def test_nonvectorized_callables_accepted(self):
        import math

        mat_a = fdm_matrix(FdmSpec(3, lambda x, y: math.sin(x * y), 0.0, 0.0))
        mat_b = fdm_matrix(FdmSpec(3, lambda x, y: np.sin(x * y), 0.0, 0.0))
        assert np.allclose(mat_a.toarray(), mat_b.toarray())

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            FdmSpec(0)


def coo_reference(spec):
    """The FDM matrix assembled as COO triplets and converted to canonical
    float64 CSR: the reference that fdm_matrix's direct build must match
    bit for bit."""
    n0 = spec.n0
    n = n0 * n0
    h = 1.0 / (n0 + 1)
    idx = np.arange(n)
    ix = idx % n0
    iy = idx // n0
    x = (ix + 1) * h
    y = (iy + 1) * h
    coefficients = []
    for f in (spec.f1, spec.f2, spec.f3):
        if not callable(f):
            coefficients.append(np.full(x.shape, float(f)))
            continue
        try:
            v = np.asarray(f(x, y), dtype=np.float64)
            coefficients.append(np.broadcast_to(v, x.shape).astype(np.float64))
        except (TypeError, ValueError):
            coefficients.append(np.array([float(f(xi, yi)) for xi, yi in zip(x, y)]))
    f1, f2, f3 = coefficients
    lap = 1.0 / h**2
    rows = [idx]
    cols = [idx]
    vals = [-4.0 * lap - f3]
    for keep, offset, f, op in ((ix < n0 - 1, 1, f1, np.subtract), (ix > 0, -1, f1, np.add),
                                (iy < n0 - 1, n0, f2, np.subtract), (iy > 0, -n0, f2, np.add)):
        rows.append(idx[keep])
        cols.append(idx[keep] + offset)
        vals.append(op(lap, f[keep] / (2.0 * h)))
    coo = sp.coo_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n, n))
    mat = sp.csr_array(coo).astype(np.float64)
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


FDM_SPECS = {f"{name}-n0={n0}": FdmSpec(n0, *COEFFICIENT_PRESETS[name])
             for n0 in (1, 2, 3, 5, 20, 50, 100, 137) for name in COEFFICIENT_PRESETS}
FDM_SPECS["zero-coupling"] = FdmSpec(3, 8.0)
FDM_SPECS["scalar-callables"] = FdmSpec(4, lambda x, y: math.sin(x * y), 0.5,
                                        lambda x, y: math.exp(x - y))


@pytest.mark.parametrize("spec", FDM_SPECS.values(), ids=FDM_SPECS.keys())
def test_fdm_matrix_is_the_coo_build_bitwise(spec):
    mat = fdm_matrix(spec)
    ref = coo_reference(spec)
    assert type(mat) is type(ref) and mat.shape == ref.shape
    assert mat.has_canonical_format and ref.has_canonical_format
    for name in ("indptr", "indices", "data"):
        got, want = getattr(mat, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def test_fdm_matrix_stores_zero_couplings():
    # f1 = 8 makes the east coupling 1/h^2 - 8/(2h) exactly 0 at h = 1/4
    mat = fdm_matrix(FdmSpec(3, 8.0))
    assert mat.nnz == 33
    assert np.count_nonzero(mat.data == 0.0) == 6


def test_fdm_matrix_rejects_an_overflowing_coefficient():
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match="matrix contains non-finite entries"):
        fdm_matrix(FdmSpec(5, 0.0, 0.0, lambda x, y: 1e308 * (1.0 + x)))


class TestMatrixMarketRead:
    def test_single_entry(self):
        mat = read_matrix_market(FIXTURES / "single.mtx")
        assert mat.shape == (1, 1)
        assert mat.toarray()[0, 0] == 5.0

    def test_symmetric_expansion(self):
        mat = read_matrix_market(FIXTURES / "sym2.mtx").toarray()
        assert np.array_equal(mat, [[1.0, 3.0], [3.0, 2.0]])

    @pytest.mark.parametrize("name", GOOD_FILES)
    def test_matches_scipy_reader(self, name):
        mine = read_matrix_market(FIXTURES / name).toarray()
        ref = scipy.io.mmread(FIXTURES / name).toarray()
        assert np.array_equal(mine, ref)

    @pytest.mark.parametrize(
        "name,lineno",
        [
            ("bad_header.mtx", 1),
            ("bad_field.mtx", 1),
            ("bad_index.mtx", 4),
            ("bad_value.mtx", 4),
            ("truncated.mtx", 5),
        ],
    )
    def test_malformed_rejected_with_line_number(self, name, lineno):
        with pytest.raises(MatrixMarketError) as err:
            read_matrix_market(FIXTURES / name)
        assert err.value.lineno == lineno
        assert f":{lineno}:" in str(err.value)

    def test_upper_triangle_in_symmetric_rejected(self, tmp_path):
        path = tmp_path / "bad_sym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 3.0\n"
        )
        with pytest.raises(MatrixMarketError) as err:
            read_matrix_market(path)
        assert err.value.lineno == 3

    @pytest.mark.parametrize("text, lineno, message", [
        ("%%MatrixMarket matrix coordinate real\n1 1 0\n", 1,
         "expected '%%MatrixMarket matrix coordinate real <symmetry>' header"),
        ("%%MatrixMarket tensor coordinate real general\n1 1 0\n", 1,
         "unsupported object 'tensor' (only 'matrix')"),
        ("%%MatrixMarket matrix array real general\n1 1\n", 1,
         "unsupported format 'array' (only 'coordinate')"),
        ("%%MatrixMarket matrix coordinate complex general\n1 1 0\n", 1,
         "unsupported field 'complex' (only 'real')"),
        ("%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n", 1,
         "unsupported symmetry 'hermitian' (only 'general' or 'symmetric')"),
        ("", 1, "empty file"),
        ("%%MatrixMarket matrix coordinate real general\n% note\n2 2\n", 3,
         "size line must be 'rows cols nnz'"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 x\n", 2,
         "non-integer size line '2 2 x'"),
        ("%%MatrixMarket matrix coordinate real general\n0 0 0\n", 2,
         "matrix dimensions must be positive"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n", 4,
         "more than the declared 1 entries"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", 3,
         "entry line must be 'row col value'"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1.5 1 2.0\n", 3,
         "non-integer index in '1.5 1 2.0'"),
        ("%%MatrixMarket matrix coordinate real general\n% only a comment\n", 3,
         "missing size line"),
        # a malformed entry is reported before a later surplus line
        (GENERAL + "2 2 1\n1 1 x\n2 2 1.0\n", 3, "non-real value 'x'"),
        # line numbers count comment and blank lines, CRLF lines once
        (GENERAL + "% c\n\n2 2 1\n\n1 1 1.0\n% c\n2 2 1.0\n", 8,
         "more than the declared 1 entries"),
        (GENERAL + "2 2 3\n1 1 1.0\n% trailing\n\n", 6,
         "expected 3 entries, file ends after 1"),
        (GENERAL.replace("\n", "\r\n") + "2 2 1\r\n\r\n3 1 1.0\r\n", 4,
         "index (3, 1) outside the 2 x 2 matrix"),
        (GENERAL + "\n\n", 4, "missing size line"),
        (GENERAL + "2 3 1\n1 1 1.0\n", 2, "matrix must be square, got 2 x 3"),
    ])
    def test_refusal_message_and_line(self, tmp_path, text, lineno, message):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(MatrixMarketError) as err:
            read_matrix_market(path)
        assert err.value.lineno == lineno
        assert str(err.value) == f"{path}:{lineno}: {message}"

    @pytest.mark.parametrize("text, expect", [
        # comments and blank lines before the size line and between entries
        (GENERAL + "% made by hand\n\n  \n3 3 2\n% first\n\n1 1 2.0\n%\n3 2 -1.5\n\n",
         [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, -1.5, 0.0]]),
        (GENERAL.replace("\n", "\r\n") + "2 2 2\r\n1 1 1.0\r\n2 1 3d0\r\n",
         [[1.0, 0.0], [3.0, 0.0]]),
        (GENERAL + "2\t2\t2\n1\t1\t1.0\n 2 \t 2  4.0 \n", [[1.0, 0.0], [0.0, 4.0]]),
        # repeated symmetric entries are summed, and mirrored once summed
        (SYMMETRIC + "3 3 4\n2 1 1.0\n2 1 2.0\n3 3 1.0\n3 1 -1.0\n",
         [[0.0, 3.0, -1.0], [3.0, 0.0, 0.0], [-1.0, 0.0, 1.0]]),
    ], ids=["comments-and-blanks", "crlf", "tabs", "repeated-symmetric"])
    def test_layouts_read(self, tmp_path, text, expect):
        path = tmp_path / "ok.mtx"
        path.write_bytes(text.encode("ascii"))
        mat = read_matrix_market(path)
        assert mat.has_canonical_format
        assert np.array_equal(mat.toarray(), expect)

    def test_nonsquare_rejected(self, tmp_path):
        path = tmp_path / "rect.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)


class TestMatrixMarketRoundTrip:
    @pytest.mark.parametrize("name", GOOD_FILES)
    def test_read_write_read_identity(self, name, tmp_path):
        first = read_matrix_market(FIXTURES / name)
        out = tmp_path / "copy.mtx"
        write_matrix_market(first, out)
        second = read_matrix_market(out)
        assert first.shape == second.shape
        assert np.array_equal(first.indptr, second.indptr)
        assert np.array_equal(first.indices, second.indices)
        assert np.array_equal(first.data, second.data)

    def test_random_csr_round_trip(self, rng, tmp_path):
        mat = sp.random_array((12, 12), density=0.2, rng=rng, format="csr")
        out = tmp_path / "rand.mtx"
        write_matrix_market(mat, out)
        back = read_matrix_market(out)
        mat = sp.csr_array(mat)
        mat.sort_indices()
        assert np.array_equal(back.indices, mat.indices)
        assert np.array_equal(back.indptr, mat.indptr)
        assert np.array_equal(back.data, mat.data)

    def test_header_is_exact(self, tmp_path):
        out = tmp_path / "hdr.mtx"
        write_matrix_market(np.eye(2), out)
        first = out.read_text().splitlines()[0]
        assert first == "%%MatrixMarket matrix coordinate real general"


class TestGenRhs:
    def test_full_density(self):
        c = gen_rhs(20, 3, seed=1, density=1.0)
        assert np.all(c > 0.0) and np.all(c < 1.0)

    def test_determinism(self):
        a = gen_rhs(30, 4, seed=9, density=0.3)
        b = gen_rhs(30, 4, seed=9, density=0.3)
        assert np.array_equal(a, b)
        c = gen_rhs(30, 4, seed=10, density=0.3)
        assert not np.array_equal(a, c)

    def test_nonzero_count_near_expectation(self):
        counts = [np.count_nonzero(gen_rhs(100, 4, seed=s, density=0.1)) for s in range(20)]
        assert np.mean(counts) == pytest.approx(40.0, rel=0.2)

    def test_default_density_rule(self):
        assert default_density(400, 4) == pytest.approx(0.125)
        assert default_density(10, 2) == 0.5

    def test_density_validation(self):
        with pytest.raises(ValueError):
            gen_rhs(5, 2, seed=0, density=0.0)
        with pytest.raises(ValueError):
            gen_rhs(5, 2, seed=0, density=1.5)


class TestKronSolve:
    def test_scalar(self):
        op = SylvesterOperator(np.array([[2.0]]), np.array([[3.0]]))
        x = kron_solve(op, np.array([[10.0]]))
        assert x[0, 0] == pytest.approx(2.0, rel=1e-14)

    def test_double_identity(self, rng):
        op = SylvesterOperator(np.eye(4), np.eye(2))
        c = random_block(rng, 4, 2)
        assert np.allclose(kron_solve(op, c), c / 2.0, rtol=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_residual(self, seed):
        rng = np.random.default_rng(seed)
        op = random_operator(rng, 5, 3)
        c = random_block(rng, 5, 3)
        x = kron_solve(op, c)
        assert frob(apply_sylvester(op, x) - c) <= 1e-11 * frob(c)

    def test_size_guard(self):
        op = SylvesterOperator(sp.eye_array(1025, format="csr"), np.eye(4))
        with pytest.raises(ValueError):
            kron_solve(op, np.ones((1025, 4)))

    def test_singular_rejected(self):
        # A = -B = identity makes the linearization singular
        op = SylvesterOperator(np.eye(2), -np.eye(2))
        with pytest.raises(np.linalg.LinAlgError):
            kron_solve(op, np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, bad, rng):
        op = random_operator(rng, 5, 3)
        c = random_block(rng, 5, 3)
        c[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            kron_solve(op, c)

    @pytest.mark.parametrize("seed", range(3))
    def test_same_as_scipy_lu(self, seed):
        # small_solve makes the LAPACK calls of lu_factor and lu_solve
        rng = np.random.default_rng(seed)
        op = random_operator(rng, 12, 3)
        c = random_block(rng, 12, 3)
        vec = scipy.linalg.lu_solve(scipy.linalg.lu_factor(kron_matrix(op)), c.ravel(order="F"))
        assert np.array_equal(kron_solve(op, c), vec.reshape(op.shape, order="F"))


def test_input_refusals(rng):
    op = random_operator(rng, 4, 2)
    with pytest.raises(ValueError,
                       match=r"right-hand side shape \(2, 4\) does not match operator \(4, 2\)"):
        kron_solve(op, np.ones((2, 4)))


@pytest.fixture(scope="module")
def fdm100():
    """The benchmark's seed-7 problem: varcoef1 (n0 = 100) x varcoef2 (s0 = 2),
    n·s = 40,000, with its sparse direct solution."""
    op = fdm_operator(100)
    c = gen_rhs(op.n, op.s, 7)
    return op, c, bartels_stewart(op, c)


def fdm_operator(n0):
    return SylvesterOperator(fdm_matrix(FdmSpec(n0, *COEFFICIENT_PRESETS["varcoef1"])),
                             fdm_matrix(FdmSpec(2, *COEFFICIENT_PRESETS["varcoef2"])))


class TestBartelsStewart:
    """The test-side sparse direct reference reaches the benchmark's problem,
    ten times past kron_solve's cap, so a solve there is checked by its
    forward error, not only by its residual."""

    @pytest.mark.parametrize("n0", [12, 20])
    def test_agrees_with_kron_solve(self, n0):
        op = fdm_operator(n0)
        c = gen_rhs(op.n, op.s, 7)
        expect = kron_solve(op, c)
        assert frob(bartels_stewart(op, c) - expect) <= 1e-12 * frob(expect)

    def test_residual_at_benchmark_scale(self, fdm100):
        op, c, x = fdm100
        assert frob(c - apply_sylvester(op, x)) <= 1e-12 * frob(c)

    def test_forward_error_of_the_weighted_deflated_solve(self, fdm100):
        # measured 6.9e-6, ten times the residual the solve stops at (6.7e-7)
        op, c, x = fdm100
        cfg = SolverConfig(m=10, k=5, tol=1e-6, strategy=WeightStrategy("mean"))
        report = wglgmres_dr(op, c, cfg)
        assert report.converged
        assert frob(report.x - x) <= 1e-4 * frob(x)
