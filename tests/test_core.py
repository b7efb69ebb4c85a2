"""Block vectors, weighted inner products and the Sylvester operator."""

import numpy as np
import pytest
import scipy.sparse as sp

from sylgmres import SylvesterOperator
from sylgmres.arnoldi import arnoldi_extend
from sylgmres.core import (
    DENSE_B_MAX_S,
    Weight,
    apply_sylvester,
    as_block,
    as_csr,
    basis_combine,
    diamond_product,
    frob,
    weighted_inner,
    weighted_norm,
)
from sylgmres.problems import FdmSpec, fdm_matrix

from conftest import kron_matrix, random_block, random_operator


class TestApplySylvester:
    def test_double_identity(self):
        op = SylvesterOperator(np.eye(2), np.eye(1))
        x = np.array([[1.0], [2.0]])
        assert np.array_equal(op.apply(x), [[2.0], [4.0]])

    def test_null_operator(self, rng):
        op = SylvesterOperator(np.zeros((3, 3)), np.zeros((2, 2)))
        x = random_block(rng, 3, 2)
        assert np.array_equal(op.apply(x), np.zeros((3, 2)))

    def test_matches_kronecker_matvec(self, rng):
        op = random_operator(rng, 4, 2)
        x = random_block(rng, 4, 2)
        big = kron_matrix(op)
        expect = (big @ x.ravel(order="F")).reshape((4, 2), order="F")
        got = apply_sylvester(op, x)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)

    @pytest.mark.parametrize("s", [DENSE_B_MAX_S, DENSE_B_MAX_S + 1])
    def test_dense_and_sparse_b_paths(self, s, rng):
        a = random_block(rng, 3, 3)
        b = sp.random_array((s, s), density=0.05, rng=rng, format="csr")
        op = SylvesterOperator(a, b)
        assert (op.b_dense is None) == (s > DENSE_B_MAX_S)
        x = random_block(rng, 3, s)
        expect = a @ x + x @ b.toarray()
        assert np.linalg.norm(op.apply(x) - expect) <= 1e-13 * np.linalg.norm(expect)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "integer", "nan"])
    @pytest.mark.parametrize("s", [1, 3, DENSE_B_MAX_S, DENSE_B_MAX_S + 1])
    def test_apply_is_the_product_it_replaces_bitwise(self, s, layout, index_dtype, rng):
        # apply runs scipy's CSR kernel itself; a scipy release whose kernel
        # or dispatch differs from it fails here
        n = 30
        op = random_operator(rng, n, s, density=0.2)
        op.a.indices = op.a.indices.astype(index_dtype)
        op.a.indptr = op.a.indptr.astype(index_dtype)
        x = rng.standard_normal((n, s))
        if layout == "F":
            x = np.asfortranarray(x)
        elif layout == "strided":
            x = rng.standard_normal((2 * n, 3 * s))[::2, ::3]
        elif layout == "integer":
            x = rng.integers(-50, 50, (n, s))
        elif layout == "nan":
            x[n // 2, s // 2] = np.nan
        xf = np.asarray(x, dtype=np.float64)
        expect = op.a @ xf + xf @ (op.b if op.b_dense is None else op.b_dense)
        assert op.a.indices.dtype == op.a.indptr.dtype == index_dtype
        assert op.apply(x).tobytes() == expect.tobytes()

    def test_frobenius_scale_across_the_float_range(self):
        # ||A||_F and ||B||_F are frob's, which rescales squares that under- or
        # overflow: the sums of squares used to overflow to inf and underflow to 0
        big = SylvesterOperator(1e200 * np.eye(3), np.eye(2)).frobenius_scale()
        tiny = SylvesterOperator(1e-200 * np.eye(3), 1e-200 * np.eye(2)).frobenius_scale()
        assert big == np.sqrt(3.0) * 1e200 + np.sqrt(2.0)
        assert tiny == pytest.approx((np.sqrt(3.0) + np.sqrt(2.0)) * 1e-200, rel=1e-15)

    def test_dimension_mismatch(self, rng):
        op = random_operator(rng, 4, 2)
        with pytest.raises(ValueError):
            op.apply(random_block(rng, 4, 3))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SylvesterOperator(np.ones((2, 3)), np.eye(2))


class TestWeightedInner:
    def test_identity_trace(self):
        y = np.eye(2)
        assert weighted_inner(y, y, Weight.identity()) == 2.0

    def test_diagonal_by_hand(self):
        y = np.array([[1.0], [2.0]])
        z = np.array([[3.0], [4.0]])
        w = Weight.diagonal([2.0, 3.0], 1)
        # trace(Z^T D Y) = 3*2*1 + 4*3*2
        assert weighted_inner(y, z, w) == pytest.approx(30.0, rel=1e-14)

    def test_matches_vectorized_form(self, rng):
        n, s = 5, 3
        y = random_block(rng, n, s)
        z = random_block(rng, n, s)
        d = rng.uniform(0.5, 2.0, n)
        w = Weight.diagonal(d, s)
        big_d = np.kron(np.eye(s), np.diag(d))
        expect = z.ravel(order="F") @ big_d @ y.ravel(order="F")
        assert weighted_inner(y, z, w) == pytest.approx(expect, rel=1e-13)

    def test_elementwise_variant(self, rng):
        y = random_block(rng, 4, 2)
        z = random_block(rng, 4, 2)
        wm = rng.uniform(0.5, 2.0, (4, 2))
        w = Weight(wm)
        expect = np.trace(z.T @ (wm * y))
        assert weighted_inner(y, z, w) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("kind", ["identity", "diagonal", "elementwise"])
    def test_is_the_one_by_one_diamond_product(self, kind, rng):
        n, s = 6, 3
        weight = {"identity": Weight.identity(),
                  "diagonal": Weight.diagonal(rng.uniform(0.2, 3.0, n), s),
                  "elementwise": Weight(rng.uniform(0.2, 3.0, (n, s)))}[kind]
        y, z = random_block(rng, n, s), random_block(rng, n, s)
        assert weighted_inner(y, z, weight) == diamond_product(y[None], z[None], weight)[0, 0]

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match=r"^block shapes differ: \(3, 2\) vs \(2, 3\)$"):
            weighted_inner(random_block(rng, 3, 2), random_block(rng, 2, 3), Weight.identity())
        with pytest.raises(ValueError):
            weighted_inner(random_block(rng, 3, 2), random_block(rng, 3, 2),
                           Weight.diagonal(np.ones(4), 2))

    @pytest.mark.parametrize("seed", range(5))
    def test_bilinearity(self, seed):
        rng = np.random.default_rng(seed)
        n, s = 6, 2
        y1, y2, z = (random_block(rng, n, s) for _ in range(3))
        w = Weight.diagonal(rng.uniform(0.1, 3.0, n), s)
        alpha = rng.standard_normal()
        lhs = weighted_inner(alpha * y1 + y2, z, w)
        rhs = alpha * weighted_inner(y1, z, w) + weighted_inner(y2, z, w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        y = random_block(rng, 7, 3)
        z = random_block(rng, 7, 3)
        w = Weight.diagonal(rng.uniform(0.1, 3.0, 7), 3)
        a = weighted_inner(y, z, w)
        b = weighted_inner(z, y, w)
        assert abs(a - b) <= 1e-13 * max(abs(a), 1.0)


class TestWeightedNorm:
    def test_zero_block(self):
        assert weighted_norm(np.zeros((3, 2)), Weight.identity()) == 0.0

    def test_frobenius_case(self):
        y = np.array([[3.0], [4.0]])
        assert weighted_norm(y, Weight.identity()) == pytest.approx(5.0, rel=1e-15)

    def test_matches_sqrt_factor(self, rng):
        n, s = 6, 2
        y = random_block(rng, n, s)
        d = rng.uniform(0.2, 4.0, n)
        got = weighted_norm(y, Weight.diagonal(d, s))
        expect = np.linalg.norm(np.sqrt(d)[:, None] * y)
        assert got == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_positivity(self, seed):
        rng = np.random.default_rng(seed)
        y = random_block(rng, 5, 2)
        w = Weight.diagonal(rng.uniform(0.01, 1.0, 5), 2)
        assert weighted_norm(y, w) > 0.0

    def test_nan_block_has_nan_norm(self):
        y = np.ones((3, 2))
        y[1, 0] = np.nan
        for w in (Weight.identity(), Weight.diagonal([1.0, 2.0, 3.0], 2)):
            assert np.isnan(weighted_norm(y, w))

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160, 1e200])
    def test_squares_out_of_range_are_rescaled(self, rng, scale):
        # the sums of squares under- or overflow; the norms themselves do not
        y = random_block(rng, 5, 3)
        d = rng.uniform(0.5, 2.0, 5)
        close = {"rel": 1e-14, "abs": 0.0}
        assert frob(scale * y) == pytest.approx(scale * frob(y), **close)
        for w in (Weight.identity(), Weight.diagonal(d, 3)):
            assert weighted_norm(scale * y, w) == pytest.approx(scale * weighted_norm(y, w),
                                                                **close)
        # a weight on the block's own scale, as the mean strategy builds it
        got = weighted_norm(scale * y, Weight.diagonal(scale * d, 3))
        assert got == pytest.approx(scale**1.5 * weighted_norm(y, Weight.diagonal(d, 3)),
                                    **close)

    def test_normal_range_sums_unchanged(self, rng):
        y = random_block(rng, 7, 3)
        w = Weight.diagonal(rng.uniform(0.5, 2.0, 7), 3)
        for block in (y, np.ascontiguousarray(y), y[::2]):
            # in C order, whatever the layout
            assert frob(block) == float(np.linalg.norm(np.ascontiguousarray(block)))
        assert weighted_norm(y, w) == float(np.sqrt(np.einsum("ij,ij,ij->", w.data, y, y)))

    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e200])
    def test_sums_in_c_order_whatever_the_layout(self, rng, scale):
        # an F-ordered block gives the norm of its C-ordered copy, as in frob
        for _ in range(20):
            y = scale * rng.standard_normal((13, 5))
            for w in (Weight.identity(), Weight.diagonal(rng.uniform(0.5, 2.0, 13), 5),
                      Weight(rng.uniform(0.5, 2.0, (13, 5)))):
                assert weighted_norm(np.asfortranarray(y), w) == weighted_norm(y, w)

    def test_infinite_block_has_infinite_norm(self):
        y = np.ones((3, 2))
        y[0, 1] = np.inf
        assert frob(y) == np.inf
        assert weighted_norm(y, Weight.identity()) == np.inf

    def test_weight_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Weight.diagonal([1.0, 0.0], 2)
        with pytest.raises(ValueError):
            Weight.diagonal([1.0, -2.0], 2)
        with pytest.raises(ValueError):
            Weight(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Weight([[1.0, np.inf]])
        with pytest.raises(ValueError):
            Weight(np.ones(3))  # a diagonal needs its block width
        with pytest.raises(ValueError):
            Weight.diagonal(np.ones((2, 2)), 2)


class TestDiamondProduct:
    def test_normalized_single_block(self, rng):
        v = random_block(rng, 5, 2)
        w = Weight.diagonal(rng.uniform(0.5, 1.5, 5), 2)
        v = v / weighted_norm(v, w)
        g = diamond_product(v[None], v[None], w)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_identity_weight_is_frobenius_gram(self, rng):
        u = np.stack([random_block(rng, 4, 2) for _ in range(3)])
        v = np.stack([random_block(rng, 4, 2) for _ in range(2)])
        g = diamond_product(u, v, Weight.identity())
        expect = np.array([[np.trace(vj.T @ ui) for vj in v] for ui in u])
        assert np.allclose(g, expect, rtol=1e-13)

    def test_weight_moves_onto_second_factor(self, rng):
        n, s = 5, 2
        u = np.stack([random_block(rng, n, s) for _ in range(3)])
        v = np.stack([random_block(rng, n, s) for _ in range(3)])
        d = rng.uniform(0.3, 2.0, n)
        got = diamond_product(u, v, Weight.diagonal(d, s))
        expect = diamond_product(u, d[:, None] * v, Weight.identity())
        assert np.allclose(got, expect, rtol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            diamond_product(random_block(rng, 3, 2)[None], random_block(rng, 4, 2)[None],
                            Weight.identity())

    @pytest.mark.parametrize("kind", ["identity", "diagonal", "elementwise"])
    def test_empty_stack_gives_empty_gram(self, kind, rng):
        # a cycle that breaks down at its first step after a deflated restart
        # has no fresh blocks: its Gram against the prefix is empty
        n, s = 4, 3
        weight = {"identity": Weight.identity(),
                  "diagonal": Weight.diagonal(rng.uniform(0.2, 3.0, n), s),
                  "elementwise": Weight(rng.uniform(0.2, 3.0, (n, s)))}[kind]
        stack = np.stack([random_block(rng, n, s) for _ in range(2)])
        empty = np.empty((0, n, s))
        for u, v, shape in ((empty, stack, (0, 2)), (stack, empty, (2, 0)),
                            (empty, empty, (0, 0))):
            g = diamond_product(u, v, weight)
            assert g.shape == shape and g.dtype == np.float64


class TestBasisCombine:
    def test_selector(self, rng):
        basis = np.stack([random_block(rng, 4, 2) for _ in range(3)])
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(basis_combine(basis, e1), basis[0])

    def test_zero_coeffs(self, rng):
        basis = np.stack([random_block(rng, 4, 2) for _ in range(3)])
        assert np.array_equal(basis_combine(basis, np.zeros(3)), np.zeros((4, 2)))

    def test_matches_kronecker_assembly(self, rng):
        n, s, m = 5, 2, 4
        basis = np.stack([random_block(rng, n, s) for _ in range(m)])
        y = rng.standard_normal(m)
        stacked = np.hstack(basis)  # n x (m s)
        expect = stacked @ np.kron(y[:, None], np.eye(s))
        got = basis_combine(basis, y)
        assert np.allclose(got, expect, rtol=1e-13)

    def test_length_mismatch(self, rng):
        basis = random_block(rng, 3, 2)[None]
        # a coefficient matrix is rejected too: the coefficients are one vector
        for y in (np.ones(2), np.ones((1, 2))):
            with pytest.raises(ValueError):
                basis_combine(basis, y)


class TestStackedBlocks:
    @pytest.mark.parametrize("kind", ["identity", "diagonal", "elementwise"])
    def test_stack_and_list_agree_with_pairwise_inner(self, kind, rng):
        # the Gram of two stacks against the pairwise inner products of
        # their blocks taken one by one
        n, s = 6, 3
        weight = {"identity": Weight.identity(),
                  "diagonal": Weight.diagonal(rng.uniform(0.2, 3.0, n), s),
                  "elementwise": Weight(rng.uniform(0.2, 3.0, (n, s)))}[kind]
        u = [random_block(rng, n, s) for _ in range(3)]
        v = [random_block(rng, n, s) for _ in range(2)]
        expect = np.array([[weighted_inner(ui, vj, weight) for vj in v] for ui in u])
        assert np.allclose(diamond_product(np.stack(u), np.stack(v), weight), expect, rtol=1e-13)

    def test_weight_checks_trailing_dimensions(self, rng):
        op = random_operator(rng, 4, 2)
        stack = np.stack([random_block(rng, 4, 2) for _ in range(3)])
        basis = np.empty((3, 4, 2))
        basis[0] = stack[0]
        # the transposed (s, n) weight has the flat size of the blocks
        for weight in (Weight.diagonal(np.ones(3), 2), Weight(np.ones((4, 3))),
                       Weight(np.ones((2, 4)))):
            with pytest.raises(ValueError, match="weight shape"):
                weighted_inner(stack[0], stack[1], weight)
            with pytest.raises(ValueError, match="weight shape"):
                diamond_product(stack, stack, weight)
            with pytest.raises(ValueError, match="weight shape"):
                arnoldi_extend(basis, np.zeros((1, 0)), op, weight)


class TestAsBlock:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_block(np.array([[np.nan, 1.0]]), (1, 2))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            as_block(np.ones(3), (3, 1))

    def test_c_ordered_without_copy(self):
        c_ordered = np.ones((3, 2))
        assert as_block(c_ordered, (3, 2)) is c_ordered
        for x in (np.asfortranarray(c_ordered), np.ones((3, 2), dtype=np.float32),
                  [[1, 2], [3, 4]]):
            b = as_block(x, np.shape(x))
            assert b.flags.c_contiguous and b.dtype == np.float64
            assert np.array_equal(b, x)

    @pytest.mark.parametrize("x, message", [
        (np.ones(6), r"^start block must be 2-dimensional, got shape \(6,\)$"),
        (np.full((2, 3), np.inf), "^start block contains non-finite entries$"),
        (np.ones((2, 3)), r"^start block shape \(2, 3\) does not match operator \(3, 2\)$"),
    ])
    def test_contract_checked_in_order(self, x, message):
        # 2-dimensional, then finite, then the operator's shape: the inf
        # block is refused for its entries before its shape
        with pytest.raises(ValueError, match=message):
            as_block(x, (3, 2), "start block")


def _snapshot(mat):
    """Every byte of ``mat`` that as_csr could change."""
    if isinstance(mat, list):
        return repr(mat)
    if mat.format == "coo":
        return [a.tobytes() for a in (mat.data, *mat.coords)]
    return [a.tobytes() for a in (mat.data, mat.indices, mat.indptr)]


class TestAsCsr:
    def test_canonical_float64_csr_array_is_kept(self):
        mat = sp.csr_array(np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]]))
        assert as_csr(mat) is mat
        a = fdm_matrix(FdmSpec(4, lambda x, y: x * y, 1.0, 2.0))
        b = fdm_matrix(FdmSpec(2, 0.5, 0.0, 0.0))
        op = SylvesterOperator(a, b)
        assert op.a is a and op.b is b

    @pytest.mark.parametrize("kind", ["csr_matrix", "coo_array", "list", "integer",
                                      "unsorted", "duplicates"])
    def test_other_inputs_are_converted_on_a_copy(self, kind):
        dense = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]])
        mat = {
            "csr_matrix": lambda: sp.csr_matrix(dense),
            "coo_array": lambda: sp.coo_array(dense),
            "list": lambda: dense.tolist(),
            "integer": lambda: sp.csr_array(dense.astype(np.int64)),
            # row 0 lists column 2 before column 0
            "unsorted": lambda: sp.csr_array(([1.0, 2.0, 3.0, 4.0, 5.0], [2, 0, 1, 0, 2],
                                              [0, 2, 3, 5]), shape=(3, 3)),
            # row 2 stores 4 as 1 + 3 in column 0
            "duplicates": lambda: sp.csr_array(([2.0, 1.0, 3.0, 1.0, 3.0, 5.0],
                                                [0, 2, 1, 0, 0, 2], [0, 2, 3, 6]),
                                               shape=(3, 3)),
        }[kind]()
        before = _snapshot(mat)
        m = as_csr(mat)
        assert m is not mat and type(m) is sp.csr_array and m.dtype == np.float64
        # canonical as scipy finds it on a fresh array, not from a cached flag
        assert sp.csr_array((m.data, m.indices, m.indptr), shape=m.shape).has_canonical_format
        assert np.array_equal(m.toarray(), dense)
        assert _snapshot(mat) == before

    @pytest.mark.parametrize("mat", [
        sp.csr_array(np.array([[1.0, np.inf], [0.0, 2.0]])),
        [[1.0, np.nan], [0.0, 2.0]],
    ])
    def test_non_finite_input_raises_naming_it(self, mat):
        with pytest.raises(ValueError, match="^coefficient matrix contains non-finite entries$"):
            as_csr(mat, name="coefficient matrix")


def test_input_refusals():
    with pytest.raises(ValueError, match=r"B must be square, got \(2, 3\)"):
        SylvesterOperator(np.eye(4), np.ones((2, 3)))
    with pytest.raises(ValueError, match="coefficient matrix contains non-finite entries"):
        as_csr(sp.csr_array(np.array([[1.0, np.inf], [0.0, 2.0]])), name="coefficient matrix")


def test_reprs():
    assert repr(Weight.identity()) == "Weight(shape=None, tag='identity')"
    assert repr(Weight.diagonal(np.ones(3), 2, tag="mean")) == "Weight(shape=(3, 2), tag='mean')"
    assert repr(SylvesterOperator(np.eye(3), np.eye(2))) == "SylvesterOperator(n=3, s=2)"
