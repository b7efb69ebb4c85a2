"""Residual-driven weighting strategies."""

import warnings

import numpy as np
import pytest

from sylgmres import WeightStrategy
from sylgmres.weighting import STRATEGY_KINDS, make_weight


R_EXAMPLE = np.array([[3.0, 5.0], [-2.0, -4.0]])


def assert_row_constant(w, s):
    """A diagonal weight: one positive entry per row, repeated over s columns."""
    assert w.data.shape[1] == s
    assert np.array_equal(w.data, np.repeat(w.data[:, :1], s, axis=1))


class TestMakeWeight:
    def test_identity(self):
        w = make_weight(WeightStrategy("identity"))
        assert w.data is None and w.tag == "identity"

    def test_max_col_by_hand(self):
        # column norms sqrt(13) and sqrt(41): pick column 2
        w = make_weight(WeightStrategy("max-col"), residual=R_EXAMPLE)
        assert_row_constant(w, 2)
        assert np.allclose(w.data[:, 0], [5.0 / np.sqrt(41.0), 4.0 / np.sqrt(41.0)])

    def test_min_col_by_hand(self):
        w = make_weight(WeightStrategy("min-col"), residual=R_EXAMPLE)
        assert_row_constant(w, 2)
        assert np.allclose(w.data[:, 0], [3.0 / np.sqrt(13.0), 2.0 / np.sqrt(13.0)])

    def test_mean_by_hand(self):
        w = make_weight(WeightStrategy("mean"), residual=R_EXAMPLE)
        assert_row_constant(w, 2)
        assert np.allclose(w.data[:, 0], [4.0, 3.0])

    def test_hadamard(self, rng):
        c = rng.random((6, 3)) + 0.1
        w = make_weight(WeightStrategy("hadamard"), rhs=c)
        assert w.tag == "hadamard"
        expect = np.sqrt(18.0) * np.abs(c) / np.linalg.norm(c)
        assert np.allclose(w.data, expect)

    def test_random_is_seeded_uniform(self):
        r = np.zeros((50, 2)) + 1.0
        w1 = make_weight(WeightStrategy("random", seed=42), residual=r)
        w2 = make_weight(WeightStrategy("random", seed=42), residual=r)
        assert np.array_equal(w1.data, w2.data)
        assert_row_constant(w1, 2)
        assert w1.data.shape == (50, 2)
        assert np.all(w1.data > 0.0) and np.all(w1.data < 2.0)
        w3 = make_weight(WeightStrategy("random", seed=43), residual=r)
        assert not np.array_equal(w1.data, w3.data)

    def test_only_residual_driven_kinds_follow_the_residual(self):
        follows = {kind: WeightStrategy(kind, seed=1).follows_residual
                   for kind in STRATEGY_KINDS}
        assert follows == {"identity": False, "max-col": True, "min-col": True,
                           "mean": True, "hadamard": False, "random": False}

    def test_random_requires_seed(self):
        with pytest.raises(ValueError):
            WeightStrategy("random")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            WeightStrategy("colmax")


class TestFlooringAndDegeneracy:
    @pytest.mark.parametrize("kind", ["max-col", "min-col", "mean"])
    def test_output_strictly_positive_with_zero_rows(self, kind, rng):
        r = rng.standard_normal((8, 3))
        r[2, :] = 0.0  # forces a zero weight entry before flooring
        r[5, :] = 0.0
        w = make_weight(WeightStrategy(kind), residual=r)
        assert np.all(w.data > 0.0)

    @pytest.mark.parametrize("s", range(1, 8))
    def test_mean_is_one_gemv_bit_for_bit(self, s, rng):
        # the row means are one matrix-vector product with the vector of
        # 1/s, in C and in F order, so the weight is that product exactly
        r = rng.standard_normal((40, s)) * 10.0 ** rng.integers(-150, 150, (40, s))
        r[::6] = 0.0
        r[1] = 1.0
        r[1, -1] = 1.0 - s  # cancels exactly
        for res in (r, np.asfortranarray(r)):
            d = np.abs(res @ np.full(s, 1 / s))
            expect = np.maximum(d, 1e-12 * d.max())
            w = make_weight(WeightStrategy("mean"), residual=res)
            assert np.array_equal(w.data, np.repeat(expect[:, None], s, axis=1))

    def test_mean_cancellation_floored(self):
        r = np.array([[1.0, -1.0], [2.0, 1.0]])  # first row mean is exactly 0
        w = make_weight(WeightStrategy("mean"), residual=r)
        assert_row_constant(w, 2)
        assert w.data[0, 0] == pytest.approx(1e-12 * 1.5)
        assert w.data[1, 0] == pytest.approx(1.5)

    def test_zero_residual_degrades_to_identity(self):
        r = np.zeros((4, 2))
        w = make_weight(WeightStrategy("mean"), residual=r)
        assert w.data is None
        assert w.tag == "identity[degenerate:mean]"

    def test_exactly_zero_column_degrades_min_col_to_identity(self):
        # the smallest column norm is 0: no column can be normalized
        r = np.array([[3.0, 0.0], [-2.0, 0.0], [1.0, 0.0]])
        w = make_weight(WeightStrategy("min-col"), residual=r)
        assert w.data is None and w.tag == "identity[degenerate:min-col]"

    def test_exactly_cancelling_rows_degrade_mean_to_identity(self):
        # every row mean is exactly 0 although the residual is not small
        r = np.array([[1.0, -1.0], [2.0, -2.0]])
        w = make_weight(WeightStrategy("mean"), residual=r)
        assert w.data is None and w.tag == "identity[degenerate:mean]"

    @pytest.mark.parametrize("tiny", [1e-312, 4e-312])
    def test_subnormal_row_means_degrade_mean_to_identity(self, tiny):
        # max |r| = 1, but the largest row mean is subnormal: FLOOR_REL times
        # it underflows to 0, which no weight entry may be
        r = np.array([[1.0, -1.0], [tiny, 0.0]])
        w = make_weight(WeightStrategy("mean"), residual=r)
        assert w.data is None and w.tag == "identity[degenerate:mean]"

    def test_tiny_residual_degrades_to_identity(self):
        r = np.full((4, 2), 1e-310)
        w = make_weight(WeightStrategy("max-col"), residual=r)
        assert w.data is None and w.tag == "identity[degenerate:max-col]"

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    @pytest.mark.parametrize("kind", ["max-col", "min-col", "hadamard"])
    def test_normalized_weights_do_not_depend_on_scale(self, kind, scale, rng):
        # the column norms' squares would under- or overflow at these scales
        r = rng.standard_normal((8, 3))
        r[:, 1] *= 4.0
        unit = make_weight(WeightStrategy(kind), residual=r, rhs=r)
        w = make_weight(WeightStrategy(kind), residual=scale * r, rhs=scale * r)
        assert w.tag == unit.tag == kind
        assert np.allclose(w.data, unit.data, rtol=1e-14, atol=0.0)

    def test_hadamard_zero_rhs(self):
        w = make_weight(WeightStrategy("hadamard"), rhs=np.zeros((3, 2)))
        assert w.data is None and w.tag == "identity[degenerate:hadamard]"


class TestInvariants:
    @pytest.mark.parametrize("kind", ["max-col", "min-col"])
    def test_unit_norm_before_flooring(self, kind, rng):
        r = rng.standard_normal((10, 4)) + 0.5  # no zero entries
        w = make_weight(WeightStrategy(kind), residual=r)
        assert_row_constant(w, 4)
        assert np.linalg.norm(w.data[:, 0]) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("kind", ["max-col", "min-col"])
    @pytest.mark.parametrize("alpha", [0.5, 3.0, 1e6])
    def test_scale_invariance(self, kind, alpha, rng):
        r = rng.standard_normal((7, 3))
        w1 = make_weight(WeightStrategy(kind), residual=r)
        w2 = make_weight(WeightStrategy(kind), residual=alpha * r)
        assert np.allclose(w1.data, w2.data, rtol=1e-13)

    def test_mean_not_normalized(self, rng):
        r = rng.standard_normal((7, 3))
        w1 = make_weight(WeightStrategy("mean"), residual=r)
        w2 = make_weight(WeightStrategy("mean"), residual=2.0 * r)
        assert np.allclose(2.0 * w1.data, w2.data, rtol=1e-13)

    def test_tie_broken_by_smallest_index(self):
        r = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])  # all column norms equal
        w_max = make_weight(WeightStrategy("max-col"), residual=r)
        assert np.argmax(w_max.data[:, 0]) == 0  # column 0 selected: |r[:,0]| = (1, 0)
        w_min = make_weight(WeightStrategy("min-col"), residual=r)
        assert np.argmax(w_min.data[:, 0]) == 0

    @pytest.mark.parametrize("kind", ["max-col", "min-col", "mean", "hadamard"])
    def test_determinism(self, kind, rng):
        r = rng.standard_normal((6, 3))
        c = rng.random((6, 3))
        a = make_weight(WeightStrategy(kind), residual=r, rhs=c)
        b = make_weight(WeightStrategy(kind), residual=r, rhs=c)
        assert a.tag == b.tag
        assert np.array_equal(a.data, b.data)

    def test_missing_inputs_rejected(self):
        with pytest.raises(ValueError):
            make_weight(WeightStrategy("mean"))
        with pytest.raises(ValueError):
            make_weight(WeightStrategy("hadamard"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind, message", [
    ("mean", "^weight entries must be finite and > 0$"),
    ("max-col", "^residual contains non-finite entries$"),
    ("min-col", "^residual contains non-finite entries$"),
    ("hadamard", "^right-hand side contains non-finite entries$"),
])
def test_non_finite_input_raises_before_dividing(kind, message, bad):
    # an inf divided by the largest entry or by the norm is inf / inf, whose
    # "invalid value" RuntimeWarning would come before the ValueError
    x = np.ones((5, 2))
    x[3, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            make_weight(WeightStrategy(kind), residual=x, rhs=x)


def test_input_refusals():
    with pytest.raises(ValueError, match="residual must be an n x s block"):
        make_weight(WeightStrategy("mean"), residual=np.ones(4))
