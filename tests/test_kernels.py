"""Tests for the dense float32 primitives."""

import math

import numpy as np
import pytest

from chunkvox.errors import DomainError, ShapeError
from chunkvox.kernels import (
    layer_norm,
    leaky_relu,
    matmul,
    relu,
    softmax,
)


class TestMatmul:
    def test_hand_worked_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        b = np.array([[5.0], [6.0]], dtype=np.float32)
        out = matmul(a, b)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, [[17.0], [39.0]], rtol=0, atol=0)

    def test_inner_dim_mismatch_raises(self):
        a = np.zeros((2, 3), dtype=np.float32)
        b = np.zeros((4, 2), dtype=np.float32)
        with pytest.raises(ShapeError):
            matmul(a, b)

    def test_non_2d_raises(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((3,), dtype=np.float32), np.zeros((3, 2), dtype=np.float32))

    def test_batched_product_matches_each_slice(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 5, 4)).astype(np.float32)
        b = rng.normal(size=(3, 4, 6)).astype(np.float32)
        out = matmul(a, b)
        assert out.shape == (3, 5, 6)
        for i in range(3):
            np.testing.assert_allclose(out[i], a[i] @ b[i], rtol=1e-6, atol=1e-6)

    def test_batch_mismatch_raises(self):
        a = np.zeros((2, 5, 4), dtype=np.float32)
        with pytest.raises(ShapeError, match="batch"):
            matmul(a, np.zeros((3, 4, 6), dtype=np.float32))
        with pytest.raises(ShapeError, match="inner"):
            matmul(a, np.zeros((2, 5, 6), dtype=np.float32))
        with pytest.raises(ShapeError):
            matmul(a, np.zeros((4, 6), dtype=np.float32))

    def test_out_may_be_a_column_view(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 4)).astype(np.float32)
        b = rng.normal(size=(4, 3)).astype(np.float32)
        buf = np.zeros((5, 6), dtype=np.float32)
        got = matmul(a, b, out=buf[:, 3:])
        assert got.base is buf
        np.testing.assert_allclose(buf[:, 3:], a @ b, rtol=1e-6, atol=1e-6)
        assert not buf[:, :3].any()


class TestLayerNorm:
    def test_rows_become_standardized(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(7, 33)).astype(np.float32) * 5.0 + 2.0
        gamma = np.ones(33, dtype=np.float32)
        beta = np.zeros(33, dtype=np.float32)
        y = layer_norm(x, gamma, beta)
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-5)
        np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-3)

    def test_affine_params_applied(self):
        x = np.array([[1.0, 3.0]], dtype=np.float32)
        gamma = np.array([2.0, 2.0], dtype=np.float32)
        beta = np.array([10.0, 10.0], dtype=np.float32)
        y = layer_norm(x, gamma, beta)
        # centered = [-1, 1]; var = 1; inv = 1/sqrt(1 + 1e-5)
        inv = 1.0 / math.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(y, [[10.0 - 2.0 * inv, 10.0 + 2.0 * inv]], atol=1e-6)

    def test_constant_row_is_driven_by_eps(self):
        x = np.full((1, 4), 3.0, dtype=np.float32)
        y = layer_norm(x, np.ones(4, np.float32), np.zeros(4, np.float32))
        np.testing.assert_allclose(y, 0.0, atol=1e-6)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_the_mean_formula(self, offset, order):
        """Within 1e-6 of the np.mean formula on the same array; measured 0.0,
        since the sums are the ones np.mean takes.  Row-strided (F-order)
        input is what the smoothing norms get."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(300, 192)) * rng.uniform(0.1, 10, size=(300, 1)) + offset
        x = np.asarray(x, dtype=np.float32, order=order)
        gamma = rng.normal(size=192).astype(np.float32)
        beta = rng.normal(size=192).astype(np.float32)
        centered = x - x.mean(axis=1, keepdims=True)
        var = np.mean(centered * centered, axis=1, keepdims=True)
        want = (centered * (1.0 / np.sqrt(var + np.float32(1e-5)))) * gamma + beta
        before = x.copy()
        np.testing.assert_allclose(layer_norm(x, gamma, beta), want, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(x, before)

    def test_out_may_be_the_input(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 8)).astype(np.float32)
        gamma, beta = np.ones(8, np.float32), np.zeros(8, np.float32)
        want = layer_norm(x, gamma, beta)
        got = layer_norm(x, gamma, beta, out=x)
        assert got is x
        np.testing.assert_array_equal(x, want)

    def test_zero_feature_dim_raises(self):
        with pytest.raises(ShapeError):
            layer_norm(
                np.zeros((3, 0), np.float32), np.zeros(0, np.float32), np.zeros(0, np.float32)
            )

    def test_affine_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            layer_norm(np.zeros((2, 4), np.float32), np.ones(3, np.float32), np.zeros(4, np.float32))


class TestSoftmax:
    def test_log_integer_logits(self):
        x = np.log(np.array([[1.0, 2.0, 3.0]])).astype(np.float32)
        y = softmax(x, axis=-1)
        np.testing.assert_allclose(y, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-6)

    def test_masked_positions_are_exact_zero(self):
        x = np.array([[0.0, -np.inf, 1.0]], dtype=np.float32)
        y = softmax(x, axis=-1)
        assert y[0, 1] == 0.0
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)

    def test_rows_sum_to_one_under_shift(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 9)).astype(np.float32)
        a = softmax(x)
        b = softmax(x + 100.0)
        np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_fully_masked_row_raises(self):
        x = np.full((2, 3), -np.inf, dtype=np.float32)
        x[0, 0] = 1.0
        with pytest.raises(DomainError):
            softmax(x)

    def test_error_names_nan_apart_from_masking(self):
        x = np.zeros((3, 3), dtype=np.float32)
        x[0] = -np.inf
        with pytest.raises(DomainError, match="every position masked"):
            softmax(x)
        x[2, 1] = np.nan
        with pytest.raises(DomainError, match="holds NaN"):
            softmax(x)
        x[2, 1] = np.inf
        with pytest.raises(DomainError, match=r"holds \+inf"):
            softmax(x)


    def test_batched_heads_keep_the_contract(self):
        """3-D scores, as attention makes them: masks map to exact zeros,
        the input is left as it was, and every error case still raises."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 4, 7)).astype(np.float32)
        x[1, 2, [0, 5]] = -np.inf
        before = x.copy()
        y = softmax(x, axis=-1)
        np.testing.assert_array_equal(x, before)
        assert y[1, 2, 0] == 0.0 and y[1, 2, 5] == 0.0
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)
        for h in range(2):
            np.testing.assert_allclose(y[h], softmax(x[h]), rtol=0, atol=0)
        cases = [
            (np.nan, "holds NaN"),
            (np.inf, r"holds \+inf"),
            (-np.inf, "every position masked"),
        ]
        for value, message in cases:
            bad = x.copy()
            bad[1, 3] = -np.inf
            bad[1, 3, 2] = value
            with pytest.raises(DomainError, match=message):
                softmax(bad, axis=-1)


    def test_out_may_be_the_input_and_is_untouched_on_error(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 5)).astype(np.float32)
        want = softmax(x)
        assert softmax(x, out=x) is x
        np.testing.assert_array_equal(x, want)
        bad = rng.normal(size=(2, 3, 5)).astype(np.float32)
        bad[0, 1, 2] = np.nan
        before = bad.copy()
        with pytest.raises(DomainError, match="holds NaN"):
            softmax(bad, out=bad)
        np.testing.assert_array_equal(bad, before)


class TestActivations:
    def test_leaky_relu_slope(self):
        x = np.array([-10.0, -1.0, 0.0, 2.0], dtype=np.float32)
        np.testing.assert_allclose(leaky_relu(x), [-1.0, -0.1, 0.0, 2.0], atol=1e-7)

    def test_relu_and_tanh(self):
        x = np.array([-2.0, 0.5], dtype=np.float32)
        np.testing.assert_allclose(relu(x), [0.0, 0.5])

    def test_relu_in_place(self):
        x = np.array([-2.0, 0.5, -0.0], dtype=np.float32)
        assert relu(x, out=x) is x
        np.testing.assert_array_equal(x, [0.0, 0.5, 0.0])

    def test_float32_preserved(self):
        x = np.array([-1.0, 1.0], dtype=np.float32)
        for fn in (relu, leaky_relu):
            assert fn(x).dtype == np.float32


class TestLeakyRelu:
    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45], dtype=np.float32)

    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 1.0])
    def test_bitwise_equal_to_the_masked_form(self, alpha):
        rng = np.random.default_rng(17)
        x = np.concatenate([rng.normal(scale=10.0, size=4096).astype(np.float32), self.SPECIAL])
        before = x.tobytes()
        got = leaky_relu(x, alpha)
        want = np.where(x >= 0, x, np.float32(alpha) * x)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert x.tobytes() == before

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5, math.nan])
    def test_slope_outside_the_unit_interval_raises(self, alpha):
        with pytest.raises(DomainError, match="slope"):
            leaky_relu(self.SPECIAL, alpha)
