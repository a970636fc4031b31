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
    tanh,
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


class TestActivations:
    def test_leaky_relu_slope(self):
        x = np.array([-10.0, -1.0, 0.0, 2.0], dtype=np.float32)
        np.testing.assert_allclose(leaky_relu(x), [-1.0, -0.1, 0.0, 2.0], atol=1e-7)

    def test_relu_and_tanh(self):
        x = np.array([-2.0, 0.5], dtype=np.float32)
        np.testing.assert_allclose(relu(x), [0.0, 0.5])
        np.testing.assert_allclose(tanh(x), np.tanh(x), atol=1e-7)

    def test_float32_preserved(self):
        x = np.array([-1.0, 1.0], dtype=np.float32)
        for fn in (relu, leaky_relu, tanh):
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
