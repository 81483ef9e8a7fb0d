"""Unit tests for the numpy neural-network layers, including gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.initializers import glorot_uniform, he_normal
from repro.nn.layers import Dense, Module, ReLU, sigmoid
from repro.nn.network import Sequential, mlp
from repro.nn.parameter import Parameter


def numerical_gradient(func, x, eps=1e-6):
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = func()
        flat[i] = original - eps
        minus = func()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def squared_error(output: np.ndarray, target: np.ndarray) -> float:
    """``0.5 * sum((output - target)**2)``, whose gradient in ``output`` is ``output - target``."""
    return 0.5 * float(np.sum((output - target) ** 2))


def check_input_gradient(module: Module, x: np.ndarray, atol=1e-5):
    """Compare the module's backward pass against finite differences."""
    target = np.zeros_like(module.forward(x))

    def scalar():
        return squared_error(module.forward(x), target)

    expected = numerical_gradient(scalar, x)
    output = module.forward(x)
    analytic = module.backward(output - target)
    np.testing.assert_allclose(analytic, expected, atol=atol)


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, rng=0)
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_input_gradient(self):
        layer = Dense(4, 3, rng=0)
        check_input_gradient(layer, np.random.default_rng(0).normal(size=(6, 4)))

    def test_parameter_gradients(self):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, rng=0)
        x = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 2))

        def scalar():
            return squared_error(layer.forward(x), target)

        expected_w = numerical_gradient(scalar, layer.weight.value)
        expected_b = numerical_gradient(scalar, layer.bias.value)
        layer.zero_grad()
        layer.backward(layer.forward(x) - target)
        np.testing.assert_allclose(layer.weight.grad, expected_w, atol=1e-5)
        np.testing.assert_allclose(layer.bias.grad, expected_b, atol=1e-5)

    def test_gradient_accumulates_until_zeroed(self):
        layer = Dense(2, 2, rng=0)
        x = np.ones((1, 2))
        grad = np.ones((1, 2))
        layer.forward(x)
        layer.backward(grad)
        first = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(grad)
        np.testing.assert_allclose(layer.weight.grad, 2 * first)
        layer.zero_grad()
        np.testing.assert_allclose(layer.weight.grad, 0.0)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Dense(0, 3)
        with pytest.raises(ValueError):
            Dense(3, 3, initializer="unknown")

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            Dense(2, 2, rng=0).backward(np.ones((1, 2)))

    def test_bias_starts_at_zero_and_parameters_are_named(self):
        layer = Dense(3, 2, rng=0, name="head")
        np.testing.assert_array_equal(layer.bias.value, np.zeros(2))
        assert [p.name for p in layer.parameters()] == ["head.weight", "head.bias"]

    def test_same_seed_same_weights(self):
        weights = Dense(3, 4, rng=5).weight.value
        np.testing.assert_array_equal(Dense(3, 4, rng=5).weight.value, weights)
        assert not np.allclose(Dense(3, 4, rng=6).weight.value, weights)

    def test_integer_inputs_are_promoted_to_float64(self):
        layer = Dense(2, 3, rng=0)
        out = layer.forward(np.array([[1, 2], [3, 4]]))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, layer.forward(np.array([[1.0, 2.0], [3.0, 4.0]])))

    def test_initializer_choice(self):
        """``"glorot"`` stays inside its uniform bound; He normal draws exceed it."""
        limit = np.sqrt(6.0 / (50 + 50))
        assert np.abs(Dense(50, 50, rng=0, initializer="glorot").weight.value).max() <= limit
        assert np.abs(Dense(50, 50, rng=0, initializer="he").weight.value).max() > limit


class TestActivations:
    """ReLU is the network's only activation; the Pf head applies ``sigmoid`` to its logits."""

    def test_gradient(self):
        x = np.random.default_rng(0).normal(size=(4, 5)) * 2.0
        check_input_gradient(ReLU(), x)

    def test_shape_preserved(self):
        x = np.random.default_rng(1).normal(size=(3, 7))
        assert ReLU().forward(x).shape == x.shape

    def test_backward_passes_gradient_only_where_input_is_positive(self):
        relu = ReLU()
        relu.forward(np.array([[-2.0, 0.0, 3.0]]))
        grad = relu.backward(np.array([[5.0, 5.0, 5.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 5.0]])

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.ones((1, 2)))

    def test_relu_has_no_parameters(self):
        relu = ReLU()
        assert relu.parameters() == []
        relu.zero_grad()  # a no-op, not an error


class TestActivationValues:
    def test_relu_clips_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 2.0]])

    def test_sigmoid_range_and_stability(self):
        values = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert values[0] == pytest.approx(0.0)
        assert values[1] == pytest.approx(0.5)
        assert values[2] == pytest.approx(1.0)
        assert np.all(np.isfinite(values))

    def test_sigmoid_matches_logistic_formula(self):
        x = np.linspace(-20.0, 20.0, 41)
        np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)

    def test_sigmoid_is_symmetric_about_zero(self):
        x = np.linspace(-30.0, 30.0, 61)
        np.testing.assert_allclose(sigmoid(-x), 1.0 - sigmoid(x), atol=1e-15)

    def test_sigmoid_keeps_shape(self):
        assert sigmoid(np.zeros((2, 3))).shape == (2, 3)
        assert float(sigmoid(0.0)) == 0.5

    def test_sigmoid_is_increasing(self):
        values = sigmoid(np.linspace(-10.0, 10.0, 101))
        assert np.all(np.diff(values) > 0)


class TestNetworkGradients:
    """Backpropagation through the surrogate's whole ReLU MLP."""

    def test_input_gradient(self):
        network = mlp([3, 6, 5, 2], rng=0)
        check_input_gradient(network, np.random.default_rng(3).normal(size=(4, 3)))

    def test_parameter_gradients(self):
        rng = np.random.default_rng(4)
        network = mlp([3, 6, 2], rng=0)
        x = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 2))

        def scalar():
            return squared_error(network.forward(x), target)

        expected = [numerical_gradient(scalar, p.value) for p in network.parameters()]
        network.zero_grad()
        network.backward(network.forward(x) - target)
        for param, grad in zip(network.parameters(), expected):
            np.testing.assert_allclose(param.grad, grad, atol=1e-5, err_msg=param.name)

    def test_parameters_follow_module_order(self):
        first, second = Dense(2, 3, rng=0, name="a"), Dense(3, 1, rng=0, name="b")
        network = Sequential(first, ReLU(), second)
        assert network.parameters() == [first.weight, first.bias, second.weight, second.bias]


class TestInitializers:
    def test_he_normal_scale(self):
        weights = he_normal(200, 300, rng=0)
        assert weights.shape == (200, 300)
        assert weights.mean() == pytest.approx(0.0, abs=0.005)
        assert weights.std() == pytest.approx(np.sqrt(2.0 / 200), rel=0.02)

    def test_glorot_uniform_bounds(self):
        weights = glorot_uniform(30, 20, rng=0)
        limit = np.sqrt(6.0 / (30 + 20))
        assert weights.shape == (30, 20)
        assert np.abs(weights).max() <= limit
        assert np.abs(weights).max() > 0.95 * limit  # fills its range

    @pytest.mark.parametrize("initializer", [he_normal, glorot_uniform], ids=["he", "glorot"])
    def test_seeded(self, initializer):
        np.testing.assert_array_equal(initializer(4, 3, rng=7), initializer(4, 3, rng=7))
        assert not np.allclose(initializer(4, 3, rng=7), initializer(4, 3, rng=8))


class TestParameter:
    def test_value_is_float64_and_grad_starts_at_zero(self):
        param = Parameter(np.array([[1, 2, 3]]))
        assert param.value.dtype == np.float64
        assert param.shape == (1, 3)
        np.testing.assert_array_equal(param.grad, np.zeros((1, 3)))

    def test_zero_grad_resets_in_place(self):
        param = Parameter(np.zeros(2))
        grad = param.grad
        grad += 4.0
        param.zero_grad()
        assert param.grad is grad
        np.testing.assert_array_equal(param.grad, np.zeros(2))
