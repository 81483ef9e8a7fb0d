"""Unit tests for losses, optimisers, the Sequential container and the fit loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import Dense, ReLU
from repro.nn.losses import BCEWithLogitsLoss, HuberLoss
from repro.nn.network import Sequential, fit, iterate_minibatches, mlp
from repro.nn.optimizers import Adam
from repro.nn.parameter import Parameter
from repro.nn.serialization import load_state_dict, state_dict


def finite_difference(loss, predictions, targets, eps=1e-6):
    """Central-difference gradient of ``loss.value`` w.r.t. ``predictions``."""
    grad = np.zeros_like(predictions)
    for index in np.ndindex(predictions.shape):
        plus, minus = predictions.copy(), predictions.copy()
        plus[index] += eps
        minus[index] -= eps
        grad[index] = (loss.value(plus, targets) - loss.value(minus, targets)) / (2 * eps)
    return grad


class TestLosses:
    def test_huber_quadratic_then_linear(self):
        loss = HuberLoss(delta=1.0)
        small = loss.value(np.array([0.5]), np.array([0.0]))
        assert small == pytest.approx(0.125)
        large = loss.value(np.array([3.0]), np.array([0.0]))
        assert large == pytest.approx(1.0 * (3.0 - 0.5))

    def test_huber_gradient_clipped(self):
        loss = HuberLoss(delta=1.0)
        grad = loss.gradient(np.array([5.0, -5.0, 0.2]), np.zeros(3))
        np.testing.assert_allclose(grad, np.array([1.0, -1.0, 0.2]) / 3.0)

    def test_huber_robust_to_outliers_compared_to_mse(self):
        pred = np.array([0.0, 0.0, 100.0])
        target = np.zeros(3)
        assert HuberLoss().value(pred, target) < np.mean((pred - target) ** 2)

    def test_bce_matches_manual_computation(self):
        loss = BCEWithLogitsLoss()
        logits = np.array([0.0, 2.0, -2.0])
        targets = np.array([1.0, 1.0, 0.0])
        probs = 1.0 / (1.0 + np.exp(-logits))
        expected = -np.mean(targets * np.log(probs) + (1 - targets) * np.log(1 - probs))
        assert loss.value(logits, targets) == pytest.approx(expected)

    def test_bce_stable_for_extreme_logits(self):
        loss = BCEWithLogitsLoss()
        value = loss.value(np.array([1000.0, -1000.0]), np.array([1.0, 0.0]))
        assert np.isfinite(value)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_bce_gradient_sign(self):
        loss = BCEWithLogitsLoss()
        grad = loss.gradient(np.array([0.0]), np.array([1.0]))
        assert grad[0] < 0  # increasing the logit decreases the loss

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            HuberLoss().value(np.zeros(3), np.zeros(4))

    def test_huber_invalid_delta(self):
        with pytest.raises(ValueError):
            HuberLoss(delta=0.0)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_huber_gradient_matches_finite_differences(self, delta):
        # Errors on both branches, none at the kink |e| = delta.
        predictions = np.array([[-3.1, -0.3], [0.05, 0.4], [1.7, 4.2]])
        targets = np.zeros_like(predictions)
        loss = HuberLoss(delta=delta)
        expected = finite_difference(loss, predictions, targets)
        np.testing.assert_allclose(loss.gradient(predictions, targets), expected, atol=1e-8)

    def test_huber_is_continuous_at_delta(self):
        loss = HuberLoss(delta=2.0)
        at = loss.value(np.array([2.0]), np.zeros(1))
        assert at == pytest.approx(0.5 * 2.0**2)
        assert loss.value(np.array([2.0 - 1e-9]), np.zeros(1)) == pytest.approx(at)
        assert loss.value(np.array([2.0 + 1e-9]), np.zeros(1)) == pytest.approx(at)

    def test_bce_gradient_matches_finite_differences(self):
        logits = np.array([[-4.0, -0.5], [0.0, 0.7], [2.5, 9.0]])
        targets = np.array([[0.0, 0.25], [0.5, 1.0], [0.9, 0.1]])  # soft Pf targets
        loss = BCEWithLogitsLoss()
        expected = finite_difference(loss, logits, targets)
        np.testing.assert_allclose(loss.gradient(logits, targets), expected, atol=1e-8)

    def test_bce_soft_target_minimised_at_its_logit(self):
        """For a fractional target t the loss is smallest at ``logit(t)``, where it equals H(t)."""
        loss = BCEWithLogitsLoss()
        target = np.array([0.3])
        best = np.log(target / (1.0 - target))
        np.testing.assert_allclose(loss.gradient(best, target), 0.0, atol=1e-15)
        entropy = -(0.3 * np.log(0.3) + 0.7 * np.log(0.7))
        assert loss.value(best, target) == pytest.approx(entropy)
        assert loss.value(best + 0.1, target) > loss.value(best, target)
        assert loss.value(best - 0.1, target) > loss.value(best, target)

    def test_gradients_are_of_the_batch_mean(self):
        predictions = np.full((4, 3), 0.2)
        targets = np.zeros((4, 3))
        np.testing.assert_allclose(HuberLoss().gradient(predictions, targets), 0.2 / 12)
        np.testing.assert_allclose(
            BCEWithLogitsLoss().gradient(np.zeros((4, 3)), targets), 0.5 / 12
        )

    def test_bce_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            BCEWithLogitsLoss().gradient(np.zeros((2, 1)), np.zeros(2))


class TestOptimizers:
    def _quadratic_problem(self):
        # Minimise (w - 3)^2 via a single parameter.
        param = Parameter(np.array([0.0]))
        return param

    def test_adam_converges_on_quadratic(self):
        param = self._quadratic_problem()
        optimizer = Adam([param], learning_rate=0.1)
        for _ in range(300):
            param.zero_grad()
            param.grad[...] = 2 * (param.value - 3.0)
            optimizer.step()
        assert param.value[0] == pytest.approx(3.0, abs=1e-3)

    def test_adam_weight_decay_shrinks_solution(self):
        no_decay = self._quadratic_problem()
        decay = self._quadratic_problem()
        opt_a = Adam([no_decay], learning_rate=0.1)
        opt_b = Adam([decay], learning_rate=0.1, weight_decay=1.0)
        for _ in range(300):
            for param, opt in ((no_decay, opt_a), (decay, opt_b)):
                param.zero_grad()
                param.grad[...] = 2 * (param.value - 3.0)
                opt.step()
        assert abs(decay.value[0]) < abs(no_decay.value[0])

    def test_invalid_hyperparameters(self):
        param = Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            Adam([param], learning_rate=0.0)
        with pytest.raises(ValueError):
            Adam([param], learning_rate=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            Adam([param], learning_rate=0.1, weight_decay=-0.1)

    def test_adam_rejects_beta2_of_one(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], learning_rate=0.1, beta2=1.0)

    def test_adam_first_step_moves_each_entry_by_the_learning_rate(self):
        """Bias correction makes the first step ``-lr * sign(grad)`` at any gradient size."""
        param = Parameter(np.zeros(3))
        param.grad[...] = [1e-3, -50.0, 2.0]
        Adam([param], learning_rate=0.1).step()
        np.testing.assert_allclose(param.value, [-0.1, 0.1, -0.1], rtol=1e-4)

    def test_adam_zero_grad_clears_every_parameter(self):
        params = [Parameter(np.ones(2)), Parameter(np.ones((2, 2)))]
        for param in params:
            param.grad += 3.0
        Adam(params).zero_grad()
        for param in params:
            np.testing.assert_array_equal(param.grad, 0.0)

    def test_adam_updates_only_its_own_parameters(self):
        owned, other = Parameter(np.zeros(2)), Parameter(np.zeros(2))
        owned.grad += 1.0
        other.grad += 1.0
        Adam([owned], learning_rate=0.1).step()
        assert np.all(owned.value < 0)
        np.testing.assert_array_equal(other.value, 0.0)


class TestSequentialAndFit:
    def test_mlp_structure(self):
        network = mlp([4, 8, 2], rng=0)
        assert network.forward(np.zeros((3, 4))).shape == (3, 2)
        assert len(network.parameters()) == 4  # two Dense layers

    def test_mlp_is_relu_between_dense_layers_with_a_linear_output(self):
        network = mlp([4, 8, 8, 1], rng=0)
        assert [type(module) for module in network.modules] == [Dense, ReLU, Dense, ReLU, Dense]
        out = network.forward(np.random.default_rng(0).normal(size=(50, 4)) * 5.0)
        assert out.min() < 0.0  # no output activation

    def test_mlp_initialises_hidden_layers_he_and_output_glorot(self):
        network = mlp([64, 64, 64], rng=0)
        hidden, output = network.modules[0], network.modules[2]
        limit = np.sqrt(6.0 / (64 + 64))
        assert np.abs(output.weight.value).max() <= limit
        assert np.abs(hidden.weight.value).max() > limit
        assert [p.name for p in network.parameters()] == [
            "dense0.weight",
            "dense0.bias",
            "dense1.weight",
            "dense1.bias",
        ]

    def test_mlp_is_seeded(self):
        first, second, other = mlp([3, 5, 1], rng=4), mlp([3, 5, 1], rng=4), mlp([3, 5, 1], rng=5)
        for a, b in zip(first.parameters(), second.parameters()):
            np.testing.assert_array_equal(a.value, b.value)
        assert not np.allclose(first.parameters()[0].value, other.parameters()[0].value)

    def test_mlp_validation(self):
        with pytest.raises(ValueError):
            mlp([4])
        with pytest.raises(ValueError):
            Sequential()

    def test_iterate_minibatches_covers_dataset(self):
        x = np.arange(10)[:, None].astype(float)
        y = np.arange(10)[:, None].astype(float)
        seen = []
        for bx, _ in iterate_minibatches(x, y, batch_size=3, rng=np.random.default_rng(0)):
            seen.extend(bx[:, 0].tolist())
        assert sorted(seen) == list(range(10))

    def test_iterate_minibatches_shuffles(self):
        x = np.arange(20)[:, None].astype(float)
        rng = np.random.default_rng(0)
        seen = np.concatenate([bx[:, 0] for bx, _ in iterate_minibatches(x, x, 5, rng)])
        assert not np.array_equal(seen, np.arange(20))

    def test_iterate_minibatches_is_seeded(self):
        x = np.arange(12)[:, None].astype(float)

        def order(seed):
            rng = np.random.default_rng(seed)
            return np.concatenate([bx[:, 0] for bx, _ in iterate_minibatches(x, x, 5, rng)])

        np.testing.assert_array_equal(order(3), order(3))
        assert not np.array_equal(order(3), order(4))

    def test_iterate_minibatches_keeps_rows_paired_and_sizes_batches(self):
        x = np.arange(10)[:, None].astype(float)
        y = 2.0 * x
        batches = list(iterate_minibatches(x, y, batch_size=4, rng=np.random.default_rng(1)))
        assert [len(bx) for bx, _ in batches] == [4, 4, 2]
        for bx, by in batches:
            np.testing.assert_array_equal(by, 2.0 * bx)

    def test_fit_learns_linear_function(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 3))
        true_w = np.array([[1.0], [-2.0], [0.5]])
        y = x @ true_w + 0.3
        network = mlp([3, 16, 1], rng=0)
        history = fit(
            network,
            x,
            y,
            loss=HuberLoss(),
            optimizer=Adam(network.parameters(), learning_rate=5e-3),
            num_epochs=200,
            batch_size=32,
            rng=0,
        )
        assert history.train_losses[-1] < 0.01
        assert history.num_epochs <= 200

    def test_fit_learns_binary_classification(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(300, 2))
        y = (x[:, :1] + x[:, 1:] > 0).astype(float)
        network = mlp([2, 16, 1], rng=0)
        fit(
            network,
            x,
            y,
            loss=BCEWithLogitsLoss(),
            optimizer=Adam(network.parameters()),
            num_epochs=150,
            batch_size=32,
            rng=0,
        )
        logits = network.forward(x)
        accuracy = np.mean((logits > 0) == (y > 0.5))
        assert accuracy > 0.9

    def test_fit_early_stopping(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=(50, 1))  # pure noise: validation stops improving fast
        network = mlp([2, 8, 1], rng=0)
        history = fit(
            network,
            x,
            y,
            loss=HuberLoss(),
            optimizer=Adam(network.parameters()),
            num_epochs=500,
            batch_size=16,
            validation_data=(x, y),
            patience=5,
            rng=0,
        )
        assert history.num_epochs < 500

    def test_fit_is_seeded(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 2))
        y = x[:, :1] - x[:, 1:]

        def train():
            network = mlp([2, 8, 1], rng=0)
            history = fit(
                network,
                x,
                y,
                loss=HuberLoss(),
                optimizer=Adam(network.parameters(), learning_rate=1e-2),
                num_epochs=5,
                batch_size=8,
                rng=9,
            )
            return history, state_dict(network)

        (history_a, state_a), (history_b, state_b) = train(), train()
        assert history_a.train_losses == history_b.train_losses
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key])

    def test_fit_records_one_loss_per_epoch(self):
        x = np.random.default_rng(0).normal(size=(20, 2))
        y = x.sum(axis=1, keepdims=True)
        network = mlp([2, 4, 1], rng=0)
        optimizer = Adam(network.parameters())
        plain = fit(network, x, y, HuberLoss(), optimizer, num_epochs=3, rng=0)
        assert plain.num_epochs == 3
        assert plain.validation_losses == []
        validated = fit(
            network, x, y, HuberLoss(), optimizer, num_epochs=4, validation_data=(x, y), rng=0
        )
        assert len(validated.train_losses) == len(validated.validation_losses) == 4

    def test_fit_early_stopping_monitors_training_loss_without_validation(self):
        # Zero inputs through a fresh mlp (zero biases) give exactly zero outputs, so with
        # zero targets the training loss is 0.0 every epoch and never improves after the first.
        network = mlp([2, 4, 1], rng=0)
        x, y = np.zeros((8, 2)), np.zeros((8, 1))
        history = fit(
            network,
            x,
            y,
            HuberLoss(),
            Adam(network.parameters()),
            num_epochs=50,
            batch_size=4,
            rng=0,
            patience=3,
        )
        assert history.train_losses == [0.0] * 4

    def test_fit_input_validation(self):
        network = mlp([2, 4, 1], rng=0)
        loss, optimizer = HuberLoss(), Adam(network.parameters())
        with pytest.raises(ValueError):
            fit(network, np.zeros((3, 2)), np.zeros((4, 1)), loss, optimizer)
        with pytest.raises(ValueError):
            fit(network, np.zeros((3, 2)), np.zeros((3, 1)), loss, optimizer, num_epochs=0)

    def test_fit_rejects_non_positive_batch_size(self):
        network = mlp([2, 4, 1], rng=0)
        with pytest.raises(ValueError):
            fit(
                network,
                np.zeros((3, 2)),
                np.zeros((3, 1)),
                HuberLoss(),
                Adam(network.parameters()),
                batch_size=0,
            )


class TestSerialization:
    def test_state_dict_roundtrip(self):
        network = mlp([3, 5, 2], rng=0)
        other = mlp([3, 5, 2], rng=99)
        load_state_dict(other, state_dict(network))
        x = np.random.default_rng(0).normal(size=(4, 3))
        np.testing.assert_allclose(other.forward(x), network.forward(x))

    def test_state_dict_keys_are_indexed_parameter_names(self):
        """The surrogate's ``.npz`` files store these keys."""
        assert list(state_dict(mlp([3, 5, 2], rng=0))) == [
            "000:dense0.weight",
            "001:dense0.bias",
            "002:dense1.weight",
            "003:dense1.bias",
        ]

    def test_state_dict_is_a_copy(self):
        network = mlp([3, 5, 2], rng=0)
        state = state_dict(network)
        for value in state.values():
            value[...] = 7.0
        assert not np.any(network.parameters()[0].value == 7.0)

    def test_loaded_values_are_copied_in_place(self):
        network = mlp([3, 5, 2], rng=0)
        weight = network.parameters()[0]
        array = weight.value
        state = state_dict(mlp([3, 5, 2], rng=1))
        load_state_dict(network, state)
        assert weight.value is array  # the optimiser's references stay valid
        for value in state.values():
            value[...] = 7.0
        assert not np.any(weight.value == 7.0)

    def test_shape_mismatch_rejected(self):
        network = mlp([3, 5, 2], rng=0)
        wrong = mlp([3, 6, 2], rng=0)
        with pytest.raises((ValueError, KeyError)):
            load_state_dict(wrong, state_dict(network))

    def test_missing_parameters_rejected(self):
        network = mlp([3, 5, 2], rng=0)
        state = state_dict(network)
        state.pop(next(iter(state)))
        with pytest.raises((ValueError, KeyError)):
            load_state_dict(network, state)
