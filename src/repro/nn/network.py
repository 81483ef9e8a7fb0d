"""The surrogate's ReLU MLP and its minibatch training loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.nn.layers import Dense, Module, ReLU
from repro.nn.losses import Loss
from repro.nn.optimizers import Adam
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike, ensure_rng


class Sequential(Module):
    """Composes modules in order; backward runs them in reverse."""

    def __init__(self, *modules: Module) -> None:
        if not modules:
            raise ValueError("a Sequential needs at least one module")
        self.modules = list(modules)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = inputs
        for module in self.modules:
            output = module.forward(output)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for module in reversed(self.modules):
            grad = module.backward(grad)
        return grad

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for module in self.modules:
            params.extend(module.parameters())
        return params


def mlp(layer_sizes: Sequence[int], rng: RngLike = None) -> Sequential:
    """Build a ReLU multi-layer perceptron with a linear output layer.

    ``layer_sizes`` includes the input and output dimensions, e.g.
    ``mlp([16, 64, 64, 1])``.  Hidden layers use He initialisation, the output
    layer Glorot.
    """
    if len(layer_sizes) < 2:
        raise ValueError("layer_sizes needs at least an input and an output size")
    rng = ensure_rng(rng)
    modules: List[Module] = []
    for index, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        last = index == len(layer_sizes) - 2
        initializer = "glorot" if last else "he"
        modules.append(Dense(fan_in, fan_out, rng=rng, initializer=initializer, name=f"dense{index}"))
        if not last:
            modules.append(ReLU())
    return Sequential(*modules)


@dataclass
class TrainingHistory:
    """Per-epoch loss trace returned by :func:`fit`."""

    train_losses: List[float] = field(default_factory=list)
    validation_losses: List[float] = field(default_factory=list)

    @property
    def num_epochs(self) -> int:
        return len(self.train_losses)


def iterate_minibatches(
    inputs: np.ndarray,
    targets: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
):
    """Yield shuffled ``(inputs, targets)`` minibatches covering the whole dataset once."""
    num_samples = inputs.shape[0]
    order = rng.permutation(num_samples)
    for start in range(0, num_samples, batch_size):
        batch = order[start : start + batch_size]
        yield inputs[batch], targets[batch]


def fit(
    network: Sequential,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    optimizer: Adam,
    num_epochs: int = 100,
    batch_size: int = 32,
    validation_data: Optional[tuple[np.ndarray, np.ndarray]] = None,
    rng: RngLike = None,
    patience: Optional[int] = None,
) -> TrainingHistory:
    """Minibatch training loop of the surrogate's heads.

    Parameters
    ----------
    patience:
        Optional early stopping: stop when the monitored loss (validation loss
        when ``validation_data`` is given, training loss otherwise) has not
        improved for ``patience`` consecutive epochs.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.shape[0] != targets.shape[0]:
        raise ValueError("inputs and targets must have the same number of rows")
    if num_epochs <= 0 or batch_size <= 0:
        raise ValueError("num_epochs and batch_size must be positive")
    rng = ensure_rng(rng)

    history = TrainingHistory()
    best_monitor = np.inf
    epochs_since_improvement = 0

    for _ in range(num_epochs):
        epoch_losses = []
        for batch_inputs, batch_targets in iterate_minibatches(inputs, targets, batch_size, rng):
            optimizer.zero_grad()
            predictions = network.forward(batch_inputs)
            epoch_losses.append(loss.value(predictions, batch_targets))
            network.backward(loss.gradient(predictions, batch_targets))
            optimizer.step()
        train_loss = float(np.mean(epoch_losses))
        history.train_losses.append(train_loss)

        monitor = train_loss
        if validation_data is not None:
            val_inputs, val_targets = validation_data
            val_loss = loss.value(network.forward(np.asarray(val_inputs, dtype=np.float64)), val_targets)
            history.validation_losses.append(float(val_loss))
            monitor = float(val_loss)

        if patience is not None:
            if monitor < best_monitor - 1e-12:
                best_monitor = monitor
                epochs_since_improvement = 0
            else:
                epochs_since_improvement += 1
                if epochs_since_improvement >= patience:
                    break

    return history
