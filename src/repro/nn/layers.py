"""The surrogate's layers: the module base class, a dense layer and ReLU.

A module maps a batch ``(batch, features)`` to another batch and supports
reverse-mode differentiation via :meth:`Module.backward`.  Everything is plain
numpy; the surrogate network in this project is small enough (a few thousand
parameters) that this is faster than the overhead of a heavyweight framework.
"""

from __future__ import annotations

import abc
from typing import List

import numpy as np

from repro.nn.initializers import glorot_uniform, he_normal
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike, ensure_rng


class Module(abc.ABC):
    """Base class of every differentiable building block."""

    @abc.abstractmethod
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute the module output and cache whatever backward needs."""

    @abc.abstractmethod
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients and return the gradient w.r.t. the input."""

    def parameters(self) -> List[Parameter]:
        """Trainable parameters of this module (empty by default)."""
        return []

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()


class Dense(Module):
    """Fully-connected layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: RngLike = None,
        initializer: str = "he",
        name: str = "dense",
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        rng = ensure_rng(rng)
        if initializer == "he":
            weights = he_normal(in_features, out_features, rng)
        elif initializer == "glorot":
            weights = glorot_uniform(in_features, out_features, rng)
        else:
            raise ValueError(f"unknown initializer: {initializer!r}")
        self.weight = Parameter(weights, name=f"{name}.weight")
        self.bias = Parameter(np.zeros(out_features), name=f"{name}.bias")
        self._inputs: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        self._inputs = inputs
        return inputs @ self.weight.value + self.bias.value

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._inputs is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad += self._inputs.T @ grad_output
        self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.value.T

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._mask = inputs > 0
        return np.where(self._mask, inputs, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out
