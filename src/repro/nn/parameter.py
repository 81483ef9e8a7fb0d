"""Trainable parameter container for the numpy neural-network substrate."""

from __future__ import annotations

import numpy as np


class Parameter:
    """A trainable array plus its accumulated gradient.

    :class:`~repro.nn.optimizers.Adam` updates ``value`` in place from ``grad``; modules are
    responsible for zeroing and accumulating gradients during backpropagation.
    """

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Parameter(name={self.name!r}, shape={self.shape})"
