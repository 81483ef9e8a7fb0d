"""The Adam optimiser that trains the surrogate's heads."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.parameter import Parameter


class Adam:
    """Adam optimiser (Kingma & Ba, 2015) over a fixed set of parameters."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.parameters = list(parameters)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.value) for p in self.parameters]
        self._v = [np.zeros_like(p.value) for p in self.parameters]
        self._t = 0

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update using the gradients currently stored on the parameters."""
        self._t += 1
        for param, m, v in zip(self.parameters, self._m, self._v):
            grad = param.grad
            if self.weight_decay > 0:
                grad = grad + self.weight_decay * param.value
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / (1.0 - self.beta1**self._t)
            v_hat = v / (1.0 - self.beta2**self._t)
            param.value -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
