"""Loss functions of the surrogate's two heads: binary cross-entropy and Huber.

The paper trains the feasibility head with binary cross-entropy and the energy
heads with Huber loss ("as we are expecting many outliers in the dataset, due
to the stochastic nature of a QUBO solver").
"""

from __future__ import annotations

import abc

import numpy as np

from repro.nn.layers import sigmoid


class Loss(abc.ABC):
    """Scalar loss over a batch with an analytic gradient w.r.t. the predictions."""

    @abc.abstractmethod
    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Mean loss over the batch."""

    @abc.abstractmethod
    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Gradient of the mean loss w.r.t. ``predictions``."""

    @staticmethod
    def _validate(predictions: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        predictions = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ValueError(f"shape mismatch: {predictions.shape} vs {targets.shape}")
        return predictions, targets


class HuberLoss(Loss):
    """Huber loss: quadratic near zero, linear in the tails (robust to outliers)."""

    def __init__(self, delta: float = 1.0) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = delta

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        predictions, targets = self._validate(predictions, targets)
        error = predictions - targets
        abs_error = np.abs(error)
        quadratic = 0.5 * error**2
        linear = self.delta * (abs_error - 0.5 * self.delta)
        return float(np.mean(np.where(abs_error <= self.delta, quadratic, linear)))

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        predictions, targets = self._validate(predictions, targets)
        error = predictions - targets
        grad = np.clip(error, -self.delta, self.delta)
        return grad / predictions.size


class BCEWithLogitsLoss(Loss):
    """Binary cross-entropy on raw logits (numerically stable).

    Targets may be soft probabilities (the empirical ``Pf`` of a batch of reads
    is a fraction, not a hard label).
    """

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        logits, targets = self._validate(predictions, targets)
        # log(1 + exp(-|x|)) + max(x, 0) - x * t  is the stable form.
        loss = np.logaddexp(0.0, -np.abs(logits)) + np.maximum(logits, 0.0) - logits * targets
        return float(np.mean(loss))

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        logits, targets = self._validate(predictions, targets)
        return (sigmoid(logits) - targets) / logits.size
