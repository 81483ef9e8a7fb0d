"""Weight initialisation schemes."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngLike, ensure_rng


def glorot_uniform(fan_in: int, fan_out: int, rng: RngLike = None) -> np.ndarray:
    """Glorot / Xavier uniform initialisation, appropriate for tanh / sigmoid units."""
    rng = ensure_rng(rng)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def he_normal(fan_in: int, fan_out: int, rng: RngLike = None) -> np.ndarray:
    """He normal initialisation, appropriate for ReLU units."""
    rng = ensure_rng(rng)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
