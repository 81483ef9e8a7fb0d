"""Lightweight argument-validation helpers shared across the library."""

from __future__ import annotations

import math

import numpy as np


def check_probability(value: float, name: str = "value") -> float:
    """Validate that ``value`` is a probability in ``[0, 1]`` and return it."""
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_positive(value: float, name: str = "value", strict: bool = True) -> float:
    """Validate that ``value`` is finite and positive (strictly by default) and return it."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_square_matrix(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``matrix`` is a 2-D square array and return it as float64."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {arr.shape}")
    return arr


def check_symmetric(matrix: np.ndarray, name: str = "matrix", tol: float = 1e-8) -> np.ndarray:
    """Validate that ``matrix`` is square and symmetric within ``tol``."""
    arr = check_square_matrix(matrix, name)
    if not np.allclose(arr, arr.T, atol=tol):
        raise ValueError(f"{name} must be symmetric")
    return arr
