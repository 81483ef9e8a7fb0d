"""Unit tests for repro.utils (rng, validation, timing)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.timing import Timer
from repro.utils.validation import (
    check_positive,
    check_probability,
    check_square_matrix,
    check_symmetric,
)


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, size=5)
        b = ensure_rng(42).integers(0, 1000, size=5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_different_seeds_differ(self):
        a = ensure_rng(1).integers(0, 10**6, size=10)
        b = ensure_rng(2).integers(0, 10**6, size=10)
        assert not np.array_equal(a, b)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_streams_are_independent(self):
        streams = spawn_rngs(7, 3)
        draws = [s.integers(0, 10**9, size=4) for s in streams]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_reproducible_from_seed(self):
        a = [s.integers(0, 10**9) for s in spawn_rngs(9, 3)]
        b = [s.integers(0, 10**9) for s in spawn_rngs(9, 3)]
        assert a == b


class TestValidation:
    def test_check_probability_accepts_bounds(self):
        assert check_probability(0.0) == 0.0
        assert check_probability(1.0) == 1.0
        assert check_probability(0.5) == 0.5

    @pytest.mark.parametrize("value", [-0.01, 1.01, 5.0])
    def test_check_probability_rejects(self, value):
        with pytest.raises(ValueError):
            check_probability(value)

    def test_check_positive_strict(self):
        assert check_positive(2.0) == 2.0
        with pytest.raises(ValueError):
            check_positive(0.0)
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                check_positive(value)

    def test_check_positive_non_strict_allows_zero(self):
        assert check_positive(0.0, strict=False) == 0.0
        with pytest.raises(ValueError):
            check_positive(-1.0, strict=False)

    def test_check_square_matrix(self):
        out = check_square_matrix([[1, 2], [3, 4]])
        assert out.shape == (2, 2)
        assert out.dtype == np.float64

    def test_check_square_matrix_rejects_rectangular(self):
        with pytest.raises(ValueError):
            check_square_matrix(np.ones((2, 3)))

    def test_check_symmetric(self):
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(check_symmetric(matrix), matrix)

    def test_check_symmetric_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            check_symmetric(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestTimer:
    def test_accumulates_time(self):
        timer = Timer()
        with timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.005

    def test_accumulates_across_uses(self):
        timer = Timer()
        with timer:
            pass
        first = timer.elapsed
        with timer:
            time.sleep(0.005)
        assert timer.elapsed > first

    def test_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.elapsed == 0.0
