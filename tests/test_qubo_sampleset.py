"""Unit tests for SampleSet / SampleRecord."""

from __future__ import annotations

import numpy as np
import pytest

from repro.qubo.sampleset import SampleRecord, SampleSet


@pytest.fixture
def sample_set() -> SampleSet:
    assignments = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1], [0, 1, 0]], dtype=np.int8)
    energies = np.array([5.0, 1.0, 9.0, 3.0])
    return SampleSet(assignments, energies, solver_name="test")


class TestConstruction:
    def test_sorted_by_energy(self, sample_set):
        assert list(sample_set.energies) == sorted(sample_set.energies)
        assert sample_set.best.energy == pytest.approx(1.0)
        np.testing.assert_array_equal(sample_set.best.assignment, [0, 0, 0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SampleSet(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            SampleSet(np.zeros(3), np.zeros(3))

    def test_occurrences_validation(self):
        with pytest.raises(ValueError):
            SampleSet(np.zeros((2, 2)), np.zeros(2), num_occurrences=np.ones(3))

    def test_non_positive_occurrences_rejected(self):
        # Regression: zero / negative multiplicities made the occurrence-
        # weighted statistics divide by zero or return NaN.
        with pytest.raises(ValueError, match=">= 1"):
            SampleSet(np.zeros((2, 2)), np.zeros(2), num_occurrences=np.array([1, 0]))
        with pytest.raises(ValueError, match=">= 1"):
            SampleSet(np.zeros((2, 2)), np.zeros(2), num_occurrences=np.array([-1, 2]))

    def test_len_and_iteration(self, sample_set):
        assert len(sample_set) == 4
        records = list(sample_set)
        assert all(isinstance(r, SampleRecord) for r in records)
        assert records[0].energy <= records[-1].energy

    def test_empty_best_raises(self):
        empty = SampleSet(np.zeros((0, 3), dtype=np.int8), np.zeros(0))
        with pytest.raises(ValueError):
            _ = empty.best


class TestStatistics:
    def test_probability_of_feasibility(self, sample_set):
        pf = sample_set.probability_of_feasibility(lambda x: x.sum() >= 2)
        assert pf == pytest.approx(0.5)

    def test_probability_weighted_by_occurrences(self):
        assignments = np.array([[1, 1], [0, 0]], dtype=np.int8)
        energies = np.array([1.0, 2.0])
        occurrences = np.array([3, 1])
        samples = SampleSet(assignments, energies, num_occurrences=occurrences)
        pf = samples.probability_of_feasibility(lambda x: x.sum() == 2)
        assert pf == pytest.approx(0.75)

    def test_probability_empty_set(self):
        empty = SampleSet(np.zeros((0, 2), dtype=np.int8), np.zeros(0))
        assert empty.probability_of_feasibility(lambda x: True) == 0.0

    def test_energy_statistics(self, sample_set):
        mean, std = sample_set.energy_statistics()
        assert mean == pytest.approx(np.mean([5.0, 1.0, 9.0, 3.0]))
        assert std == pytest.approx(np.std([5.0, 1.0, 9.0, 3.0]))

    def test_energy_statistics_empty_raises(self):
        empty = SampleSet(np.zeros((0, 2), dtype=np.int8), np.zeros(0))
        with pytest.raises(ValueError):
            empty.energy_statistics()

    def test_feasible_fitnesses(self, sample_set):
        fitnesses = sample_set.feasible_fitnesses(lambda x: x.sum() >= 2, lambda x: float(x.sum()))
        assert sorted(fitnesses.tolist()) == [2.0, 3.0]


class TestTools:
    def test_truncated_keeps_lowest_energy(self, sample_set):
        truncated = sample_set.truncated(2)
        assert truncated.num_samples == 2
        assert truncated.energies.max() <= sample_set.energies[2]

    def test_truncated_validates(self, sample_set):
        with pytest.raises(ValueError):
            sample_set.truncated(0)

    def test_concatenate(self, sample_set):
        merged = SampleSet.concatenate([sample_set, sample_set])
        assert merged.num_samples == 8
        assert merged.best.energy == pytest.approx(1.0)

    def test_concatenate_mismatched_widths(self, sample_set):
        other = SampleSet(np.zeros((1, 2), dtype=np.int8), np.zeros(1))
        with pytest.raises(ValueError):
            SampleSet.concatenate([sample_set, other])

    def test_concatenate_empty_list(self):
        with pytest.raises(ValueError):
            SampleSet.concatenate([])

    def test_concatenate_merges_info(self):
        # Regression: concatenate used to drop `info` entirely, losing the
        # wall-time / sweep metadata that throughput reporting reads.
        first = SampleSet(
            np.zeros((1, 2), dtype=np.int8),
            np.zeros(1),
            info={"wall_time_s": 0.25, "num_sweeps": 100, "solver": "sa"},
        )
        second = SampleSet(
            np.ones((1, 2), dtype=np.int8),
            np.ones(1),
            info={"wall_time_s": 0.5, "num_sweeps": 200},
        )
        merged = SampleSet.concatenate([first, second])
        assert merged.info["wall_time_s"] == pytest.approx(0.75)
        assert merged.info["num_sweeps"] == 100  # first set's scalar wins
        assert merged.info["solver"] == "sa"


class TestReadOnly:
    @pytest.mark.parametrize("attribute", ["assignments", "energies", "num_occurrences"])
    def test_arrays_are_read_only(self, sample_set, attribute):
        array = getattr(sample_set, attribute)
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7
        assert np.array_equal(getattr(sample_set, attribute), before)

    def test_caller_arrays_stay_writable_and_detached(self):
        assignments = np.array([[1, 0], [0, 1]], dtype=np.int8)
        energies = np.array([2.0, 1.0])
        samples = SampleSet(assignments, energies)
        assert assignments.flags.writeable and energies.flags.writeable
        assignments[...] = 0
        energies[...] = 9.0
        assert samples.assignments.tolist() == [[0, 1], [1, 0]]
        assert samples.energies.tolist() == [1.0, 2.0]

    def test_derived_sets_are_read_only(self, sample_set):
        for derived in (
            sample_set.truncated(2),
            SampleSet.concatenate([sample_set, sample_set]),
        ):
            with pytest.raises(ValueError, match="read-only"):
                derived.energies[0] = 0.0

    def test_a_copy_is_editable(self, sample_set):
        copy = sample_set.assignments.copy()
        copy[0] = 1
        assert copy[0].tolist() == [1, 1, 1]
        assert sample_set.assignments[0].tolist() == [0, 0, 0]
