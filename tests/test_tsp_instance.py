"""Unit tests for TSPInstance and the synthetic generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.problems.tsp.generator import (
    SyntheticTSPConfig,
    generate_dataset,
    generate_instance,
    paper_synthetic_dataset,
    train_test_split,
)
from repro.problems.tsp.instance import TSPInstance
from repro.problems.tsp.qubo import TSPProblem


class TestTSPInstance:
    def test_from_coordinates_builds_euclidean_matrix(self):
        coords = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        instance = TSPInstance.from_coordinates(coords)
        assert instance.distances[0, 1] == pytest.approx(3.0)
        assert instance.distances[0, 2] == pytest.approx(4.0)
        assert instance.distances[1, 2] == pytest.approx(5.0)

    def test_symmetry_enforced(self):
        asymmetric = np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            TSPInstance(distances=asymmetric)

    def test_rejects_negative_distances(self):
        matrix = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            TSPInstance(distances=matrix)

    def test_rejects_nonzero_diagonal(self):
        matrix = np.full((3, 3), 1.0)
        with pytest.raises(ValueError):
            TSPInstance(distances=matrix)

    def test_rejects_too_few_cities(self):
        with pytest.raises(ValueError):
            TSPInstance(distances=np.zeros((2, 2)))

    def test_tour_length_closed_cycle(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        instance = TSPInstance.from_coordinates(coords)
        assert instance.tour_length(np.array([0, 1, 2, 3])) == pytest.approx(4.0)

    def test_tour_length_requires_permutation(self):
        instance = TSPInstance.from_coordinates(np.random.default_rng(0).random((5, 2)))
        with pytest.raises(ValueError):
            instance.tour_length(np.array([0, 1, 2, 3, 3]))

    def test_tour_length_invariant_to_rotation(self):
        instance = generate_instance(7, rng=1)
        tour = np.array([3, 1, 0, 6, 2, 5, 4])
        rotated = np.roll(tour, 2)
        assert instance.tour_length(tour) == pytest.approx(instance.tour_length(rotated))

    def test_encoding_fingerprint_distinguishes_instances(self):
        # The evaluation cache keys on the encoding's fingerprint, so two
        # instances must never share one, and a regenerated one must match.
        def fingerprint(seed):
            return TSPProblem(generate_instance(6, rng=seed)).encode().fingerprint()

        assert fingerprint(0) != fingerprint(1)
        assert fingerprint(0) == fingerprint(0)

    def test_distance_statistics_keys(self):
        stats = generate_instance(8, rng=0).distance_statistics()
        assert stats["num_cities"] == 8.0
        assert stats["min"] <= stats["median"] <= stats["max"]

    def test_scaled(self):
        instance = generate_instance(5, rng=0)
        doubled = instance.scaled(2.0)
        np.testing.assert_allclose(doubled.distances, 2.0 * instance.distances)
        with pytest.raises(ValueError):
            instance.scaled(0.0)

    def test_coordinate_shape_validation(self):
        with pytest.raises(ValueError):
            TSPInstance.from_coordinates(np.zeros((4, 3)))


class TestGenerator:
    @pytest.mark.parametrize("distribution", ["uniform", "exponential", "clustered", "ring", "grid"])
    def test_distributions_produce_valid_instances(self, distribution):
        instance = generate_instance(10, distribution=distribution, rng=0)
        assert instance.num_cities == 10
        assert instance.metadata["distribution"] == distribution
        assert np.all(instance.distances >= 0)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            generate_instance(10, distribution="pareto", rng=0)

    def test_size_bounds_respected(self):
        config = SyntheticTSPConfig(min_cities=5, max_cities=7)
        instances = generate_dataset(20, config=config, rng=0)
        sizes = {instance.num_cities for instance in instances}
        assert sizes.issubset({5, 6, 7})

    def test_dataset_is_reproducible(self):
        a = generate_dataset(5, rng=9)
        b = generate_dataset(5, rng=9)
        for x, y in zip(a, b):
            np.testing.assert_allclose(x.distances, y.distances)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticTSPConfig(min_cities=2)
        with pytest.raises(ValueError):
            SyntheticTSPConfig(min_cities=10, max_cities=5)
        with pytest.raises(ValueError):
            SyntheticTSPConfig(exponential_scale_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            generate_dataset(0)

    def test_train_test_split_partitions(self):
        instances = generate_dataset(10, rng=0)
        split = train_test_split(instances, test_fraction=0.2, rng=0)
        assert len(split.train) + len(split.test) == 10
        assert len(split.test) == 2
        train_names = {i.name for i in split.train}
        test_names = {i.name for i in split.test}
        assert not train_names & test_names

    def test_train_test_split_validation(self):
        instances = generate_dataset(4, rng=0)
        with pytest.raises(ValueError):
            train_test_split(instances, test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split(instances[:1], test_fraction=0.5)

    def test_paper_dataset_split_sizes(self):
        split = paper_synthetic_dataset(rng=1, num_instances=20)
        assert len(split.train) == 18
        assert len(split.test) == 2
