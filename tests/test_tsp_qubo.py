"""Unit tests for the TSP QUBO relaxation (Lucas formulation), decoding and MVODM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.heuristics import brute_force_optimal_tour
from repro.problems.tsp.instance import TSPInstance
from repro.problems.tsp.preprocessing import minimise_distance_variance
from repro.problems.tsp.qubo import TSPProblem, assignment_from_tour, decode_assignment


@pytest.fixture
def square_instance() -> TSPInstance:
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return TSPInstance.from_coordinates(coords, name="unit-square")


class TestEncodingDecoding:
    def test_assignment_from_tour_roundtrip(self):
        tour = np.array([2, 0, 3, 1])
        assignment = assignment_from_tour(tour, 4)
        decoded = decode_assignment(assignment, 4)
        np.testing.assert_array_equal(decoded, tour)

    def test_decode_rejects_non_binary(self):
        with pytest.raises(ValueError):
            decode_assignment(np.full(9, 0.5), 3)

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="num_cities"):
            decode_assignment(np.zeros(8, dtype=np.int8), 3)
        with pytest.raises(ValueError, match="num_cities"):
            decode_assignment(np.zeros(10, dtype=np.int8), 3)

    def test_decode_infeasible_returns_none(self):
        assert decode_assignment(np.zeros(9, dtype=np.int8), 3) is None
        assert decode_assignment(np.ones(9, dtype=np.int8), 3) is None

    def test_assignment_from_tour_validates_permutation(self):
        with pytest.raises(ValueError):
            assignment_from_tour(np.array([0, 0, 1, 2]), 4)


class TestTSPProblem:
    def test_number_of_variables(self, square_instance):
        problem = TSPProblem(square_instance)
        assert problem.num_qubo_variables == 16

    def test_feasible_energy_equals_tour_length(self, square_instance):
        problem = TSPProblem(square_instance)
        encoding = problem.encode()
        tour = np.array([0, 1, 2, 3])
        assignment = assignment_from_tour(tour, 4)
        assert encoding.objective_energy(assignment) == pytest.approx(
            square_instance.tour_length(tour)
        )
        assert encoding.penalty_energy(assignment) == pytest.approx(0.0)

    def test_relaxed_energy_equals_objective_plus_penalty(self, square_instance):
        problem = TSPProblem(square_instance)
        encoding = problem.encode()
        rng = np.random.default_rng(0)
        A = 3.7
        model = problem.build_qubo(A)
        for _ in range(10):
            x = rng.integers(0, 2, size=16).astype(float)
            expected = encoding.objective_energy(x) + A * encoding.penalty_energy(x)
            assert model.energy(x) == pytest.approx(expected, rel=1e-9)

    def test_every_permutation_is_feasible(self, square_instance):
        problem = TSPProblem(square_instance)
        from itertools import permutations

        for perm in permutations(range(4)):
            assignment = assignment_from_tour(np.array(perm), 4)
            assert problem.is_feasible(assignment)
            assert problem.fitness(assignment) == pytest.approx(
                square_instance.tour_length(np.array(perm))
            )

    def test_fitness_raises_for_infeasible(self, square_instance):
        problem = TSPProblem(square_instance)
        with pytest.raises(ValueError):
            problem.fitness(np.zeros(16, dtype=np.int8))

    def test_penalty_counts_constraint_violations(self, square_instance):
        problem = TSPProblem(square_instance)
        encoding = problem.encode()
        # A valid permutation with one city moved onto another position
        # violates exactly two constraints (a row and a column), each by 1.
        assignment = assignment_from_tour(np.array([0, 1, 2, 3]), 4).reshape(4, 4)
        assignment[1, 1] = 0
        assert encoding.penalty_energy(assignment.reshape(-1)) == pytest.approx(2.0)

    def test_relaxation_scale_is_max_distance(self, square_instance):
        problem = TSPProblem(square_instance)
        assert problem.relaxation_scale() == pytest.approx(np.sqrt(2.0))

    def test_reference_fitness_matches_brute_force(self):
        instance = generate_instance(6, rng=4)
        problem = TSPProblem(instance)
        _, optimal = brute_force_optimal_tour(instance)
        assert problem.reference_fitness() == pytest.approx(optimal, rel=1e-6)

    def test_ground_state_of_relaxed_qubo_is_optimal_tour(self):
        # With a sufficiently large A the global minimum of the relaxed QUBO is
        # the optimal tour; verify by enumerating all permutations (n=4 only).
        coords = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
        instance = TSPInstance.from_coordinates(coords)
        problem = TSPProblem(instance)
        model = problem.build_qubo(10.0 * problem.relaxation_scale())
        from itertools import permutations

        best_energy = np.inf
        best_tour = None
        for perm in permutations(range(4)):
            assignment = assignment_from_tour(np.array(perm), 4)
            energy = model.energy(assignment.astype(float))
            if energy < best_energy:
                best_energy = energy
                best_tour = np.array(perm)
        _, optimal_length = brute_force_optimal_tour(instance)
        assert instance.tour_length(best_tour) == pytest.approx(optimal_length)
        assert best_energy == pytest.approx(optimal_length)

    def test_encoding_is_cached(self, square_instance):
        problem = TSPProblem(square_instance)
        assert problem.encode() is problem.encode()


class TestMVODMPreprocessing:
    def test_variance_is_reduced(self):
        instance = generate_instance(10, distribution="exponential", rng=2)
        result = minimise_distance_variance(instance)
        assert result.transformed_variance <= result.original_variance + 1e-9

    def test_optimal_tour_preserved(self):
        instance = generate_instance(7, rng=3)
        result = minimise_distance_variance(instance)
        original_tour, _ = brute_force_optimal_tour(instance)
        transformed_tour, _ = brute_force_optimal_tour(result.transformed_instance)
        # Both matrices must rank this tour optimal (tours may differ if ties).
        assert instance.tour_length(transformed_tour) == pytest.approx(
            instance.tour_length(original_tour), rel=1e-9
        )

    def test_transformed_matrix_is_valid_instance(self):
        instance = generate_instance(8, rng=5)
        result = minimise_distance_variance(instance)
        transformed = result.transformed_instance
        assert np.all(transformed.distances >= 0)
        np.testing.assert_allclose(np.diag(transformed.distances), 0.0)

    def test_problem_with_preprocessing_reports_original_fitness(self):
        instance = generate_instance(6, rng=6)
        plain = TSPProblem(instance)
        preprocessed = TSPProblem(instance, use_mvodm_preprocessing=True)
        tour = np.arange(6)
        assignment = assignment_from_tour(tour, 6)
        assert preprocessed.fitness(assignment) == pytest.approx(plain.fitness(assignment))
        assert preprocessed.mvodm_result is not None
        assert plain.mvodm_result is None
