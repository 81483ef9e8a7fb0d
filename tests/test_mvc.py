"""Unit tests for the Minimum Vertex Cover substrate (instance, QUBO, heuristics)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.problems.mvc.generator import RandomMVCConfig, generate_mvc_instance
from repro.problems.mvc.heuristics import (
    best_known_cover_weight,
    exact_minimum_cover,
    greedy_weighted_cover,
    prune_cover,
)
from repro.problems.mvc.instance import MVCInstance
from repro.problems.mvc.qubo import MVCProblem


def triangle_instance(weights=None) -> MVCInstance:
    adjacency = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=bool)
    return MVCInstance(adjacency=adjacency, weights=weights, name="triangle")


class TestMVCInstance:
    def test_edge_count(self):
        assert triangle_instance().num_edges == 3

    def test_cover_detection(self):
        instance = triangle_instance()
        assert instance.is_vertex_cover(np.array([1, 1, 0]))
        assert not instance.is_vertex_cover(np.array([1, 0, 0]))
        assert instance.is_vertex_cover(np.array([1, 1, 1]))

    def test_cover_weight(self):
        instance = triangle_instance(weights=np.array([1.0, 2.0, 3.0]))
        assert instance.cover_weight(np.array([1, 0, 1])) == pytest.approx(4.0)

    def test_empty_graph_always_covered(self):
        instance = MVCInstance(adjacency=np.zeros((4, 4), dtype=bool))
        assert instance.is_vertex_cover(np.zeros(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            MVCInstance(adjacency=np.array([[0, 1], [0, 0]], dtype=bool))
        with pytest.raises(ValueError):
            MVCInstance(adjacency=np.eye(3, dtype=bool))
        with pytest.raises(ValueError):
            MVCInstance(adjacency=np.zeros((3, 3), dtype=bool), weights=np.ones(2))
        with pytest.raises(ValueError):
            MVCInstance(adjacency=np.zeros((3, 3), dtype=bool), weights=np.array([-1.0, 1.0, 1.0]))

    def test_encoding_fingerprint_depends_on_weights(self):
        # The evaluation cache keys on the encoding's fingerprint: graphs
        # that differ only in their weights are different problems.
        a = MVCProblem(triangle_instance(weights=np.array([1.0, 1.0, 1.0])))
        b = MVCProblem(triangle_instance(weights=np.array([1.0, 1.0, 2.0])))
        assert a.encode().fingerprint() != b.encode().fingerprint()

    def test_is_vertex_cover_rejects_wrong_length(self):
        instance = triangle_instance()
        with pytest.raises(ValueError, match="one entry per vertex"):
            instance.is_vertex_cover(np.array([1, 1]))
        with pytest.raises(ValueError, match="one entry per vertex"):
            instance.is_vertex_cover(np.ones(4))

    def test_is_vertex_cover_rejects_non_binary(self):
        instance = triangle_instance()
        with pytest.raises(ValueError, match="binary"):
            instance.is_vertex_cover(np.array([2, 1, 0]))
        with pytest.raises(ValueError, match="binary"):
            instance.is_vertex_cover(np.array([0.5, 1.0, 1.0]))

    def test_is_vertex_cover_accepts_bool_and_float_binary(self):
        instance = triangle_instance()
        assert instance.is_vertex_cover(np.array([True, True, False]))
        assert instance.is_vertex_cover(np.array([1.0, 1.0, 0.0]))


class TestSparseMVCInstance:
    def edge_list(self):
        return np.array([[0, 1], [0, 2], [1, 2]])

    def test_from_edges_matches_dense(self):
        sparse = MVCInstance.from_edges(3, self.edge_list(), name="triangle")
        dense = triangle_instance()
        assert sparse.adjacency.format == dense.adjacency.format == "csr"
        assert sparse.num_edges == dense.num_edges
        np.testing.assert_array_equal(sparse.edges(), dense.edges())
        np.testing.assert_array_equal(sparse.weights, dense.weights)

    def test_stored_zeros_are_not_edges(self):
        # Path 0-1-2 given as CSR that also stores zeros at (0, 2) and (2, 0).
        rows, cols = [0, 1, 1, 2, 0, 2], [1, 0, 2, 1, 2, 0]
        adjacency = sparse.csr_array(([1, 1, 1, 1, 0, 0], (rows, cols)), shape=(3, 3))
        instance = MVCInstance(adjacency=adjacency)
        assert instance.num_edges == 2
        np.testing.assert_array_equal(instance.edges(), [[0, 1], [1, 2]])
        assert instance.is_vertex_cover(np.array([0, 1, 0]))

    def test_from_edges_accepts_duplicates_and_either_order(self):
        instance = MVCInstance.from_edges(3, [[1, 0], [0, 1], [2, 0]])
        assert instance.num_edges == 2
        np.testing.assert_array_equal(instance.edges(), [[0, 1], [0, 2]])

    def test_from_edges_validation(self):
        with pytest.raises(ValueError):
            MVCInstance.from_edges(3, [[0, 3]])
        with pytest.raises(ValueError):
            MVCInstance.from_edges(3, [[1, 1]])
        with pytest.raises(ValueError):
            MVCInstance.from_edges(3, [[0, 1, 2]])

    def test_sparse_cover_detection(self):
        instance = MVCInstance.from_edges(4, [[0, 1], [2, 3]])
        assert instance.is_vertex_cover(np.array([1, 0, 1, 0]))
        assert not instance.is_vertex_cover(np.array([1, 0, 0, 0]))

    def test_sparse_problem_encoding_matches_dense(self):
        dense_problem = MVCProblem(triangle_instance(weights=np.array([1.0, 2.0, 3.0])))
        sparse_problem = MVCProblem(
            MVCInstance.from_edges(
                3, self.edge_list(), weights=np.array([1.0, 2.0, 3.0]), name="triangle"
            )
        )
        assert (
            dense_problem.encode().fingerprint() == sparse_problem.encode().fingerprint()
        )

    def test_sparse_generator_rejects_bad_arguments(self):
        from repro.problems.mvc.generator import generate_sparse_mvc_instance

        with pytest.raises(ValueError):
            generate_sparse_mvc_instance(10)
        with pytest.raises(ValueError):
            generate_sparse_mvc_instance(10, num_edges=5, edge_density=0.1)
        with pytest.raises(ValueError):
            generate_sparse_mvc_instance(10, num_edges=0)
        with pytest.raises(ValueError):
            generate_sparse_mvc_instance(10, edge_density=1.5)

    def test_edges_cache_is_read_only(self):
        for instance in (triangle_instance(), MVCInstance.from_edges(3, self.edge_list())):
            edges = instance.edges()
            with pytest.raises(ValueError):
                edges[0, 0] = 2

    def test_sparse_generator_edge_density(self):
        from repro.problems.mvc.generator import generate_sparse_mvc_instance

        instance = generate_sparse_mvc_instance(20, edge_density=0.1, rng=0)
        assert instance.num_edges == round(0.1 * 20 * 19 / 2)
        assert instance.adjacency.format == "csr"


class TestMVCProblem:
    def test_penalty_zero_iff_cover(self):
        problem = MVCProblem(triangle_instance())
        encoding = problem.encode()
        for bits in range(8):
            x = np.array([(bits >> i) & 1 for i in range(3)], dtype=float)
            penalty = encoding.penalty_energy(x)
            if problem.instance.is_vertex_cover(x):
                assert penalty == pytest.approx(0.0)
            else:
                assert penalty > 0.5

    def test_objective_is_cover_weight(self):
        weights = np.array([1.0, 2.0, 3.0])
        problem = MVCProblem(triangle_instance(weights=weights))
        encoding = problem.encode()
        x = np.array([1.0, 1.0, 0.0])
        assert encoding.objective_energy(x) == pytest.approx(3.0)

    def test_penalty_counts_uncovered_edges(self):
        problem = MVCProblem(triangle_instance())
        encoding = problem.encode()
        assert encoding.penalty_energy(np.zeros(3)) == pytest.approx(3.0)
        assert encoding.penalty_energy(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_fitness_and_feasibility(self):
        problem = MVCProblem(triangle_instance(weights=np.array([1.0, 2.0, 3.0])))
        assert problem.is_feasible(np.array([1, 1, 0]))
        assert problem.fitness(np.array([1, 1, 0])) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            problem.fitness(np.array([1, 0, 0]))

    def test_relaxation_scale_is_max_weight(self):
        problem = MVCProblem(triangle_instance(weights=np.array([0.5, 2.5, 1.0])))
        assert problem.relaxation_scale() == pytest.approx(2.5)

    def test_sufficient_penalty_makes_optimum_feasible(self):
        # With sigma > max(w) the QUBO ground state must be a minimum cover.
        weights = np.array([0.9, 0.7, 0.4])
        problem = MVCProblem(triangle_instance(weights=weights))
        model = problem.build_qubo(2.0)
        best_energy = np.inf
        best_x = None
        for bits in range(8):
            x = np.array([(bits >> i) & 1 for i in range(3)], dtype=float)
            energy = model.energy(x)
            if energy < best_energy:
                best_energy = energy
                best_x = x
        assert problem.is_feasible(best_x)
        assert problem.fitness(best_x) == pytest.approx(weights[2] + weights[1])


class TestMVCGenerator:
    def test_size_and_connectivity(self):
        instance = generate_mvc_instance(RandomMVCConfig(num_vertices=20, edge_probability=0.3), rng=0)
        assert instance.num_vertices == 20
        assert np.all(instance.adjacency.sum(axis=1) >= 1)

    def test_weighted_flag(self):
        unweighted = generate_mvc_instance(RandomMVCConfig(num_vertices=8, weighted=False), rng=0)
        np.testing.assert_allclose(unweighted.weights, 1.0)
        weighted = generate_mvc_instance(RandomMVCConfig(num_vertices=8, weighted=True), rng=0)
        assert weighted.weights.std() > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RandomMVCConfig(num_vertices=1)
        with pytest.raises(ValueError):
            RandomMVCConfig(edge_probability=0.0)


class TestMVCHeuristics:
    def test_greedy_produces_cover(self):
        instance = generate_mvc_instance(RandomMVCConfig(num_vertices=15, edge_probability=0.3), rng=1)
        cover = greedy_weighted_cover(instance)
        assert instance.is_vertex_cover(cover)

    def test_prune_keeps_cover_valid_and_no_heavier(self):
        instance = generate_mvc_instance(RandomMVCConfig(num_vertices=12, edge_probability=0.4), rng=2)
        cover = np.ones(12, dtype=np.int8)
        pruned = prune_cover(instance, cover)
        assert instance.is_vertex_cover(pruned)
        assert instance.cover_weight(pruned) <= instance.cover_weight(cover)

    def test_exact_on_triangle(self):
        cover = exact_minimum_cover(triangle_instance())
        assert cover.sum() == 2

    def test_exact_respects_weights(self):
        weights = np.array([10.0, 0.1, 0.1])
        cover = exact_minimum_cover(triangle_instance(weights=weights))
        assert cover[0] == 0  # the expensive vertex is avoided

    def test_exact_size_limit(self):
        instance = generate_mvc_instance(RandomMVCConfig(num_vertices=25), rng=0)
        with pytest.raises(ValueError):
            exact_minimum_cover(instance)

    def test_best_known_weight_is_achievable(self):
        instance = generate_mvc_instance(RandomMVCConfig(num_vertices=10, edge_probability=0.4), rng=3)
        weight = best_known_cover_weight(instance)
        exact = instance.cover_weight(exact_minimum_cover(instance))
        assert weight == pytest.approx(exact)
