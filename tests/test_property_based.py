"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest

pytestmark = pytest.mark.slow  # hypothesis example generation dominates the fast run
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.fitness import expected_minimum_fitness
from repro.core.strategies.online_fitting import fit_sigmoid, sigmoid_ansatz
from repro.experiments.metrics import gap_curve, optimality_gap
from repro.problems.tsp.instance import TSPInstance
from repro.problems.tsp.preprocessing import minimise_distance_variance
from repro.problems.tsp.qubo import TSPProblem, assignment_from_tour, decode_assignment
from repro.qubo.builder import LinearConstraints
from repro.qubo.model import QUBOModel
from repro.qubo.sampleset import SampleSet
from repro.tuning.base import ParameterBounds, TrialHistory, TrialResult

# Shared settings: these tests build numpy objects, which hypothesis flags as
# slow data generation; the deadline is disabled for robustness on slow CI.
RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def symmetric_matrices(max_size: int = 6):
    """Strategy producing small symmetric float matrices."""
    return st.integers(min_value=2, max_value=max_size).flatmap(
        lambda n: arrays(
            dtype=np.float64,
            shape=(n, n),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
        ).map(lambda m: (m + m.T) / 2.0)
    )


def binary_vectors(length: int):
    return arrays(dtype=np.int8, shape=(length,), elements=st.integers(0, 1))


class TestQUBOProperties:
    @RELAXED
    @given(Q=symmetric_matrices())
    def test_symmetrisation_never_changes_energy(self, Q):
        model = QUBOModel(Q)
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=Q.shape[0]).astype(float)
        direct = float(x @ Q @ x)
        assert model.energy(x) == pytest.approx(direct, rel=1e-9, abs=1e-9)

    @RELAXED
    @given(Q=symmetric_matrices())
    def test_ising_roundtrip_preserves_energy(self, Q):
        model = QUBOModel(Q)
        back = QUBOModel.from_ising(model.to_ising())
        rng = np.random.default_rng(1)
        for _ in range(4):
            x = rng.integers(0, 2, size=Q.shape[0]).astype(float)
            assert back.energy(x) == pytest.approx(model.energy(x), rel=1e-8, abs=1e-7)

    @RELAXED
    @given(Q=symmetric_matrices(), scale=st.floats(min_value=0.1, max_value=10.0))
    def test_scaling_is_linear_in_energy(self, Q, scale):
        model = QUBOModel(Q)
        x = np.random.default_rng(2).integers(0, 2, size=Q.shape[0]).astype(float)
        assert model.scaled(scale).energy(x) == pytest.approx(scale * model.energy(x), rel=1e-9, abs=1e-9)

    @RELAXED
    @given(Q=symmetric_matrices(max_size=5))
    def test_local_fields_consistent_with_energy_differences(self, Q):
        model = QUBOModel(Q)
        rng = np.random.default_rng(3)
        X = rng.integers(0, 2, size=(2, Q.shape[0])).astype(float)
        deltas = model.local_fields(X)
        for b in range(2):
            i = int(rng.integers(0, Q.shape[0]))
            flipped = X[b].copy()
            flipped[i] = 1 - flipped[i]
            assert deltas[b, i] == pytest.approx(model.energy(flipped) - model.energy(X[b]), abs=1e-7)


class TestConstraintProperties:
    @RELAXED
    @given(
        C=arrays(
            dtype=np.float64,
            shape=(2, 5),
            elements=st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False),
        ),
        d=arrays(
            dtype=np.float64,
            shape=(2,),
            elements=st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False),
        ),
        x=binary_vectors(5),
    )
    def test_penalty_qubo_equals_squared_violation(self, C, d, x):
        constraints = LinearConstraints(C=C, d=d)
        penalty = constraints.penalty_qubo()
        assert penalty.energy(x.astype(float)) == pytest.approx(
            constraints.violation(x.astype(float)), rel=1e-9, abs=1e-7
        )


class TestSampleSetProperties:
    @RELAXED
    @given(
        energies=arrays(
            dtype=np.float64,
            shape=st.integers(1, 30),
            elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
        )
    )
    def test_best_is_minimum_and_sorted(self, energies):
        assignments = np.zeros((energies.size, 3), dtype=np.int8)
        samples = SampleSet(assignments, energies)
        assert samples.best.energy == pytest.approx(energies.min())
        assert np.all(np.diff(samples.energies) >= 0)

    @RELAXED
    @given(
        energies=arrays(
            dtype=np.float64,
            shape=st.integers(2, 20),
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
        ),
        threshold=st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    def test_probability_of_feasibility_in_unit_interval(self, energies, threshold):
        assignments = np.zeros((energies.size, 2), dtype=np.int8)
        samples = SampleSet(assignments, energies)
        pf = samples.probability_of_feasibility(lambda _x: bool(threshold > 0))
        assert pf in (0.0, 1.0)


class TestTSPProperties:
    @RELAXED
    @given(
        coords=arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(4, 8), st.just(2)),
            elements=st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
        ),
        seed=st.integers(0, 100),
    )
    def test_tour_encoding_roundtrip_and_energy(self, coords, seed):
        # Degenerate coordinate sets (all identical points) are still valid TSPs.
        instance = TSPInstance.from_coordinates(coords)
        problem = TSPProblem(instance)
        rng = np.random.default_rng(seed)
        tour = rng.permutation(instance.num_cities)
        assignment = assignment_from_tour(tour, instance.num_cities)
        decoded = decode_assignment(assignment, instance.num_cities)
        np.testing.assert_array_equal(decoded, tour)
        assert problem.is_feasible(assignment)
        assert problem.encode().objective_energy(assignment) == pytest.approx(
            instance.tour_length(tour), rel=1e-9, abs=1e-6
        )

    @RELAXED
    @given(
        coords=arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(4, 7), st.just(2)),
            elements=st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
        )
    )
    def test_mvodm_keeps_distances_non_negative_and_symmetric(self, coords):
        instance = TSPInstance.from_coordinates(coords)
        result = minimise_distance_variance(instance)
        transformed = result.transformed_instance.distances
        assert np.all(transformed >= -1e-9)
        np.testing.assert_allclose(transformed, transformed.T, atol=1e-9)
        assert result.transformed_variance <= result.original_variance + 1e-9


class TestStrategyAndMetricProperties:
    @RELAXED
    @given(
        theta_scale=st.floats(min_value=0.1, max_value=3.0),
        midpoint=st.floats(min_value=5.0, max_value=45.0),
    )
    def test_sigmoid_fit_recovers_midpoint(self, theta_scale, midpoint):
        parameters = np.linspace(0.0, 50.0, 40)
        probabilities = sigmoid_ansatz(parameters, theta_scale, theta_scale * midpoint)
        fit = fit_sigmoid(parameters, probabilities)
        assert fit.theta_offset / fit.theta_scale == pytest.approx(midpoint, rel=0.2, abs=2.0)

    @RELAXED
    @given(
        pf=st.floats(min_value=0.01, max_value=1.0),
        mean=st.floats(min_value=1.0, max_value=1e3),
        std=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_expected_minimum_is_at_most_mean_plus_tail(self, pf, mean, std):
        value = expected_minimum_fitness(pf, mean, std, batch_size=64)[0]
        assert np.isfinite(value)
        assert value <= mean + 8.5 * max(std, 1e-9)

    @RELAXED
    @given(
        fitnesses=st.lists(
            st.one_of(st.none(), st.floats(min_value=10.0, max_value=100.0)),
            min_size=1,
            max_size=15,
        )
    )
    def test_gap_curve_is_monotone_non_increasing(self, fitnesses):
        history = TrialHistory()
        for value in fitnesses:
            history.append(
                TrialResult(
                    parameter=1.0,
                    probability_of_feasibility=0.0 if value is None else 1.0,
                    best_fitness=value,
                )
            )
        curve = gap_curve(history, reference_fitness=10.0, num_trials=len(fitnesses))
        # Before the first feasible trial the gap is the fixed infeasibility
        # charge; from the first feasible trial onwards it never increases
        # (running best fitness is monotone).
        feasible_seen = [value is not None for value in fitnesses]
        if any(feasible_seen):
            first = feasible_seen.index(True)
            assert np.all(curve[:first] == 1.0)
            assert np.all(np.diff(curve[first:]) <= 1e-12)
        else:
            assert np.all(curve == 1.0)
        assert np.all((curve >= 0) & (curve <= 9.1))

    @RELAXED
    @given(
        best=st.floats(min_value=1.0, max_value=1e4),
        reference=st.floats(min_value=1.0, max_value=1e4),
    )
    def test_optimality_gap_non_negative(self, best, reference):
        assert optimality_gap(best, reference) >= 0.0

    @RELAXED
    @given(
        low=st.floats(min_value=0.1, max_value=10.0),
        span=st.floats(min_value=0.1, max_value=100.0),
        value=st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_bounds_clip_always_inside(self, low, span, value):
        bounds = ParameterBounds(low=low, high=low + span)
        clipped = bounds.clip(value)
        assert bounds.low <= clipped <= bounds.high
