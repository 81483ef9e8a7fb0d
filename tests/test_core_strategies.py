"""Tests for the QROSS strategies: MFS, PBS, OFS, the composed schedule and the tuner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strategies.base import dense_parameter_grid
from repro.core.strategies.composed import ComposedStrategyConfig, offline_proposals
from repro.core.strategies.minimum_fitness import MinimumFitnessStrategy
from repro.core.strategies.online_fitting import (
    OnlineFittingStrategy,
    fit_sigmoid,
    sigmoid_ansatz,
)
from repro.core.strategies.pf_based import PfBasedStrategy, propose_probability_ladder
from repro.core.tuner import QROSSTuner
from repro.tuning.base import ParameterBounds, TrialHistory, TrialResult


@pytest.fixture
def problem_and_bounds(training_problems):
    problem = training_problems[0]
    scale = problem.relaxation_scale()
    return problem, ParameterBounds(low=0.05 * scale, high=4.0 * scale)


class TestDenseGrid:
    def test_grid_spans_bounds(self):
        bounds = ParameterBounds(low=1.0, high=5.0)
        grid = dense_parameter_grid(bounds, 16)
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            dense_parameter_grid(ParameterBounds(1.0, 2.0), 4)


class TestMinimumFitnessStrategy:
    def test_proposes_single_parameter_within_bounds(self, trained_surrogate, problem_and_bounds):
        problem, bounds = problem_and_bounds
        strategy = MinimumFitnessStrategy(batch_size=16, use_shgo=False)
        proposals = strategy.propose(trained_surrogate, problem, bounds)
        assert len(proposals) == 1
        assert bounds.low <= proposals[0] <= bounds.high

    def test_proposal_lands_on_predicted_slope_or_right(self, trained_surrogate, problem_and_bounds):
        """MFS must not propose a parameter the surrogate believes is infeasible."""
        problem, bounds = problem_and_bounds
        strategy = MinimumFitnessStrategy(batch_size=16, use_shgo=False, min_probability=0.05)
        proposal = strategy.propose(trained_surrogate, problem, bounds)[0]
        pf = trained_surrogate.predict_pf(problem, [proposal])[0]
        assert pf >= 0.05 - 1e-9

    def test_shgo_refinement_does_not_worsen(self, trained_surrogate, problem_and_bounds):
        problem, bounds = problem_and_bounds
        grid_only = MinimumFitnessStrategy(batch_size=16, use_shgo=False)
        refined = MinimumFitnessStrategy(batch_size=16, use_shgo=True)
        value_grid = grid_only.expected_fitness(
            trained_surrogate, problem, np.array(grid_only.propose(trained_surrogate, problem, bounds))
        )[0]
        value_refined = refined.expected_fitness(
            trained_surrogate, problem, np.array(refined.propose(trained_surrogate, problem, bounds))
        )[0]
        assert value_refined <= value_grid + 1e-6


class TestPfBasedStrategy:
    def test_proposals_match_targets(self, trained_surrogate, problem_and_bounds):
        problem, bounds = problem_and_bounds
        strategy = PfBasedStrategy(targets=(0.8, 0.2))
        proposals = strategy.propose(trained_surrogate, problem, bounds)
        assert len(proposals) == 2
        pf = trained_surrogate.predict_pf(problem, proposals)
        # The achieved Pf should be ordered like the requested targets.
        assert pf[0] >= pf[1]

    def test_higher_target_means_larger_parameter(self, trained_surrogate, problem_and_bounds):
        problem, bounds = problem_and_bounds
        strategy = PfBasedStrategy(targets=(0.9, 0.1))
        high, low = strategy.propose(trained_surrogate, problem, bounds)
        assert high >= low

    def test_target_validation(self):
        with pytest.raises(ValueError):
            PfBasedStrategy(targets=())
        with pytest.raises(ValueError):
            PfBasedStrategy(targets=(1.5,))

    def test_probability_ladder(self, trained_surrogate, problem_and_bounds):
        problem, bounds = problem_and_bounds
        proposals = propose_probability_ladder(trained_surrogate, problem, bounds, num_trials=5)
        assert len(proposals) == 5
        with pytest.raises(ValueError):
            propose_probability_ladder(trained_surrogate, problem, bounds, num_trials=0)


class TestSigmoidFitting:
    def test_recovers_known_parameters(self):
        rng = np.random.default_rng(0)
        theta_scale, theta_offset = 0.9, 18.0
        parameters = np.linspace(10.0, 35.0, 25)
        probabilities = sigmoid_ansatz(parameters, theta_scale, theta_offset)
        probabilities = np.clip(probabilities + rng.normal(0, 0.02, parameters.size), 0, 1)
        fit = fit_sigmoid(parameters, probabilities)
        midpoint_true = theta_offset / theta_scale
        midpoint_fit = fit.theta_offset / fit.theta_scale
        assert midpoint_fit == pytest.approx(midpoint_true, rel=0.1)

    def test_slope_region_brackets_midpoint(self):
        fit = fit_sigmoid(np.linspace(0, 40, 20), sigmoid_ansatz(np.linspace(0, 40, 20), 0.5, 10.0))
        low, high = fit.slope_region()
        assert low < 20.0 / 1.0 < high or low < high  # midpoint = 20

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_sigmoid([1.0], [0.5])

    def test_degenerate_observations_fall_back(self):
        fit = fit_sigmoid([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert np.isfinite(fit.theta_scale)
        assert fit.theta_scale > 0


class TestOnlineFittingStrategy:
    def test_candidates_stay_in_bounds(self):
        bounds = ParameterBounds(low=1.0, high=50.0)
        strategy = OnlineFittingStrategy(bounds, rng=0)
        strategy.observe(5.0, 0.0)
        strategy.observe(30.0, 1.0)
        strategy.observe(15.0, 0.4)
        for _ in range(20):
            candidate = strategy.next_candidate()
            assert bounds.low <= candidate <= bounds.high

    def test_candidates_concentrate_on_slope(self):
        bounds = ParameterBounds(low=1.0, high=100.0)
        strategy = OnlineFittingStrategy(bounds, rng=0)
        # Ground truth sigmoid centred at 20 with a narrow transition.
        for a in [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 60.0]:
            strategy.observe(a, float(sigmoid_ansatz(np.array([a]), 1.0, 20.0)[0]))
        candidates = [strategy.next_candidate() for _ in range(30)]
        assert np.mean([5.0 <= c <= 40.0 for c in candidates]) > 0.9

    def test_bound_search_expands_when_all_feasible(self):
        bounds = ParameterBounds(low=0.5, high=100.0)
        strategy = OnlineFittingStrategy(bounds, rng=0)
        strategy.observe(40.0, 1.0)
        candidate = strategy.next_candidate()
        assert candidate < 40.0  # halve towards the infeasible plateau

    def test_bound_search_expands_when_all_infeasible(self):
        bounds = ParameterBounds(low=0.5, high=100.0)
        strategy = OnlineFittingStrategy(bounds, rng=0)
        strategy.observe(2.0, 0.0)
        candidate = strategy.next_candidate()
        assert candidate > 2.0

    def test_observe_history(self):
        bounds = ParameterBounds(low=1.0, high=10.0)
        strategy = OnlineFittingStrategy(bounds, rng=0)
        history = TrialHistory()
        history.append(TrialResult(parameter=2.0, probability_of_feasibility=0.0, best_fitness=None))
        history.append(TrialResult(parameter=8.0, probability_of_feasibility=1.0, best_fitness=5.0))
        strategy.observe_history(history)
        assert len(strategy.observations) == 2

    def test_validation(self):
        bounds = ParameterBounds(low=1.0, high=10.0)
        with pytest.raises(ValueError):
            OnlineFittingStrategy(bounds, slope_range=(0.5, 0.4))
        with pytest.raises(ValueError):
            OnlineFittingStrategy(bounds, bisection_growth=1.0)


class TestComposedStrategyAndTuner:
    def test_offline_proposals_order(self, trained_surrogate, problem_and_bounds):
        problem, bounds = problem_and_bounds
        proposals = offline_proposals(trained_surrogate, problem, bounds)
        assert len(proposals) == 3  # MFS + two PBS targets
        assert all(bounds.low <= p <= bounds.high for p in proposals)

    def test_composed_config_validation(self):
        with pytest.raises(ValueError):
            ComposedStrategyConfig(use_minimum_fitness=False, pf_targets=())

    def test_tuner_requires_trained_surrogate(self, problem_and_bounds):
        from repro.core.features import TSPStatisticsExtractor
        from repro.core.surrogate import SolverSurrogate

        problem, bounds = problem_and_bounds
        with pytest.raises(ValueError):
            QROSSTuner(SolverSurrogate(TSPStatisticsExtractor(), rng=0), problem, bounds)

    def test_tuner_first_trials_are_offline(self, trained_surrogate, problem_and_bounds):
        problem, bounds = problem_and_bounds
        tuner = QROSSTuner(trained_surrogate, problem, bounds, rng=0)
        history = TrialHistory()
        offline = tuner.offline_candidates()
        for expected in offline:
            suggestion = tuner.suggest(history)
            assert suggestion == pytest.approx(bounds.clip(expected))
            history.append(
                TrialResult(parameter=suggestion, probability_of_feasibility=0.5, best_fitness=10.0)
            )
        # Next suggestion comes from OFS and stays inside the bounds.
        online = tuner.suggest(history)
        assert bounds.low <= online <= bounds.high

    def test_offline_candidates_extract_features_once(self, trained_surrogate, monkeypatch):
        # MFS's refinement predicts one parameter per objective evaluation;
        # the instance's features are extracted for the first of them only.
        from repro.core.features import TSPStatisticsExtractor
        from repro.problems.tsp.generator import generate_instance
        from repro.problems.tsp.qubo import TSPProblem

        calls = []
        extract = TSPStatisticsExtractor.extract

        def counted(self, problem):
            calls.append(problem.name)
            return extract(self, problem)

        monkeypatch.setattr(TSPStatisticsExtractor, "extract", counted)
        problem = TSPProblem(generate_instance(7, rng=77, name="offline-memo-tsp"))
        scale = problem.relaxation_scale()
        bounds = ParameterBounds(low=0.05 * scale, high=4.0 * scale)
        offline = QROSSTuner(trained_surrogate, problem, bounds, rng=0).offline_candidates()
        assert len(offline) == 3
        assert calls == ["offline-memo-tsp"]

    def test_tuner_reset_clears_state(self, trained_surrogate, problem_and_bounds):
        problem, bounds = problem_and_bounds
        tuner = QROSSTuner(trained_surrogate, problem, bounds, rng=0)
        history = TrialHistory()
        first = tuner.suggest(history)
        history.append(TrialResult(parameter=first, probability_of_feasibility=1.0, best_fitness=1.0))
        tuner.reset()
        assert tuner.suggest(TrialHistory()) == pytest.approx(first)

    def test_predicted_landscape_shape(self, trained_surrogate, problem_and_bounds):
        problem, bounds = problem_and_bounds
        tuner = QROSSTuner(trained_surrogate, problem, bounds, rng=0)
        prediction = tuner.predicted_landscape(num_points=32)
        assert prediction.parameters.shape == (32,)
        assert prediction.probability_of_feasibility.shape == (32,)
