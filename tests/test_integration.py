"""Integration tests: full QROSS pipeline end-to-end on tiny instances.

These are slower than unit tests (seconds each) but stay well within CI budget
because every component is configured at its smallest useful size.
"""

from __future__ import annotations

import numpy as np
import pytest

pytestmark = pytest.mark.slow  # end-to-end pipeline runs, seconds per test

from repro.core.strategies.composed import ComposedStrategyConfig
from repro.core.tuner import QROSSTuner
from repro.experiments.datasets import build_problems, make_solver, train_surrogate_for_solver
from repro.experiments.figures import figure1_landscape, figure6_mvc_penalty
from repro.experiments.profiles import SMOKE
from repro.experiments.reporting import format_comparison_figure, format_figure1, format_figure6, format_table1
from repro.experiments.runner import (
    baseline_tuner_factories,
    default_bounds,
    qross_tuner_factory,
    run_comparison,
    tune_instance,
)
from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.service.cache import SolverCallCache
from repro.solvers.digital_annealer import DigitalAnnealerConfig, DigitalAnnealerSolver
from repro.tuning.random_search import RandomSearchTuner

TINY = SMOKE.scaled(
    num_train_instances=6,
    num_test_instances=2,
    min_cities=5,
    max_cities=6,
    tsplib_max_cities=8,
    num_reads=10,
    num_trials=7,
    surrogate_epochs=120,
    da_steps_per_variable=8,
    coarse_multipliers=(0.2, 0.5, 0.8, 1.1, 1.6),
    num_refinement_points=2,
)


class TestLandscapeShapes:
    def test_pf_sigmoid_shape_on_da(self, fast_da_solver):
        """Pf must go from ~0 at tiny A to ~1 at large A (the Fig. 1 sigmoid)."""
        problem = TSPProblem(generate_instance(6, rng=21, name="sigmoid-check"))
        scale = problem.relaxation_scale()
        pf_values = []
        for multiplier in (0.05, 0.5, 1.5, 3.0):
            samples = fast_da_solver.sample(
                problem.build_qubo(multiplier * scale), num_reads=16, rng=0
            )
            pf_values.append(samples.probability_of_feasibility(problem.is_feasible))
        assert pf_values[0] < 0.5
        assert pf_values[-1] > 0.5
        assert pf_values == sorted(pf_values) or pf_values[-1] >= pf_values[0]

    def test_figure1_series_structure(self):
        result = figure1_landscape(TINY, multipliers=(0.3, 0.8, 1.2, 2.0), rng=0)
        assert set(result.series) == {"Digital Annealer", "Simulated Annealing on CPU"}
        for series in result.series.values():
            assert series.parameters.shape == (4,)
            assert np.all((series.probability_of_feasibility >= 0) & (series.probability_of_feasibility <= 1))
        text = format_figure1(result)
        assert "Figure 1" in text


class TestTuningPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self):
        datasets = build_problems(TINY)
        surrogate, solver, dataset = train_surrogate_for_solver(TINY, "da", datasets.train_problems)
        return datasets, surrogate, solver, dataset

    def test_surrogate_dataset_covers_slope_and_plateaus(self, pipeline):
        _, _, _, dataset = pipeline
        summary = dataset.summary()
        assert summary["num_instances"] == TINY.num_train_instances
        assert summary["fraction_on_slope"] > 0.0
        assert summary["fraction_plateau_one"] > 0.0

    def test_tune_instance_with_qross(self, pipeline):
        datasets, surrogate, solver, _ = pipeline
        problem = datasets.test_problems[0]
        bounds = default_bounds(problem)
        tuner = QROSSTuner(
            surrogate, problem, bounds, config=ComposedStrategyConfig(batch_size=TINY.num_reads), rng=0
        )
        history = tune_instance(
            problem, solver, tuner, num_trials=TINY.num_trials, num_reads=TINY.num_reads, rng=0
        )
        assert len(history) == TINY.num_trials
        # QROSS finds a feasible tour within the budget: either an offline
        # proposal lands on the slope or the online strategy's bound search
        # escalates the parameter until it does.
        assert history.best_fitness() is not None

    def test_comparison_includes_all_methods_and_instances(self, pipeline):
        datasets, surrogate, solver, _ = pipeline
        factories = {
            "QROSS": qross_tuner_factory(surrogate, ComposedStrategyConfig(batch_size=TINY.num_reads)),
            **baseline_tuner_factories(),
        }
        cache = SolverCallCache()
        result = run_comparison(
            datasets.test_problems,
            solver,
            factories,
            num_trials=TINY.num_trials,
            num_reads=TINY.num_reads,
            rng=0,
            cache=cache,
        )
        assert sorted(result.methods) == sorted(["QROSS", "TPE", "BO", "Random"])
        assert len(result.runs) == len(datasets.test_problems) * 4
        summaries = result.summaries()
        for summary in summaries.values():
            assert np.all(np.diff(summary.mean) <= 1e-12)  # running best never worsens
        # QROSS must find feasible solutions by the end of the budget.
        assert summaries["QROSS"].mean[-1] < 1.0

    def test_comparison_is_reproducible(self, pipeline):
        datasets, surrogate, solver, _ = pipeline
        factories = {"QROSS": qross_tuner_factory(surrogate, ComposedStrategyConfig(batch_size=TINY.num_reads))}
        first = run_comparison(
            datasets.test_problems, solver, factories, num_trials=3, num_reads=TINY.num_reads, rng=11
        )
        second = run_comparison(
            datasets.test_problems, solver, factories, num_trials=3, num_reads=TINY.num_reads, rng=11
        )
        np.testing.assert_allclose(first.summary("QROSS").mean, second.summary("QROSS").mean)

    def test_report_renders(self, pipeline):
        datasets, surrogate, solver, _ = pipeline
        factories = {"QROSS": qross_tuner_factory(surrogate), "Random": baseline_tuner_factories()["Random"]}
        result = run_comparison(
            datasets.test_problems, solver, factories, num_trials=3, num_reads=TINY.num_reads, rng=0
        )
        from repro.experiments.figures import ComparisonFigure

        text = format_comparison_figure(
            ComparisonFigure(title="t", solver_backend="da", dataset_name="synthetic", result=result),
            checkpoints=(1, 3),
        )
        assert "QROSS" in text and "Random" in text


class TestRandomBaselineOnly:
    def test_random_tuner_eventually_feasible(self):
        problem = TSPProblem(generate_instance(6, rng=33, name="random-check"))
        solver = DigitalAnnealerSolver(DigitalAnnealerConfig(steps_per_variable=10))
        bounds = default_bounds(problem)
        history = tune_instance(
            problem, solver, RandomSearchTuner(bounds, rng=0), num_trials=8, num_reads=12, rng=0
        )
        assert history.best_fitness() is not None


class TestMVCFigure:
    def test_figure6_shows_degradation_with_large_penalty(self):
        result = figure6_mvc_penalty(
            TINY.scaled(num_reads=8, sa_num_sweeps=30),
            penalty_weights=(2.0, 20.0, 200.0, 2000.0),
            num_vertices=20,
            num_runs=2,
            rng=0,
        )
        assert set(result.normalized_energy) == {"sa", "qa"}
        for values in result.normalized_energy.values():
            assert values.shape == (4,)
            assert np.all(values >= 1.0 - 1e-9)
        # The noisy QA solver should degrade at the largest penalty weight
        # relative to its own best operating point.
        qa = result.normalized_energy["qa"]
        assert qa[-1] >= qa.min()
        text = format_figure6(result)
        assert "penalty weight" in text
