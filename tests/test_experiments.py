"""Unit tests for the experiment harness: metrics, profiles, cache and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.metrics import (
    INFEASIBLE_GAP,
    GapSummary,
    gap_curve,
    gap_table_rows,
    optimality_gap,
    summarise_gap_curves,
)
from repro.experiments.profiles import PAPER, SMALL, SMOKE, resolve_profile
from repro.experiments.reporting import format_gap_summaries, format_table, sparkline
from repro.experiments.runner import (
    baseline_tuner_factories,
    default_bounds,
    run_comparison,
    tune_instance,
)
from repro.problems.base import ConstrainedProblem
from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.expression import QUBOAccumulator, RelaxedEncoding
from repro.service.cache import SolverCallCache
from repro.service.service import default_service
from repro.solvers.random_solver import RandomSolver
from repro.tuning.base import TrialHistory, TrialResult
from repro.tuning.random_search import RandomSearchTuner


def history_from(entries) -> TrialHistory:
    history = TrialHistory()
    for parameter, pf, fitness in entries:
        history.append(TrialResult(parameter=parameter, probability_of_feasibility=pf, best_fitness=fitness))
    return history


class _OneHot(ConstrainedProblem):
    """Pick exactly one of ``costs``; no ``instance``, and the default ``name``."""

    def __init__(self, costs) -> None:
        self.costs = np.asarray(costs, dtype=np.float64)

    @property
    def num_qubo_variables(self) -> int:
        return self.costs.size

    def _encode(self) -> RelaxedEncoding:
        indices = np.arange(self.costs.size)
        objective = QUBOAccumulator(self.costs.size).add_linear(indices, self.costs).build()
        penalty = (
            QUBOAccumulator(self.costs.size)
            .add_squared_linear_penalty(indices, 1.0, constant=1.0)
            .build()
        )
        return RelaxedEncoding(objective=objective, penalty=penalty)

    def is_feasible(self, assignment) -> bool:
        return int(np.sum(assignment)) == 1

    def fitness(self, assignment) -> float:
        return float(self.costs @ assignment)

    def relaxation_scale(self) -> float:
        return float(self.costs.max())


class TestOptimalityGap:
    def test_zero_when_optimal(self):
        assert optimality_gap(10.0, 10.0) == 0.0

    def test_relative_gap(self):
        assert optimality_gap(11.0, 10.0) == pytest.approx(0.1)

    def test_infeasible_charged_full_gap(self):
        assert optimality_gap(None, 10.0) == INFEASIBLE_GAP

    def test_better_than_reference_clamped_to_zero(self):
        assert optimality_gap(9.0, 10.0) == 0.0

    def test_invalid_reference(self):
        with pytest.raises(ValueError):
            optimality_gap(1.0, 0.0)


class TestGapCurve:
    def test_curve_improves_with_better_trials(self):
        history = history_from([(1.0, 0.0, None), (2.0, 1.0, 12.0), (3.0, 1.0, 11.0)])
        curve = gap_curve(history, reference_fitness=10.0, num_trials=3)
        np.testing.assert_allclose(curve, [1.0, 0.2, 0.1])

    def test_curve_padded_with_last_value(self):
        history = history_from([(1.0, 1.0, 10.0)])
        curve = gap_curve(history, reference_fitness=10.0, num_trials=4)
        np.testing.assert_allclose(curve, [0.0, 0.0, 0.0, 0.0])

    def test_curve_is_non_increasing(self):
        history = history_from([(1.0, 1.0, 15.0), (2.0, 1.0, 20.0), (3.0, 1.0, 11.0)])
        curve = gap_curve(history, reference_fitness=10.0, num_trials=3)
        assert all(np.diff(curve) <= 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            gap_curve(TrialHistory(), 10.0, 0)


class TestGapSummary:
    def test_mean_and_confidence_band(self):
        curves = [np.array([0.4, 0.2]), np.array([0.2, 0.0]), np.array([0.3, 0.1])]
        summary = summarise_gap_curves("m", curves)
        np.testing.assert_allclose(summary.mean, [0.3, 0.1])
        assert np.all(summary.lower <= summary.mean)
        assert np.all(summary.upper >= summary.mean)
        assert summary.num_instances == 3

    def test_at_trial_clamps(self):
        summary = summarise_gap_curves("m", [np.array([0.5, 0.25])])
        assert summary.at_trial(1) == 0.5
        assert summary.at_trial(2) == 0.25
        assert summary.at_trial(20) == 0.25
        with pytest.raises(ValueError):
            summary.at_trial(0)

    def test_single_curve_has_zero_band(self):
        summary = summarise_gap_curves("m", [np.array([0.5, 0.25])])
        np.testing.assert_allclose(summary.lower, summary.mean)
        np.testing.assert_allclose(summary.upper, summary.mean)

    def test_requires_curves(self):
        with pytest.raises(ValueError):
            summarise_gap_curves("m", [])

    def test_gap_table_rows(self):
        summaries = {"QROSS": summarise_gap_curves("QROSS", [np.linspace(0.5, 0.0, 20)])}
        rows = gap_table_rows(summaries, trial_numbers=(3, 20))
        assert rows[0]["method"] == "QROSS"
        assert rows[0]["gap@3"] >= rows[0]["gap@20"]


class TestProfiles:
    def test_presets_resolvable(self):
        assert resolve_profile("smoke") is SMOKE
        assert resolve_profile("small") is SMALL
        assert resolve_profile("paper") is PAPER

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("QROSS_PROFILE", raising=False)
        assert resolve_profile() is SMOKE
        monkeypatch.setenv("QROSS_PROFILE", "small")
        assert resolve_profile() is SMALL

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            resolve_profile("gigantic")

    def test_paper_profile_matches_paper_settings(self):
        assert PAPER.num_train_instances == 270
        assert PAPER.num_test_instances == 30
        assert PAPER.min_cities == 20
        assert PAPER.max_cities == 30
        assert PAPER.num_reads == 128
        assert PAPER.num_trials == 20

    def test_scaled_override(self):
        custom = SMOKE.scaled(num_trials=5)
        assert custom.num_trials == 5
        assert custom.num_reads == SMOKE.num_reads

    def test_solver_config_factories(self):
        assert SMOKE.digital_annealer_config().steps_per_variable == SMOKE.da_steps_per_variable
        assert SMOKE.simulated_annealing_config().num_sweeps == SMOKE.sa_num_sweeps
        assert SMOKE.qbsolv_config().subproblem_size == SMOKE.qbsolv_subproblem_size


class TestSolverCallCache:
    def test_caches_repeated_evaluations(self, tsp_problem):
        cache = SolverCallCache()
        solver = RandomSolver()
        parameter = tsp_problem.relaxation_scale()
        service = default_service()
        first = service.evaluate(tsp_problem, solver, parameter, num_reads=8, rng=0, cache=cache)
        second = service.evaluate(tsp_problem, solver, parameter, num_reads=8, rng=1, cache=cache)
        assert cache.hits == 1
        assert cache.misses == 1
        assert first == second

    def test_different_parameters_are_separate_entries(self, tsp_problem):
        cache = SolverCallCache()
        solver = RandomSolver()
        service = default_service()
        service.evaluate(tsp_problem, solver, 1.0, num_reads=4, rng=0, cache=cache)
        service.evaluate(tsp_problem, solver, 2.0, num_reads=4, rng=0, cache=cache)
        assert len(cache) == 2

    def test_adjacent_float_parameters_are_separate_entries(self, tsp_problem):
        # Regression: the key formatted the parameter with ``:.9g``, so A and
        # the next float up shared one entry and the second call silently
        # returned the first one's statistics.
        cache = SolverCallCache()
        solver = RandomSolver()
        parameter = float(tsp_problem.relaxation_scale())
        service = default_service()
        service.evaluate(tsp_problem, solver, parameter, num_reads=4, rng=0, cache=cache)
        service.evaluate(
            tsp_problem, solver, float(np.nextafter(parameter, np.inf)), num_reads=4, rng=0,
            cache=cache,
        )
        assert len(cache) == 2
        assert cache.misses == 2 and cache.hits == 0

    def test_same_backend_different_configs_do_not_collide(self, tsp_problem):
        # Regression: the key used to contain only `solver.name`, so two SA
        # solvers with different sweep budgets shared one entry and the second
        # silently returned the first one's statistics.
        from repro.solvers.simulated_annealing import (
            SimulatedAnnealingConfig,
            SimulatedAnnealingSolver,
        )

        cache = SolverCallCache()
        short = SimulatedAnnealingSolver(SimulatedAnnealingConfig(num_sweeps=5))
        long = SimulatedAnnealingSolver(SimulatedAnnealingConfig(num_sweeps=50))
        parameter = tsp_problem.relaxation_scale()
        service = default_service()
        service.evaluate(tsp_problem, short, parameter, num_reads=4, rng=0, cache=cache)
        service.evaluate(tsp_problem, long, parameter, num_reads=4, rng=0, cache=cache)
        assert len(cache) == 2
        assert cache.misses == 2 and cache.hits == 0
        # Identically-configured solver instances still share an entry.
        service.evaluate(
            tsp_problem,
            SimulatedAnnealingSolver(SimulatedAnnealingConfig(num_sweeps=5)),
            parameter,
            num_reads=4,
            rng=1,
            cache=cache,
        )
        assert cache.hits == 1 and len(cache) == 2

    @pytest.mark.parametrize("pair", ["tsp-mvodm", "one-hot-no-instance"])
    def test_different_encodings_do_not_collide(self, pair):
        # Regression: the key named the problem by its instance's distance
        # hash, else by ``name``.  A plain and an MVODM TSP over one instance
        # shared an entry, and so did any two problems without an instance
        # (both named "problem"); the second was served the first's statistics.
        if pair == "tsp-mvodm":
            instance = generate_instance(6, rng=1)
            first = TSPProblem(instance)
            second = TSPProblem(instance, use_mvodm_preprocessing=True)
        else:
            first, second = _OneHot([1.0, 2.0, 3.0, 4.0]), _OneHot([10.0, 20.0, 30.0, 40.0])
        service = default_service()

        def evaluate(problem, cache):
            return service.evaluate(
                problem, "sa?num_sweeps=200", 60.0, num_reads=8, rng=0, cache=cache
            )

        shared = SolverCallCache()
        evaluate(first, shared)
        served = evaluate(second, shared)
        assert shared.misses == 2 and shared.hits == 0 and len(shared) == 2
        assert served == evaluate(second, SolverCallCache())

    def test_tune_instance_fills_an_empty_caller_cache(self, tsp_problem):
        # Regression: ``cache or SolverCallCache()`` replaced an empty caller
        # cache (falsy through ``__len__``) with a private one.
        cache = SolverCallCache()
        tuner = RandomSearchTuner(default_bounds(tsp_problem), rng=0)
        tune_instance(
            tsp_problem,
            RandomSolver(),
            tuner,
            num_trials=3,
            num_reads=4,
            rng=0,
            cache=cache,
            backend="thread",
        )
        assert cache.misses == 3 and len(cache) == 3

    def test_run_comparison_fills_a_shared_cache(self, tsp_problem):
        cache = SolverCallCache()
        run_comparison(
            [tsp_problem],
            RandomSolver(),
            {"Random": baseline_tuner_factories()["Random"]},
            num_trials=3,
            num_reads=4,
            rng=0,
            cache=cache,
            backend="thread",
        )
        assert cache.hits + cache.misses == 3 and len(cache) == cache.misses > 0

    def test_trials_without_feasible_reads_have_no_best_fitness(self, tsp_problem):
        tuner = RandomSearchTuner(default_bounds(tsp_problem), rng=0)
        history = tune_instance(
            tsp_problem,
            RandomSolver(),
            tuner,
            num_trials=2,
            num_reads=2,
            rng=0,
            backend="thread",
        )
        assert [t.best_fitness for t in history] == [None, None]


class TestDefaultBounds:
    def test_bounds_scale_with_instance(self, tsp_problem):
        bounds = default_bounds(tsp_problem)
        scale = tsp_problem.relaxation_scale()
        assert bounds.low == pytest.approx(0.05 * scale)
        assert bounds.high == pytest.approx(4.0 * scale)

    def test_custom_multipliers(self, tsp_problem):
        bounds = default_bounds(tsp_problem, low_multiplier=0.5, high_multiplier=2.0)
        assert bounds.high / bounds.low == pytest.approx(4.0)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_gap_summaries_contains_methods(self):
        summaries = {
            "QROSS": summarise_gap_curves("QROSS", [np.linspace(0.3, 0.0, 8)]),
            "TPE": summarise_gap_curves("TPE", [np.linspace(0.4, 0.1, 8)]),
        }
        text = format_gap_summaries(summaries, checkpoints=(1, 3, 8))
        assert "QROSS" in text and "TPE" in text
        assert "gap@3" in text

    def test_sparkline_length_and_monotonicity(self):
        line = sparkline([1.0, 0.5, 0.0])
        assert len(line) == 3
        assert line[0] != line[-1]

    def test_sparkline_flat_and_empty(self):
        assert sparkline([]) == ""
        assert len(set(sparkline([2.0, 2.0, 2.0]))) == 1

    def test_sparkline_downsamples(self):
        assert len(sparkline(np.linspace(0, 1, 200), width=40)) == 40
