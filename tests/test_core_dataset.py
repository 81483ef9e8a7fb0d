"""Unit tests for surrogate data collection and normalisation (repro.core.dataset)."""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from repro.core.dataset import (
    FeatureNormalizer,
    SamplingPlan,
    SurrogateDataset,
    SurrogateRecord,
    collect_instance_records,
    collect_training_data,
    energy_scale,
    parameter_scale,
)
from repro.core.features import TSPStatisticsExtractor
from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.service import SolverCallCache, default_service
from repro.solvers.digital_annealer import DigitalAnnealerConfig, DigitalAnnealerSolver
from repro.solvers.random_solver import RandomSolver


def make_record(name: str, parameter: float, pf: float) -> SurrogateRecord:
    return SurrogateRecord(
        instance_name=name,
        features=np.array([1.0, 2.0, 3.0]),
        parameter=parameter,
        normalized_parameter=parameter,
        probability_of_feasibility=pf,
        energy_mean=10.0,
        energy_std=1.0,
        normalized_energy_mean=1.0,
        normalized_energy_std=0.1,
    )


class TestScales:
    def test_parameter_scale_matches_problem(self, tsp_problem):
        assert parameter_scale(tsp_problem) == pytest.approx(tsp_problem.relaxation_scale())

    def test_energy_scale_grows_with_size(self):
        small = TSPProblem(generate_instance(6, rng=0))
        large = TSPProblem(generate_instance(12, rng=0))
        assert energy_scale(large) > energy_scale(small)


class TestSurrogateDataset:
    def test_array_views(self):
        dataset = SurrogateDataset([make_record("a", 1.0, 0.5), make_record("b", 2.0, 1.0)])
        assert dataset.features.shape == (2, 3)
        np.testing.assert_allclose(dataset.normalized_parameters, [1.0, 2.0])
        np.testing.assert_allclose(dataset.probabilities, [0.5, 1.0])
        assert len(dataset) == 2

    def test_split_by_instance_no_leakage(self):
        records = [make_record(f"inst-{i}", float(j), 0.5) for i in range(6) for j in range(4)]
        dataset = SurrogateDataset(records)
        train, validation = dataset.split(validation_fraction=0.34, rng=0)
        train_names = {r.instance_name for r in train.records}
        validation_names = {r.instance_name for r in validation.records}
        assert not train_names & validation_names
        assert len(train) + len(validation) == len(dataset)

    def test_split_requires_multiple_instances(self):
        dataset = SurrogateDataset([make_record("only", 1.0, 0.5)] * 5)
        with pytest.raises(ValueError):
            dataset.split(0.2, rng=0)

    def test_split_fraction_validation(self):
        dataset = SurrogateDataset([make_record("a", 1.0, 0.5), make_record("b", 1.0, 0.5)])
        with pytest.raises(ValueError):
            dataset.split(0.0, rng=0)

    def test_summary_fractions_sum_to_one(self):
        dataset = SurrogateDataset(
            [make_record("a", 1.0, 0.0), make_record("a", 2.0, 0.5), make_record("a", 3.0, 1.0)]
        )
        summary = dataset.summary()
        total = (
            summary["fraction_on_slope"]
            + summary["fraction_plateau_zero"]
            + summary["fraction_plateau_one"]
        )
        assert total == pytest.approx(1.0)


class TestFeatureNormalizer:
    def test_transform_standardises(self):
        rng = np.random.default_rng(0)
        features = rng.normal(loc=5.0, scale=2.0, size=(100, 4))
        normalizer = FeatureNormalizer().fit(features)
        transformed = normalizer.transform(features)
        np.testing.assert_allclose(transformed.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(transformed.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_does_not_blow_up(self):
        features = np.column_stack([np.ones(10), np.arange(10.0)])
        transformed = FeatureNormalizer().fit_transform(features)
        assert np.all(np.isfinite(transformed))

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            FeatureNormalizer().transform(np.ones((2, 2)))

    def test_state_roundtrip(self):
        normalizer = FeatureNormalizer().fit(np.random.default_rng(0).normal(size=(20, 3)))
        restored = FeatureNormalizer.from_state(normalizer.state())
        x = np.random.default_rng(1).normal(size=(5, 3))
        np.testing.assert_allclose(restored.transform(x), normalizer.transform(x))


class TestSamplingPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(coarse_multipliers=(1.0,))
        with pytest.raises(ValueError):
            SamplingPlan(coarse_multipliers=(0.5, -1.0))
        with pytest.raises(ValueError):
            SamplingPlan(num_reads=0)
        with pytest.raises(ValueError):
            SamplingPlan(num_refinement_points=-1)


class TestEvaluateParameter:
    def test_returns_consistent_statistics(self, tsp_problem, fast_da_solver):
        parameter = 1.2 * tsp_problem.relaxation_scale()
        pf, mean, std, best = astuple(
            default_service().evaluate(
                tsp_problem, fast_da_solver, parameter, 12, rng=0, cache=SolverCallCache()
            )
        )
        assert 0.0 <= pf <= 1.0
        assert std >= 0.0
        if pf > 0:
            assert best is not None and best > 0
        else:
            assert best is None

    def test_infeasible_region_returns_none_fitness(self, tsp_problem):
        # A tiny parameter makes constraint violations nearly free; random
        # assignments are essentially never valid tours.
        parameter = 1e-6 * tsp_problem.relaxation_scale()
        pf, _, _, best = astuple(
            default_service().evaluate(
                tsp_problem, RandomSolver(), parameter, 16, rng=0, cache=SolverCallCache()
            )
        )
        assert pf == 0.0
        assert best is None


class TestCollection:
    def test_collect_instance_records_covers_plan(self, tsp_problem, fast_da_solver):
        plan = SamplingPlan(coarse_multipliers=(0.2, 0.7, 1.2, 2.0), num_refinement_points=2, num_reads=8)
        records = collect_instance_records(
            tsp_problem, fast_da_solver, TSPStatisticsExtractor(), plan, rng=0
        )
        assert len(records) >= len(plan.coarse_multipliers)
        parameters = [r.parameter for r in records]
        assert parameters == sorted(parameters)
        assert all(r.instance_name == tsp_problem.name for r in records)

    def test_normalised_parameter_uses_instance_scale(self, tsp_problem, fast_da_solver):
        plan = SamplingPlan(coarse_multipliers=(0.5, 1.5), num_refinement_points=0, num_reads=6)
        records = collect_instance_records(
            tsp_problem, fast_da_solver, TSPStatisticsExtractor(), plan, rng=0
        )
        scale = tsp_problem.relaxation_scale()
        for record in records:
            assert record.normalized_parameter == pytest.approx(record.parameter / scale)

    def test_collect_training_data_multiple_instances(self, fast_da_solver):
        problems = [
            TSPProblem(generate_instance(5, rng=seed, name=f"collect-{seed}")) for seed in range(3)
        ]
        plan = SamplingPlan(coarse_multipliers=(0.3, 0.9, 1.5), num_refinement_points=1, num_reads=6)
        dataset = collect_training_data(problems, fast_da_solver, plan=plan, rng=0)
        assert len(dataset.instance_names()) == 3
        assert len(dataset) >= 9

    def test_collect_training_data_requires_problems(self, fast_da_solver):
        with pytest.raises(ValueError):
            collect_training_data([], fast_da_solver)

    def test_refinement_adds_slope_coverage(self, fast_da_solver):
        problem = TSPProblem(generate_instance(6, rng=9))
        no_refine = SamplingPlan(coarse_multipliers=(0.2, 0.8, 1.4, 2.0), num_refinement_points=0, num_reads=8)
        refine = SamplingPlan(coarse_multipliers=(0.2, 0.8, 1.4, 2.0), num_refinement_points=4, num_reads=8)
        base = collect_instance_records(problem, fast_da_solver, TSPStatisticsExtractor(), no_refine, rng=1)
        extended = collect_instance_records(problem, fast_da_solver, TSPStatisticsExtractor(), refine, rng=1)
        assert len(extended) > len(base)
