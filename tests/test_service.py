"""Tests of the public solve-service API: registry, requests, batching service."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.experiments.datasets import solver_spec
from repro.experiments.profiles import resolve_profile
from repro.experiments.runner import default_bounds, tune_instance
from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.model import QUBOModel, random_qubo
from repro.service import (
    CachedEvaluation,
    SolveRequest,
    SolveResult,
    SolverCallCache,
    SolverRegistry,
    SolveService,
    make_solver,
    parse_spec,
)
from repro.service.distributed.backends import ThreadExecutionBackend
from repro.service.registry import parse_value
from repro.solvers.digital_annealer import DigitalAnnealerSolver
from repro.solvers.qbsolv import QbsolvSolver
from repro.solvers.quantum_annealer import QuantumAnnealerSolver
from repro.solvers.random_solver import RandomSolver
from repro.solvers.simulated_annealing import SimulatedAnnealingConfig, SimulatedAnnealingSolver
from repro.solvers.tabu import TabuSearchConfig, TabuSearchSolver
from repro.tuning.random_search import RandomSearchTuner


@pytest.fixture
def model() -> QUBOModel:
    return random_qubo(12, rng=3)


@pytest.fixture
def problem() -> TSPProblem:
    return TSPProblem(generate_instance(6, rng=0, name="svc-tsp"))


# ---------------------------------------------------------------------- registry
class TestSolverRegistry:
    def test_every_backend_registered(self):
        assert SolverRegistry.names() == (
            "da",
            "portfolio",
            "pt",
            "qa",
            "qbsolv",
            "random",
            "sa",
            "tabu",
        )

    @pytest.mark.parametrize(
        "spec, expected_cls",
        [
            ("sa", SimulatedAnnealingSolver),
            ("simulated-annealing", SimulatedAnnealingSolver),
            ("da", DigitalAnnealerSolver),
            ("digital-annealer", DigitalAnnealerSolver),
            ("tabu", TabuSearchSolver),
            ("tabu-search", TabuSearchSolver),
            ("qbsolv", QbsolvSolver),
            ("qa", QuantumAnnealerSolver),
            ("quantum-annealer", QuantumAnnealerSolver),
            ("random", RandomSolver),
            ("SA", SimulatedAnnealingSolver),  # names are case-insensitive
        ],
    )
    def test_spec_resolves_backend(self, spec, expected_cls):
        assert isinstance(make_solver(spec), expected_cls)

    def test_spec_options_reach_the_config(self):
        solver = make_solver("tabu?tenure=16&num_steps=300")
        assert solver.config == TabuSearchConfig(num_steps=300, tenure=16)

    def test_keyword_options_equivalent_to_query(self):
        by_query = make_solver("sa?num_sweeps=2000")
        by_kwargs = make_solver("sa", num_sweeps=2000)
        assert by_query.config == by_kwargs.config

    def test_keyword_overrides_win_over_query(self):
        solver = make_solver("sa?num_sweeps=10", num_sweeps=77)
        assert solver.config.num_sweeps == 77

    def test_spec_round_trip_fingerprint(self):
        # Same spec parsed twice, and the hand-built config, all agree.
        fp = make_solver("tabu?tenure=16").config_fingerprint()
        assert make_solver("tabu?tenure=16").config_fingerprint() == fp
        manual = TabuSearchSolver(TabuSearchConfig(tenure=16))
        assert manual.config_fingerprint() == fp
        # Different options fingerprint differently.
        assert make_solver("tabu?tenure=4").config_fingerprint() != fp

    def test_solver_instance_passes_through(self):
        solver = SimulatedAnnealingSolver(SimulatedAnnealingConfig(num_sweeps=5))
        assert make_solver(solver) is solver
        with pytest.raises(ValueError, match="already-constructed"):
            make_solver(solver, num_sweeps=9)

    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(ValueError, match="unknown solver backend 'sauna'"):
            make_solver("sauna")
        with pytest.raises(ValueError, match="qbsolv"):
            make_solver("sauna")

    def test_unknown_option_lists_valid_fields(self):
        with pytest.raises(ValueError, match="num_sweeps"):
            make_solver("sa?sweeps=10")

    def test_config_and_options_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            SolverRegistry.create(
                "sa", config=SimulatedAnnealingConfig(num_sweeps=5), num_sweeps=9
            )

    def test_configless_backend_rejects_options(self):
        with pytest.raises(ValueError, match="takes no options"):
            make_solver("random?foo=1")

    def test_malformed_specs(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_spec("sa?num_sweeps")
        with pytest.raises(ValueError):
            parse_spec("")
        with pytest.raises(ValueError):
            parse_spec("?tenure=4")

    def test_value_parsing(self):
        assert parse_value("12") == 12 and isinstance(parse_value("12"), int)
        assert parse_value("0.5") == 0.5
        assert parse_value("1e-3") == 1e-3
        assert parse_value("true") is True
        assert parse_value("no") is False
        assert parse_value("none") is None
        assert parse_value("geometric") == "geometric"

    def test_describe_mentions_every_backend(self):
        text = SolverRegistry.describe()
        for name in SolverRegistry.names():
            assert name in text

    def test_private_registry_is_isolated(self):
        registry = SolverRegistry()
        registry.register("only", RandomSolver)
        assert "only" in registry
        assert "only" not in SolverRegistry.default()
        with pytest.raises(ValueError):
            registry.register("only", SimulatedAnnealingSolver)

    def test_alias_conflict_leaves_registry_untouched(self):
        registry = SolverRegistry()
        registry.register("taken", RandomSolver)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("fresh", SimulatedAnnealingSolver, aliases=("taken",))
        # The failed registration must not leave a half-registered backend.
        assert "fresh" not in registry
        with pytest.raises(ValueError, match="unknown solver backend"):
            registry.create("fresh")

    def test_profile_make_solver_delegates_to_registry(self):
        profile = resolve_profile("smoke")
        solver = make_solver(solver_spec(profile, "digital-annealer"))
        assert isinstance(solver, DigitalAnnealerSolver)
        assert solver.config.steps_per_variable == profile.da_steps_per_variable
        assert isinstance(make_solver(solver_spec(profile, "tabu")), TabuSearchSolver)
        assert isinstance(make_solver(solver_spec(profile, "random")), RandomSolver)
        with pytest.raises(ValueError, match="unknown solver backend"):
            solver_spec(profile, "nope")


# ---------------------------------------------------------------------- requests
class TestSolveRequest:
    def test_requires_exactly_one_of_model_or_problem(self, model, problem):
        with pytest.raises(ValueError, match="exactly one"):
            SolveRequest(solver="sa")
        with pytest.raises(ValueError, match="exactly one"):
            SolveRequest(solver="sa", model=model, problem=problem, relaxation_parameter=1.0)

    def test_problem_requires_relaxation_parameter(self, model, problem):
        with pytest.raises(ValueError, match="relaxation_parameter"):
            SolveRequest(solver="sa", problem=problem)
        with pytest.raises(ValueError, match="relaxation_parameter"):
            SolveRequest(solver="sa", model=model, relaxation_parameter=1.0)

    def test_validates_reads_and_seed(self, model):
        with pytest.raises(ValueError):
            SolveRequest(solver="sa", model=model, num_reads=0)
        with pytest.raises(ValueError, match="seed"):
            SolveRequest(solver="sa", model=model, seed="abc")

    def test_rejects_negative_seed_before_admission(self, model):
        # Regression: a negative seed was admitted and then failed inside the
        # engine call, with an error type that depended on the backend.
        with SolveService(max_workers=1) as service:
            for seed in (-1, np.int64(-5)):
                with pytest.raises(ValueError, match="seed"):
                    service.submit(SolveRequest(solver="sa", model=model, seed=seed))
            assert service.stats()["admitted_total"] == 0

    def test_resolve_model_builds_from_problem(self, problem):
        request = SolveRequest(solver="sa", problem=problem, relaxation_parameter=2.5)
        built = request.resolve_model()
        assert built.fingerprint() == problem.build_qubo(2.5).fingerprint()


# ----------------------------------------------------------------------- service
class TestSolveService:
    def test_seeded_submit_matches_direct_sample(self, model):
        solver = SimulatedAnnealingSolver(SimulatedAnnealingConfig(num_sweeps=20))
        with SolveService(max_workers=2) as service:
            result = service.submit(
                SolveRequest(solver=solver, model=model, num_reads=5, seed=123)
            ).result()
        direct = solver.sample(model, num_reads=5, rng=np.random.default_rng(123))
        np.testing.assert_array_equal(result.samples.assignments, direct.assignments)
        np.testing.assert_array_equal(result.samples.energies, direct.energies)
        assert result.solver_name == solver.name
        assert result.solver_fingerprint == solver.config_fingerprint()

    def test_duplicate_seeded_requests_hit_cache_exactly_once(self, model):
        cache = SolverCallCache()
        request = SolveRequest(solver="sa?num_sweeps=15", model=model, num_reads=4, seed=9)
        duplicate = SolveRequest(solver="sa?num_sweeps=15", model=model, num_reads=4, seed=9)
        with SolveService(max_workers=4, cache=cache) as service:
            results = service.map_requests([request, duplicate])
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.num_sample_entries == 1
        assert sorted(r.from_cache for r in results) == [False, True]
        np.testing.assert_array_equal(
            results[0].samples.assignments, results[1].samples.assignments
        )

    def test_caller_cannot_edit_the_cached_sample_set(self):
        # Regression: a seeded hit is the stored SampleSet itself, and its
        # arrays were writable, so a caller's in-place edit changed what every
        # later identical request received.
        model = random_qubo(20, rng=0)
        request = SolveRequest(solver="sa?num_sweeps=20", model=model, num_reads=4, seed=7)
        with SolveService(max_workers=1) as service:
            first = service.submit(request).result().samples
            for array, value in (
                (first.assignments, 0),
                (first.energies, 123.0),
                (first.num_occurrences, 2),
            ):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = value
            again = service.submit(request).result()
        assert again.from_cache
        direct = make_solver("sa?num_sweeps=20").sample(
            model, num_reads=4, rng=np.random.default_rng(7)
        )
        for got, want in (
            (again.samples.assignments, direct.assignments),
            (again.samples.energies, direct.energies),
            (again.samples.num_occurrences, direct.num_occurrences),
        ):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_different_seeds_do_not_dedupe(self, model):
        cache = SolverCallCache()
        with SolveService(max_workers=2, cache=cache) as service:
            results = service.map_requests([
                SolveRequest(solver="sa?num_sweeps=15", model=model, num_reads=2, seed=s)
                for s in (1, 2)
            ])
        assert cache.misses == 2 and cache.hits == 0
        assert not any(r.from_cache for r in results)

    def test_non_finite_relaxation_parameter_is_rejected(self, problem):
        # Regression: NaN and inf passed the positivity check, so evaluate
        # relaxed an all-NaN model and returned Pf 0 with NaN energies.
        with SolveService(max_workers=1) as service:
            with pytest.raises(ValueError, match="relaxation_parameter"):
                service.evaluate(problem, "sa?num_sweeps=10", float("nan"), 4, rng=0)
        with pytest.raises(ValueError, match="relaxation_parameter"):
            SolveRequest(solver="sa", problem=problem, relaxation_parameter=float("inf"))

    def test_map_requests_resolves_every_solver_before_submitting(self, model, monkeypatch):
        solver = make_solver("sa?num_sweeps=10")
        calls = []
        monkeypatch.setattr(solver, "_sample", lambda *args: calls.append(args))
        requests = [
            SolveRequest(solver=solver, model=model, num_reads=2, seed=1),
            SolveRequest(solver=solver, model=model, num_reads=2),
            SolveRequest(solver="no-such-solver", model=model, num_reads=2, seed=2),
        ]
        with SolveService(max_workers=1, backend="thread") as service:
            with pytest.raises(ValueError, match="unknown solver backend"):
                service.map_requests(requests)
            assert service.stats()["admitted_total"] == 0
        assert calls == []

    def test_map_requests_runs_each_unseeded_request_on_its_own_call(self, model, monkeypatch):
        # Unseeded requests for one (model, solver) are never merged: each is
        # its own engine call, with its own seed from the service root.
        solver = make_solver("tabu?num_steps=40")
        calls = []
        original = solver._sample
        monkeypatch.setattr(
            solver,
            "_sample",
            lambda m, num_reads, rng: calls.append(
                (num_reads, rng.bit_generator.state["state"]["state"])
            )
            or original(m, num_reads, rng),
        )
        with SolveService(max_workers=1, seed=0, backend="thread") as service:
            results = service.map_requests(
                [SolveRequest(solver=solver, model=model, num_reads=r) for r in (3, 5, 2)]
            )
            assert service.stats()["admitted_total"] == 3
        assert [num_reads for num_reads, _ in calls] == [3, 5, 2]
        assert len({state for _, state in calls}) == 3
        assert [r.num_samples for r in results] == [3, 5, 2]
        for result in results:
            assert not result.from_cache
            recomputed = model.energies(result.samples.assignments.astype(float))
            np.testing.assert_allclose(result.samples.energies, recomputed)

    def test_map_requests_preserves_input_order(self, model):
        with SolveService(max_workers=4) as service:
            results = service.map_requests([
                SolveRequest(solver="sa?num_sweeps=10", model=model, num_reads=1,
                             seed=i, label=f"req-{i}")
                for i in range(6)
            ])
        assert [r.request.label for r in results] == [f"req-{i}" for i in range(6)]

    def test_map_requests_seeded_results_identical_to_direct(self, model):
        solver = TabuSearchSolver(TabuSearchConfig(num_steps=30))
        requests = [
            SolveRequest(solver=solver, model=model, num_reads=3, seed=s) for s in range(4)
        ]
        with SolveService(max_workers=4) as service:
            results = service.map_requests(requests)
        for seed, result in zip(range(4), results):
            direct = solver.sample(model, num_reads=3, rng=np.random.default_rng(seed))
            np.testing.assert_array_equal(result.samples.assignments, direct.assignments)

    def test_solve_with_problem_and_options(self, problem):
        with SolveService(max_workers=1) as service:
            result = service.solve(
                problem,
                solver="sa",
                num_sweeps=25,
                relaxation_parameter=problem.relaxation_scale(),
                num_reads=4,
                seed=0,
            )
        assert isinstance(result, SolveResult)
        assert result.num_samples == 4
        assert result.request.problem is problem

    def test_solve_rejects_relaxation_parameter_with_model(self, model):
        with SolveService(max_workers=1) as service:
            with pytest.raises(ValueError, match="relaxation_parameter"):
                service.solve(model, solver="random", relaxation_parameter=2.0)

    def test_sample_store_is_lru_bounded(self, model, monkeypatch):
        monkeypatch.setattr("repro.service.cache.SAMPLE_CACHE_SIZE", 2)
        cache = SolverCallCache()
        with SolveService(max_workers=1, cache=cache) as service:
            for seed in range(4):
                service.solve(model, solver="random", num_reads=1, seed=seed)
        assert cache.num_sample_entries == 2
        # Evicted seeded requests simply re-run (a miss), bitwise identically.
        with SolveService(max_workers=1, cache=cache) as service:
            rerun = service.solve(model, solver="random", num_reads=1, seed=0)
        assert not rerun.from_cache
        direct = RandomSolver().sample(model, num_reads=1, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(rerun.samples.assignments, direct.assignments)

    def test_top_level_solve_is_exported(self, model):
        result = repro.solve(model, solver="random", num_reads=3, seed=1)
        direct = RandomSolver().sample(model, num_reads=3, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(result.samples.assignments, direct.assignments)

    def test_closed_service_rejects_submissions(self, model):
        service = SolveService(max_workers=1)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(SolveRequest(solver="random", model=model))

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            SolveService(max_workers=0)

    def test_evaluate_respects_shared_cache(self, problem):
        solver = SimulatedAnnealingSolver(SimulatedAnnealingConfig(num_sweeps=20))
        cache = SolverCallCache()
        parameter = float(problem.relaxation_scale())
        with SolveService(max_workers=1, cache=cache) as service:
            first = service.evaluate(problem, solver, parameter, 4, rng=0, cache=cache)
            second = service.evaluate(problem, solver, parameter, 4, rng=0, cache=cache)
        assert first == second
        assert cache.hits == 1 and cache.misses == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("mixed", [False, True], ids=["alone", "mixed"])
    def test_evaluate_rejects_bad_parameter_before_admission(self, problem, bad, mixed):
        class CountingBackend(ThreadExecutionBackend):
            calls = 0

            def run(self, model, solver, num_reads, seed):
                CountingBackend.calls += 1
                return super().run(model, solver, num_reads, seed)

            def run_many(self, models, solver, num_reads, seeds):
                CountingBackend.calls += 1
                return super().run_many(models, solver, num_reads, seeds)

        scale = float(problem.relaxation_scale())
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with SolveService(max_workers=1, backend=CountingBackend()) as service:
            before = service.stats()
            with pytest.raises(ValueError, match="relaxation_parameter"):
                if mixed:
                    service.evaluate_many(problem, "sa?num_sweeps=4", [scale, bad, 2 * scale], 2, rng=rng)
                else:
                    service.evaluate(problem, "sa?num_sweeps=4", bad, 2, rng=rng)
            after = service.stats()
        assert CountingBackend.calls == 0
        assert rng.bit_generator.state == state
        assert after["admitted_total"] == before["admitted_total"]
        assert after["failed_total"] == before["failed_total"]


# ----------------------------------------------------------- tuning through service
class TestTuningThroughService:
    def test_tune_instance_identical_to_legacy_loop(self, problem):
        solver = SimulatedAnnealingSolver(SimulatedAnnealingConfig(num_sweeps=20))
        bounds = default_bounds(problem)

        # Any backend: every trial's engine call receives a concrete seed.
        with SolveService(max_workers=2) as service:
            history = tune_instance(
                problem, solver, RandomSearchTuner(bounds, rng=0),
                num_trials=4, num_reads=6, rng=0, service=service,
            )

        # Replay the loop by hand: each trial draws one child seed from the
        # tuning stream, samples the relaxed model with it and summarises.
        tuner = RandomSearchTuner(bounds, rng=0)
        rng = np.random.default_rng(0)
        from repro.tuning.base import TrialHistory, TrialResult

        legacy = TrialHistory()
        for _ in range(4):
            parameter = tuner.bounds.clip(tuner.suggest(legacy))
            seed = int(rng.integers(0, 2**63 - 1))
            samples = solver.sample(
                problem.build_qubo(parameter), num_reads=6, rng=np.random.default_rng(seed)
            )
            outcome = CachedEvaluation.from_samples(problem, samples)
            trial = TrialResult(
                parameter=parameter,
                probability_of_feasibility=outcome.probability_of_feasibility,
                best_fitness=outcome.best_fitness,
                energy_mean=outcome.energy_mean,
                energy_std=outcome.energy_std,
            )
            legacy.append(trial)
            tuner.observe(trial, legacy)

        assert [t.parameter for t in history] == [t.parameter for t in legacy]
        assert [t.energy_mean for t in history] == [t.energy_mean for t in legacy]
        assert [t.probability_of_feasibility for t in history] == [
            t.probability_of_feasibility for t in legacy
        ]
