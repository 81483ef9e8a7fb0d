"""Tests for the algorithm-portfolio subsystem (repro.portfolio).

Covers the member/spec plumbing, the outcome log, the scheduling strategies
on synthetic outcomes (UCB picks the dominant arm, the sequence exhausts its
schedule, the modeling strategy replans away from a bad first action), the
``portfolio`` registry backend end to end, and the composite-spec grammar
round-trips the registry satellite added.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.portfolio import (
    FixedStrategy,
    ModelingStrategy,
    OutcomeLog,
    OutcomeRecord,
    PortfolioConfig,
    PortfolioModel,
    PortfolioSolver,
    SequenceStrategy,
    SliceOutcome,
    budget_field,
    harvest_outcomes,
    join_member_list,
    slice_solver,
    split_member_list,
    time_to_target,
)
from repro.problems.mvc import MVCProblem, generate_sparse_mvc_instance
from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.model import random_qubo
from repro.qubo.sampleset import SampleSet
from repro.service import SolverRegistry, make_solver
from repro.service.registry import SpecSerializationError, parse_spec, parse_value

MEMBERS = "sa?num_sweeps=8,tabu?num_steps=40"
LIGHT_SPEC = (
    "portfolio?members=sa%3Fnum_sweeps%3D8,tabu%3Fnum_steps%3D40"
    "&strategy=ucb&sweep_budget=24&round_sweeps=8"
)


@pytest.fixture(scope="module")
def model():
    return random_qubo(12, rng=5)


def mvc_pool(count, n=24, density=0.12, seed0=0):
    return [
        MVCProblem(
            generate_sparse_mvc_instance(
                n, edge_density=density, rng=np.random.default_rng(seed), name=f"pool-{seed}"
            )
        )
        for seed in range(seed0, seed0 + count)
    ]


# ------------------------------------------------------------------- members
class TestMembers:
    def test_split_accepts_string_and_sequence(self):
        assert split_member_list("sa, tabu") == ("sa", "tabu")
        assert split_member_list(["sa", "tabu?num_steps=9"]) == ("sa", "tabu?num_steps=9")
        assert join_member_list(" sa ,tabu ") == "sa,tabu"

    def test_split_rejects_empty_and_nested_portfolios(self):
        with pytest.raises(ValueError, match="at least one member"):
            split_member_list(" , ")
        with pytest.raises(ValueError, match="do not nest"):
            split_member_list("sa,portfolio?members=tabu")
        with pytest.raises(ValueError, match="do not nest"):
            split_member_list(["algorithm-portfolio"])

    def test_budget_field_probes_config(self):
        assert budget_field(make_solver("sa")) == "num_sweeps"
        assert budget_field(make_solver("tabu")) == "num_steps"
        assert budget_field(make_solver("da")) == "num_steps"
        with pytest.raises(ValueError, match="budget knob"):
            budget_field(make_solver("random"))

    def test_slice_solver_sets_budget_and_trajectory(self):
        sliced = slice_solver(make_solver("sa?num_sweeps=500"), 7)
        assert sliced.config.num_sweeps == 7
        assert sliced.config.track_trajectory is True
        with pytest.raises(ValueError, match="positive"):
            slice_solver(make_solver("sa"), 0)


# -------------------------------------------------------------- spec grammar
class TestCompositeSpecGrammar:
    def test_parse_value_unquotes_percent_escapes(self):
        assert parse_value("sa%3Fnum_sweeps%3D8") == "sa?num_sweeps=8"
        assert parse_value("plain") == "plain"
        assert parse_value("8") == 8

    def test_parse_spec_carries_member_list(self):
        name, options = parse_spec(LIGHT_SPEC)
        assert name == "portfolio"
        assert options["members"] == MEMBERS
        assert options["sweep_budget"] == 24

    def test_spec_for_roundtrip_with_nested_member_specs(self):
        registry = SolverRegistry.default()
        solver = make_solver(LIGHT_SPEC)
        spec = registry.spec_for(solver)
        rebuilt = make_solver(spec)
        assert rebuilt.config == solver.config
        assert rebuilt.config_fingerprint() == solver.config_fingerprint()

    @pytest.mark.parametrize(
        "members",
        [
            "sa,tabu",
            "sa?num_sweeps=16,pt?num_replicas=4&swap_interval=2",
            "da?num_steps=60&offset_increase_rate=0.5,tabu",
            "qbsolv?max_rounds=2&subsolver_config.num_steps=30,sa",
        ],
    )
    def test_roundtrip_property_over_member_lists(self, members):
        registry = SolverRegistry.default()
        solver = PortfolioSolver(PortfolioConfig(members=members, sweep_budget=50))
        spec = registry.spec_for(solver)
        rebuilt = registry.from_spec(spec)
        assert rebuilt.config == solver.config
        assert rebuilt.config_fingerprint() == solver.config_fingerprint()
        # ... and each member spec individually survives the escape layer.
        for member in split_member_list(members):
            inner = make_solver(member)
            assert make_solver(member).config == inner.config

    def test_plain_solver_specs_are_untouched_by_the_escape_layer(self):
        registry = SolverRegistry.default()
        solver = make_solver("tabu?num_steps=123&tenure=9")
        assert "%" not in registry.spec_for(solver)

    def test_unrepresentable_string_still_raises(self):
        from repro.service.registry import _format_option_value

        # "true" parses back as a bool whichever way it is written.
        with pytest.raises(SpecSerializationError):
            _format_option_value("members", "true")


# -------------------------------------------------------------- outcome log
def _record(instance="i0", spec="sa", best=-1.0, ttt=None, features=(1.0, 2.0), **kw):
    return OutcomeRecord(
        instance=instance,
        features=tuple(features),
        solver_spec=spec,
        budget=100.0,
        best_energy=best,
        time_to_target=ttt,
        **kw,
    )


class TestOutcomeLog:
    def test_record_json_roundtrip(self):
        record = _record(seed=7, relaxation_parameter=2.5)
        again = OutcomeRecord.from_json(record.to_json())
        assert again == record

    def test_from_json_tolerates_unknown_fields(self):
        line = _record().to_json()[:-1] + ',"future_field":42}'
        assert OutcomeRecord.from_json(line) == _record()

    def test_append_persists_and_reloads(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = OutcomeLog(path)
        log.append(_record(instance="a"))
        log.append(_record(instance="b", spec="tabu"))
        reloaded = OutcomeLog.load(path)
        assert len(reloaded) == 2
        assert reloaded.records == log.records
        assert reloaded.instances() == ("a", "b")

    def test_concurrent_appends_interleave_whole_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = OutcomeLog(path)

        def writer(tag):
            for i in range(25):
                log.append(_record(instance=f"{tag}-{i}"))

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reloaded = OutcomeLog.load(path)
        assert len(reloaded) == 200  # every line parsed — no torn writes

    def test_merge_and_for_specs(self):
        a = OutcomeLog()
        a.append(_record(instance="x", spec="sa"))
        b = OutcomeLog()
        b.append(_record(instance="y", spec="tabu"))
        merged = OutcomeLog.merge(a, b)
        assert len(merged) == 2
        assert [r.solver_spec for r in merged.for_specs(["tabu"])] == ["tabu"]

    def test_train_test_split_groups_by_instance(self):
        log = OutcomeLog()
        for name in ("a", "b", "c", "d"):
            for spec in ("sa", "tabu"):
                log.append(_record(instance=name, spec=spec))
        train, test = log.train_test_split(test_fraction=0.25, seed=3)
        assert len(train) + len(test) == 8
        assert not set(train.instances()) & set(test.instances())
        assert all(len(l) % 2 == 0 for l in (train, test))  # pairs stay together
        again = log.train_test_split(test_fraction=0.25, seed=3)
        assert again[1].instances() == test.instances()

    def test_malformed_line_is_a_loud_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(_record().to_json() + "\n{not json\n")
        with pytest.raises(ValueError, match="malformed outcome record"):
            OutcomeLog.load(path)


class TestTimeToTarget:
    def _samples(self, energies, info=None):
        n = len(energies)
        return SampleSet(
            np.zeros((n, 3), dtype=np.int8), np.asarray(energies, float), info=info or {}
        )

    def test_miss_is_none(self):
        assert time_to_target(self._samples([5.0]), target=0.0, budget=30) is None

    def test_hit_without_trajectory_charges_full_budget(self):
        assert time_to_target(self._samples([-1.0]), target=0.0, budget=30) == 30.0

    def test_trajectory_refines_the_crossing_point(self):
        samples = self._samples(
            [-2.0], info={"best_energy_trajectory": [5.0, 1.0, -1.0, -2.0]}
        )
        assert time_to_target(samples, target=-1.0, budget=30) == 3.0


class TestHarvestOutcomes:
    def test_harvest_on_a_small_pool(self):
        problems = mvc_pool(3)
        log = harvest_outcomes(problems, MEMBERS, budget=16, num_reads=2, seed=4)
        assert len(log) == 6
        by_instance = {}
        for record in log:
            assert len(record.features) == 8
            assert record.budget == 16.0
            by_instance.setdefault(record.instance, []).append(record)
        for records in by_instance.values():
            # The self-relative target means at least the per-instance winner
            # registers a finite time-to-target.
            assert any(r.time_to_target is not None for r in records)

    def test_harvest_is_seed_deterministic(self):
        from dataclasses import replace

        problems = mvc_pool(2)
        a = harvest_outcomes(problems, MEMBERS, budget=12, seed=9)
        b = harvest_outcomes(problems, MEMBERS, budget=12, seed=9)
        # Wall-clock time is the one legitimately nondeterministic field.
        mask = lambda log: [replace(r, wall_time_s=None) for r in log]
        assert mask(a) == mask(b)


# --------------------------------------------------------------- strategies
def drive(strategy, members, budget, energy_fn, width_hint=None):
    """Run a strategy loop against a synthetic per-member energy process.

    ``energy_fn(spec, count)`` is the best energy the ``count``-th slice of
    ``spec`` reaches.  Returns (allocated-budget per member, action log).
    """
    strategy.begin(tuple(members), float(budget))
    rng = np.random.default_rng(0)
    allocated = {m: 0.0 for m in members}
    calls = {m: 0 for m in members}
    actions_log = []
    incumbent = float("inf")
    spent = 0.0
    round_index = 0
    while spent < budget:
        actions = strategy.allocate(budget - spent, rng)
        if not actions:
            break
        actions_log.append([spec for spec, _ in actions])
        outcomes = []
        for spec, slice_budget in actions:
            slice_budget = min(slice_budget, budget - spent)
            spent += slice_budget
            allocated[spec] += slice_budget
            energy = energy_fn(spec, calls[spec])
            calls[spec] += 1
            improved = energy < incumbent
            incumbent = min(incumbent, energy)
            outcomes.append(
                SliceOutcome(
                    spec=spec,
                    budget=slice_budget,
                    best_energy=energy,
                    improved=improved,
                    round_index=round_index,
                    cumulative_budget=spent,
                )
            )
        strategy.observe_round(outcomes)
        round_index += 1
    return allocated, actions_log


class TestFixedStrategy:
    def test_whole_budget_in_one_slice(self):
        strategy = FixedStrategy()
        strategy.begin(("a", "b"), 100.0)
        rng = np.random.default_rng(0)
        assert strategy.allocate(100.0, rng) == [("a", 100.0)]
        assert strategy.allocate(0.0, rng) == []

    def test_explicit_spec_must_be_a_member(self):
        strategy = FixedStrategy("c")
        with pytest.raises(ValueError, match="not a member"):
            strategy.begin(("a", "b"), 10.0)


class TestSequenceStrategy:
    def test_exhausts_its_schedule_then_stops(self):
        schedule = [("a", 5.0), ("b", 7.0), ("a", 3.0)]
        strategy = SequenceStrategy(schedule)
        strategy.begin(("a", "b"), 15.0)
        rng = np.random.default_rng(0)
        seen = []
        remaining = 15.0
        while True:
            actions = strategy.allocate(remaining, rng)
            if not actions:
                break
            seen.extend(actions)
            remaining -= sum(b for _, b in actions)
        assert seen == schedule
        assert strategy.allocate(remaining, rng) == []

    def test_default_schedule_splits_evenly(self):
        strategy = SequenceStrategy()
        allocated, _ = drive(strategy, ("a", "b"), 20.0, lambda s, k: 0.0)
        assert allocated == {"a": 10.0, "b": 10.0}

    def test_rejects_non_member_schedule(self):
        strategy = SequenceStrategy([("z", 5.0)])
        with pytest.raises(ValueError, match="not a member"):
            strategy.begin(("a", "b"), 10.0)


class TestModelingStrategy:
    def test_ucb_picks_the_dominant_arm(self):
        # "good" keeps improving, "bad" is flat at 0: after the probe round
        # UCB should route the clear majority of the budget to "good".
        strategy = ModelingStrategy(mode="ucb", round_budget=10.0, width=1)
        allocated, _ = drive(
            strategy,
            ("good", "bad"),
            200.0,
            lambda spec, k: -float(k + 1) if spec == "good" else 0.0,
        )
        assert allocated["good"] > 2 * allocated["bad"]

    def test_epsilon_greedy_also_finds_the_dominant_arm(self):
        strategy = ModelingStrategy(mode="epsilon", round_budget=10.0, width=1, epsilon=0.1)
        allocated, _ = drive(
            strategy,
            ("good", "bad"),
            200.0,
            lambda spec, k: -float(k + 1) if spec == "good" else 0.0,
        )
        assert allocated["good"] > allocated["bad"]

    def test_replanning_reacts_to_a_bad_first_action(self):
        # The model's prior (fit from history) strongly favours "was-good",
        # so round 0 exploits it — but at solve time it has gone bad while
        # "underdog" delivers.  The bandit must shift budget mid-run.
        log = OutcomeLog()
        for i in range(4):
            features = (float(i), 1.0)
            log.append(
                _record(
                    instance=f"h{i}", spec="was-good", best=-10.0, ttt=20.0,
                    features=features, target_energy=-10.0,
                )
            )
            log.append(
                _record(
                    instance=f"h{i}", spec="underdog", best=0.0, ttt=None,
                    features=features, target_energy=-10.0,
                )
            )
        model = PortfolioModel(knn=3).fit(log, ("was-good", "underdog"))
        strategy = ModelingStrategy(mode="ucb", model=model, round_budget=10.0, width=1)
        strategy.begin(("was-good", "underdog"), 200.0, features=(1.0, 1.0))

        rng = np.random.default_rng(0)
        first = strategy.allocate(200.0, rng)
        assert [spec for spec, _ in first] == ["was-good"]  # confident exploit

        allocated, actions_log = drive(
            strategy,
            ("was-good", "underdog"),
            200.0,
            lambda spec, k: -float(k + 1) if spec == "underdog" else 0.0,
        )
        # drive() re-begins the strategy, so round 0 is the confident exploit
        # of "was-good" again; the later rounds must swing to the underdog.
        assert actions_log[0] == ["was-good"]
        late = [specs for specs in actions_log[2:]]
        underdog_rounds = sum(1 for specs in late if specs == ["underdog"])
        assert underdog_rounds > len(late) / 2
        assert allocated["underdog"] > 0

    def test_hopeless_member_is_cancelled(self):
        strategy = ModelingStrategy(
            mode="ucb", round_budget=10.0, width=2, cancel_margin=0.1,
            min_observations=2, exploration=0.05,
        )
        drive(
            strategy,
            ("good", "bad"),
            400.0,
            lambda spec, k: -float(k + 1) if spec == "good" else 0.0,
        )
        assert "bad" in strategy.cancelled

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="ucb"):
            ModelingStrategy(mode="thompson")


class TestPortfolioModel:
    def test_feature_conditioned_priors(self):
        log = OutcomeLog()
        for i in range(5):  # cluster A at feature ~0: "sa" wins
            log.append(_record(instance=f"a{i}", spec="sa", best=-5.0, ttt=10.0,
                               features=(0.0 + i * 0.01, 0.0), target_energy=-5.0))
            log.append(_record(instance=f"a{i}", spec="tabu", best=0.0, ttt=None,
                               features=(0.0 + i * 0.01, 0.0), target_energy=-5.0))
        for i in range(5):  # cluster B at feature ~10: "tabu" wins
            log.append(_record(instance=f"b{i}", spec="tabu", best=-5.0, ttt=10.0,
                               features=(10.0 + i * 0.01, 0.0), target_energy=-5.0))
            log.append(_record(instance=f"b{i}", spec="sa", best=0.0, ttt=None,
                               features=(10.0 + i * 0.01, 0.0), target_energy=-5.0))
        model = PortfolioModel(knn=3).fit(log, ("sa", "tabu"))
        assert model.fitted
        near_a = model.predict((0.0, 0.0))
        near_b = model.predict((10.0, 0.0))
        assert near_a["sa"][0] > near_a["tabu"][0]
        assert near_b["tabu"][0] > near_b["sa"][0]
        assert near_a["sa"][1] == 10.0  # expected cost from successful runs

    def test_unfitted_model_is_neutral(self):
        model = PortfolioModel()
        assert model.predict((1.0,)) == {}
        model.members = ("sa",)
        assert model.predict((1.0,)) == {"sa": (0.5, None)}


# ---------------------------------------------------------- portfolio solver
class TestPortfolioSolver:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="strategy"):
            PortfolioConfig(strategy="greedy")
        with pytest.raises(ValueError, match="sweep_budget"):
            PortfolioConfig(sweep_budget=0)
        with pytest.raises(ValueError, match="do not nest"):
            PortfolioConfig(members="portfolio")

    def test_registered_backend(self):
        registry = SolverRegistry.default()
        assert "portfolio" in registry.names()
        assert isinstance(make_solver("algorithm-portfolio"), PortfolioSolver)

    def test_budgetless_member_fails_fast(self, model):
        solver = PortfolioSolver(PortfolioConfig(members="random,sa", sweep_budget=10))
        with pytest.raises(ValueError, match="budget knob"):
            solver.sample(model, 2, rng=np.random.default_rng(0))

    def test_seeded_solve_is_deterministic(self, model):
        solver = make_solver(LIGHT_SPEC)
        first = solver.sample(model, 4, rng=np.random.default_rng(11))
        again = solver.sample(model, 4, rng=np.random.default_rng(11))
        assert np.array_equal(first.assignments, again.assignments)
        assert np.array_equal(first.energies, again.energies)

    def test_budget_accounting_and_info(self, model):
        solver = make_solver(LIGHT_SPEC + "&track_trajectory=true")
        samples = solver.sample(model, 4, rng=np.random.default_rng(1))
        info = samples.info
        assert info["portfolio_budget_spent"] <= info["portfolio_budget"] == 24.0
        assert sum(info["portfolio_member_budget"].values()) == info["portfolio_budget_spent"]
        assert info["portfolio_slices"] >= len(info["portfolio_members"])
        assert info["portfolio_best_energy"] == pytest.approx(float(samples.energies.min()))
        trajectory = info["portfolio_trajectory"]
        budgets = [b for b, _ in trajectory]
        energies = [e for _, e in trajectory]
        assert budgets == sorted(budgets)
        assert energies == sorted(energies, reverse=True)
        assert budgets[-1] <= info["portfolio_budget_spent"]

    def test_num_reads_contract_with_small_member_reads(self, model):
        solver = make_solver(LIGHT_SPEC + "&member_reads=1")
        samples = solver.sample(model, 6, rng=np.random.default_rng(2))
        assert samples.num_samples == 6

    @pytest.mark.parametrize("strategy", ["fixed", "sequence", "epsilon"])
    def test_every_strategy_solves_and_is_deterministic(self, model, strategy):
        spec = (
            "portfolio?members=sa%3Fnum_sweeps%3D8,tabu%3Fnum_steps%3D40"
            f"&strategy={strategy}&sweep_budget=24&round_sweeps=8"
        )
        solver = make_solver(spec)
        first = solver.sample(model, 2, rng=np.random.default_rng(3))
        again = solver.sample(model, 2, rng=np.random.default_rng(3))
        assert np.array_equal(first.assignments, again.assignments)

    def test_outcome_log_feeds_the_model(self, model, tmp_path):
        path = tmp_path / "outcomes.jsonl"
        harvest_outcomes(
            mvc_pool(2), MEMBERS, budget=12, seed=1, log=OutcomeLog(path)
        )
        spec = LIGHT_SPEC + f"&outcome_log={path}"
        solver = make_solver(spec)
        samples = solver.sample(model, 2, rng=np.random.default_rng(5))
        assert samples.num_samples == 2
        assert solver._portfolio_model().fitted


# ------------------------------------------------------- runner integration
class TestRunnerIntegration:
    def _problems(self):
        return [
            TSPProblem(generate_instance(5, rng=seed, name=f"pf-tsp{seed}"))
            for seed in (0, 1)
        ]

    def test_run_comparison_accepts_portfolio_spec(self):
        from repro.experiments.runner import baseline_tuner_factories, run_comparison

        result = run_comparison(
            self._problems(),
            LIGHT_SPEC,
            {"Random": baseline_tuner_factories()["Random"]},
            num_trials=2,
            num_reads=4,
            rng=7,
        )
        assert len(result.runs) == 2
        assert all(len(run.history) == 2 for run in result.runs)

    def test_solver_none_resolves_environment_default(self, monkeypatch):
        from repro.experiments.runner import (
            COMPARISON_SOLVER_ENV,
            baseline_tuner_factories,
            default_comparison_solver,
            run_comparison,
        )

        monkeypatch.delenv(COMPARISON_SOLVER_ENV, raising=False)
        assert default_comparison_solver() == "da"
        monkeypatch.setenv(COMPARISON_SOLVER_ENV, "sa?num_sweeps=8")
        assert default_comparison_solver() == "sa?num_sweeps=8"
        result = run_comparison(
            self._problems()[:1],
            None,
            {"Random": baseline_tuner_factories()["Random"]},
            num_trials=2,
            num_reads=4,
            rng=3,
        )
        assert len(result.runs) == 1

    def test_solver_none_runs_under_the_ambient_default(self):
        # Deliberately no env manipulation: locally this resolves to "da",
        # while CI's portfolio-canary leg sets QROSS_COMPARISON_SOLVER to a
        # composite portfolio spec — this test is what makes that leg
        # actually route a comparison through the configured default.
        from repro.experiments.runner import baseline_tuner_factories, run_comparison

        result = run_comparison(
            self._problems()[:1],
            None,
            {"Random": baseline_tuner_factories()["Random"]},
            num_trials=2,
            num_reads=4,
            rng=5,
        )
        assert len(result.runs) == 1
        assert result.runs[0].history.best_fitness() is not None

    def test_profile_builds_portfolio_config(self):
        from repro.experiments.datasets import solver_spec
        from repro.experiments.profiles import SMOKE

        solver = make_solver(solver_spec(SMOKE, "portfolio"))
        assert isinstance(solver, PortfolioSolver)
        assert solver.config.sweep_budget == SMOKE.portfolio_sweep_budget
