"""The benchmark's three workloads.

* ``tsp-loop``: the paper's loop as Table 1 runs it, in process on the
  default ``thread`` backend.  For the DA and qbsolv solvers it collects
  training data and fits the surrogate, then tunes fresh instances with
  QROSS, TPE, BO and Random for the full trial budget.
* ``serve``: closed-loop solve-service traffic.  Two clients, each waiting
  for its reply, drive one ``SolveService`` on ``process?max_workers=2``.
* ``mvc-sweep``: training-data collection over large sparse MVC instances
  (the CSR-operator regime) with SA and tabu.

Every input comes from the workload seed; the program receives only the
generated instances and requests.  A workload runs in three steps: ``setup``
builds fresh inputs and program objects (timed as set-up), ``run`` does the
timed work and ``report`` checks the outputs and derives the metrics outside
the timed region.  The batch workloads run whole rounds of identical shape,
so their rates and medians do not depend on how many rounds fit the budget.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.dataset import SamplingPlan, SurrogateDataset, collect_training_data
from repro.core.features import TSPStatisticsExtractor
from repro.core.strategies.composed import ComposedStrategyConfig
from repro.core.surrogate import SolverSurrogate, SurrogateConfig
from repro.experiments.profiles import SMOKE
from repro.experiments.runner import baseline_tuner_factories, qross_tuner_factory, run_comparison
from repro.problems.mvc.instance import MVCInstance
from repro.problems.tsp.generator import SyntheticTSPConfig, generate_instance
from repro.service.distributed import wire
from repro.service.registry import SolverRegistry
from repro.service.requests import SolveRequest
from repro.service.service import SolveService

from checks import (
    Checks,
    FitnessIndex,
    gap_curve_problems,
    mvc_cover_weight,
    same_bytes,
    tsp_feasible_fraction,
    tsp_tour_length,
)
from measure import Ratio, geometric_mean, median, percentile_of
from probes import (
    Loop,
    ProbedMVCProblem,
    ProbedService,
    ProbedSurrogate,
    ProbedTSPProblem,
    Timings,
    probed_factories,
)

#: The smoke profile's sampling plan: 8 coarse + 4 refinement A values, 16 reads.
PLAN = SamplingPlan(
    coarse_multipliers=SMOKE.coarse_multipliers,
    num_refinement_points=SMOKE.num_refinement_points,
    num_reads=SMOKE.num_reads,
)
#: The tuners Table 1 compares, by the names the runner reports.
METHODS = ("QROSS", "TPE", "BO", "Random")
#: A batch round starts only if it is predicted to end within this multiple
#: of the time budget.
BUDGET_SLACK = 1.1

_SMOKE_CONFIGS = {
    "da": SMOKE.digital_annealer_config,
    "qbsolv": SMOKE.qbsolv_config,
    "sa": SMOKE.simulated_annealing_config,
    "tabu": SMOKE.tabu_search_config,
}


def smoke_solver(name: str):
    """A solver sized by the smoke profile, built through the public registry."""
    return SolverRegistry.default().create(name, config=_SMOKE_CONFIGS[name]())


def engine_solver_names() -> Dict[str, str]:
    """The ``solver`` attribute of ``engine.sample`` spans -> short solver name."""
    return {smoke_solver(name).name: name for name in _SMOKE_CONFIGS}


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """An independent stream for one family of inputs of one workload seed."""
    return np.random.default_rng([seed, *path])


def encode_timed(problems, timings: Timings) -> None:
    """The benchmark's own ``encode()`` calls: set-up work, timed per call."""
    for problem in problems:
        started = time.perf_counter()
        problem.encode()
        timings.add("qubo.encode", time.perf_counter() - started)


def tsp_problem(rng, cities: int, index: int, prefix: str, timings: Timings) -> ProbedTSPProblem:
    distribution = ("uniform", "exponential")[index % 2]
    instance = generate_instance(
        cities,
        distribution=distribution,
        config=SyntheticTSPConfig(min_cities=6, max_cities=8),
        rng=rng,
        name=f"{prefix}-{index:02d}-{distribution}-{cities}",
    )
    return ProbedTSPProblem(instance, timings)


def tsp_index(problem: ProbedTSPProblem) -> FitnessIndex:
    distances = np.asarray(problem.instance.distances, dtype=np.float64)
    return FitnessIndex(problem, partial(tsp_tour_length, distances))


def coarse_pf(records, problems_by_name) -> List[float]:
    """Pf of the records on the fixed coarse A grid.

    Refinement points are left out: their A depends on the random stream.
    """
    values = []
    for record in records:
        scale = float(problems_by_name[record.instance_name].relaxation_scale())
        if any(record.parameter == m * scale for m in PLAN.coarse_multipliers):
            values.append(record.probability_of_feasibility)
    return values


def slope(records) -> Ratio:
    """Records on the sigmoid slope (0 < Pf < 1) over all records."""
    return Ratio(sum(1 for r in records if 0.0 < r.probability_of_feasibility < 1.0), len(records))


def another_round_fits(started: float, rounds_started: float, rounds: int, seconds: float) -> bool:
    """Whole rounds only: start one more if it is predicted to end in budget."""
    now = time.perf_counter()
    per_round = (now - rounds_started) / rounds
    return (now - started) + per_round <= seconds * BUDGET_SLACK


def check_answers(checks: Checks, indexes: Dict[str, FitnessIndex]) -> None:
    for name, index in indexes.items():
        if index.answers:
            checks.op(f"fitness answers of {name}", index.bad[:3])


def check_records(checks: Checks, label: str, records, indexes: Dict[str, FitnessIndex]) -> None:
    for record in records:
        checks.op(
            f"{label} {record.instance_name} A={record.parameter:.6g}",
            indexes[record.instance_name].evaluation_problems(
                record.parameter, record.probability_of_feasibility, record.best_fitness
            ),
        )


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _geomean(values) -> float:
    values = [v for v in values if v > 0]
    return geometric_mean(values) if values else 0.0


@dataclass
class Report:
    """What a measured run yields, derived outside the timed region."""

    checks: Checks
    #: End-to-end metrics by their BENCHMARK.json names.
    metrics: Dict[str, float]
    #: The workload's own metrics as ``(name, value, unit, note)``.
    lines: List[Tuple[str, float, str, str]]
    #: Per-layer numbers only the workload can derive (ratios keep their base).
    layers: Dict[str, object] = field(default_factory=dict)


# ------------------------------------------------------------------ tsp-loop
@dataclass
class TspState:
    seed: int
    timings: Timings
    train: List[ProbedTSPProblem]
    tests: List[ProbedTSPProblem]
    solvers: Dict[str, object]
    service: SolveService
    probed: ProbedService


@dataclass
class TspRun:
    rounds: int = 0
    wall: float = 0.0
    offline_s: float = 0.0
    online_s: float = 0.0
    records: Dict[str, list] = field(default_factory=dict)
    comparisons: List[tuple] = field(default_factory=list)
    loops: List[Loop] = field(default_factory=list)
    errors: List[tuple] = field(default_factory=list)


class TspLoop:
    """The paper's loop end to end, as Table 1 runs it."""

    name = "tsp-loop"
    lanes = 1
    solvers = ("da", "qbsolv")
    #: Cities of the training instances; their coordinates come from the seed.
    train_cities = (6, 7, 8)
    #: Cities of the one synthetic test instance tuned per round.
    test_cities = 7
    max_rounds = 6

    def setup(self, seed: int) -> TspState:
        timings = Timings()
        train = [
            tsp_problem(child_rng(seed, 1, i), cities, i, "train", timings)
            for i, cities in enumerate(self.train_cities)
        ]
        tests = [
            tsp_problem(child_rng(seed, 2, i), self.test_cities, i, "test", timings)
            for i in range(self.max_rounds)
        ]
        encode_timed(train + tests, timings)
        for problem in tests:
            problem.reference_fitness()
        service = SolveService(backend="thread")
        solvers = {name: smoke_solver(name) for name in self.solvers}
        return TspState(seed, timings, train, tests, solvers, service, ProbedService(service, timings))

    def teardown(self, state: TspState) -> None:
        state.service.close()

    def run(self, state: TspState, seconds: float, replay: Optional[TspRun] = None) -> TspRun:
        out = TspRun()
        started = time.perf_counter()
        surrogates = {}
        for index, name in enumerate(self.solvers):
            try:
                surrogates[name] = self._offline(state, out, index, name)
            except Exception as exc:  # counted as a failed operation
                out.errors.append((f"offline {name}", exc))
        online_started = time.perf_counter()
        out.offline_s = online_started - started
        limit = replay.rounds if replay is not None else self.max_rounds
        while out.rounds < limit:
            if (
                replay is None
                and out.rounds
                and not another_round_fits(started, online_started, out.rounds, seconds)
            ):
                break
            problem = state.tests[out.rounds]
            for index, name in enumerate(self.solvers):
                if name not in surrogates:
                    continue
                try:
                    self._tune(state, out, index, name, surrogates[name], problem)
                except Exception as exc:  # counted as a failed operation
                    out.errors.append((f"tune {name} {problem.name}", exc))
            out.rounds += 1
        finished = time.perf_counter()
        out.online_s = finished - online_started
        out.wall = finished - started
        return out

    def _offline(self, state: TspState, out: TspRun, index: int, name: str) -> SolverSurrogate:
        solver = state.solvers[name]
        rng = child_rng(state.seed, 3, index)
        records = out.records.setdefault(name, [])
        for problem in state.train:
            with obs.span("bench.collect", solver=name, n=problem.num_qubo_variables):
                dataset = collect_training_data(
                    [problem], solver, extractor=TSPStatisticsExtractor(), plan=PLAN, rng=rng
                )
            records.extend(dataset.records)
        surrogate = SolverSurrogate(
            TSPStatisticsExtractor(),
            config=SurrogateConfig(num_epochs=SMOKE.surrogate_epochs),
            rng=state.seed,
        )
        with state.timings.timed("core.fit", "bench.fit", solver=name):
            surrogate.fit(SurrogateDataset(list(records)), rng=state.seed)
        return surrogate

    def _tune(self, state, out: TspRun, index: int, name: str, surrogate, problem) -> None:
        factories = {
            "QROSS": qross_tuner_factory(
                ProbedSurrogate(surrogate, state.timings),
                config=ComposedStrategyConfig(batch_size=SMOKE.num_reads),
            )
        }
        factories.update(baseline_tuner_factories())
        with obs.span("bench.tune", solver=name, n=problem.num_qubo_variables):
            result = run_comparison(
                [problem],
                state.solvers[name],
                probed_factories(factories, state.timings, out.loops, name),
                num_trials=SMOKE.num_trials,
                num_reads=SMOKE.num_reads,
                rng=child_rng(state.seed, 4, out.rounds, index),
                service=state.probed,
            )
        out.comparisons.append((name, result))

    def report(self, state: TspState, run: TspRun) -> Report:
        checks = Checks()
        problems = {problem.name: problem for problem in state.train + state.tests}
        indexes = {name: tsp_index(problem) for name, problem in problems.items()}
        check_answers(checks, indexes)
        records = []
        for name, solver_records in run.records.items():
            check_records(checks, f"collect {name}", solver_records, indexes)
            records.extend(solver_records)
        loops = []
        for name, result in run.comparisons:
            for loop in result.runs:
                loops.append(loop)
                index = indexes[loop.instance_name]
                for trial in loop.history:
                    checks.op(
                        f"trial {name} {loop.method} {loop.instance_name}",
                        index.evaluation_problems(
                            trial.parameter, trial.probability_of_feasibility, trial.best_fitness
                        ),
                    )
                found = gap_curve_problems(loop.gaps)
                if len(loop.history) != SMOKE.num_trials:
                    found.append(f"{len(loop.history)} trials for a budget of {SMOKE.num_trials}")
                checks.op(f"loop {name} {loop.method} {loop.instance_name}", found)
        for label, exc in run.errors:
            checks.raised(label, exc)

        trials = [trial for loop in loops for trial in loop.history]
        timed_loops = [loop for loop in run.loops if loop.trial_ends]
        per_solver = {
            name: median([loop.seconds for loop in timed_loops if loop.solver == name])
            for name in self.solvers
            if any(loop.solver == name for loop in timed_loops)
        }
        trial_p50 = {
            name: median([t for loop in timed_loops if loop.solver == name for t in loop.trial_seconds])
            for name in per_solver
        }
        pf = coarse_pf(records, problems)
        offline_rate = _rate(len(records), run.offline_s)
        online_rate = _rate(len(trials), run.online_s)
        metrics = {
            # Each phase weighs the same however many tuning rounds fit.
            "evals_per_s": _geomean([offline_rate, online_rate]),
            # A trial is one suggest -> evaluate -> observe step of a loop.
            "latency_p50_ms": 1e3 * _geomean(trial_p50.values()),
            "pf_mean": _mean(pf),
        }
        all_loops = [loop.seconds for loop in timed_loops]
        lines = [
            ("offline_s", run.offline_s, "s",
             f"collection ({len(records)} evals) + surrogate fit, both solvers"),
            ("tune_evals_per_s", online_rate, "evals/s",
             f"{len(trials)} trials in {run.rounds} round(s), {run.online_s:.3f} s"),
            ("tune_loop_p50_s", median(all_loops) if all_loops else 0.0, "s",
             f"n={len(all_loops)} loops; per solver p50 "
             + ", ".join(f"{k}={v:.4f}" for k, v in per_solver.items())),
            ("tune_trial_p50_ms", metrics["latency_p50_ms"], "ms",
             "geometric mean over solvers of the median trial; per solver "
             + ", ".join(f"{k}={1e3 * v:.2f}" for k, v in trial_p50.items())),
            ("pf_mean", metrics["pf_mean"], "Pf", f"{len(pf)} coarse-grid collection evals"),
            ("collect_evals_per_s", offline_rate, "evals/s", "collection evals per offline second"),
        ]
        layers: Dict[str, object] = {
            "core.slope_ratio": slope(records),
            "core.slope_records": len(records),
            "tuning.trials": len(trials),
            "experiments.gap_auc": _mean([gap for loop in loops for gap in loop.gaps]),
        }
        for method in METHODS:
            method_trials = [t for loop in loops if loop.method == method for t in loop.history]
            layers[f"tuning.feasible_ratio.{method}"] = Ratio(
                sum(1 for t in method_trials if t.is_feasible), len(method_trials)
            )
        layers.update(service_counters(state.service))
        return Report(checks, metrics, lines, layers)


def service_counters(service: SolveService) -> Dict[str, object]:
    stats = service.stats()
    return {
        "service.peak_pending": stats.get("peak_pending", 0),
        "service.failed": stats.get("failed", stats.get("failed_total", 0)),
    }


# --------------------------------------------------------------------- serve
@dataclass(frozen=True)
class ServeRequest:
    kind: str
    problem: int
    multiplier: int
    solver: int
    seed: int


@dataclass
class Served:
    request: ServeRequest
    parameter: float
    seconds: float = 0.0
    finished: float = 0.0
    result: object = None
    error: Optional[BaseException] = None


@dataclass
class ServeState:
    seed: int
    timings: Timings
    problems: List[ProbedTSPProblem]
    scales: List[float]
    specs: List[str]
    service: SolveService
    probed: ProbedService
    cache_before: Tuple[int, int]


@dataclass
class ServeRun:
    started: float
    wall: float
    served: List[List[Served]]


class Serve:
    """Closed-loop solve-service traffic on the process backend."""

    name = "serve"
    #: Engine calls that can run at once (pool workers).
    lanes = 2
    backend = "process?max_workers=2"
    clients = 2
    solvers = ("sa", "da", "tabu")
    num_problems = 8
    #: One cycle of request kinds, repeated by every client, so each run has
    #: exactly these shares: 12 new seeded submits, 3 exact repeats of an
    #: earlier submit (served by the dedup cache), 3 submits reusing an
    #: already-shipped model under a new seed and 2 aggregate ``evaluate``
    #: calls (the tuners' path) in every 20 requests.
    cycle = (
        "fresh", "fresh", "repeat", "fresh", "reuse", "fresh", "evaluate",
        "fresh", "fresh", "repeat", "fresh", "reuse", "fresh", "fresh",
        "evaluate", "fresh", "repeat", "fresh", "reuse", "fresh",
    )
    #: Repeats pick among this many of the client's latest submits.
    repeat_window = 32
    #: Throughput is the median over this many equal windows of a run, so a
    #: short stall on the shared host moves one window, not the result.
    windows = 5
    #: Energies are re-derived, and wire sizes computed, for every this-many-th
    #: submit result (and for every repeat).
    check_every = 10

    def setup(self, seed: int) -> ServeState:
        timings = Timings()
        problems = [
            tsp_problem(child_rng(seed, 7, i), 6 + i % 3, i, "serve", timings)
            for i in range(self.num_problems)
        ]
        encode_timed(problems, timings)
        registry = SolverRegistry.default()
        specs = [registry.spec_for(smoke_solver(name)) for name in self.solvers]
        service = SolveService(backend=self.backend)
        # Spawn both workers and import everything before timing, on a problem
        # outside the timed set so no timed model is shipped in advance.
        warm = tsp_problem(child_rng(seed, 8), 6, 0, "warm-up", Timings())
        scale = float(warm.relaxation_scale())
        futures = [
            service.submit(
                SolveRequest(solver=spec, problem=warm, relaxation_parameter=scale,
                             num_reads=PLAN.num_reads, seed=i)
            )
            for i, spec in enumerate(specs * self.clients)
        ]
        for future in futures:
            future.result()
        return ServeState(
            seed,
            timings,
            problems,
            [float(problem.relaxation_scale()) for problem in problems],
            specs,
            service,
            ProbedService(service, timings),
            (service.cache.hits, service.cache.misses),
        )

    def teardown(self, state: ServeState) -> None:
        state.service.close()
        # The spec resolves to a shared backend; closing it stops the worker
        # processes, and the next service resolving the spec spawns new ones.
        state.service.backend.close()

    def requests(self, seed: int, client: int) -> Iterator[ServeRequest]:
        """The client's request stream, a pure function of the seed.

        New requests walk the problems and solvers in turn, so each run sends
        the same mix; the relaxation parameter and solver seed are drawn.
        """
        rng = child_rng(seed, 9, client)
        submitted: List[ServeRequest] = []
        for count in itertools.count():
            kind = self.cycle[count % len(self.cycle)]
            if kind == "repeat":
                window = submitted[-self.repeat_window:]
                request = replace(window[int(rng.integers(len(window)))], kind="repeat")
            elif kind == "reuse":
                request = replace(submitted[-1], kind="reuse", seed=int(rng.integers(2**31)))
            else:
                request = ServeRequest(
                    kind,
                    count % self.num_problems,
                    int(rng.integers(len(PLAN.coarse_multipliers))),
                    count % len(self.solvers),
                    int(rng.integers(2**31)),
                )
            if kind in ("fresh", "reuse"):
                submitted.append(request)
            yield request

    def _client(self, state: ServeState, client: int, deadline: float, limit, served) -> None:
        stream = self.requests(state.seed, client)
        while (len(served) < limit) if limit is not None else (time.perf_counter() < deadline):
            request = next(stream)
            problem = state.problems[request.problem]
            entry = Served(
                request, PLAN.coarse_multipliers[request.multiplier] * state.scales[request.problem]
            )
            spec = state.specs[request.solver]
            started = time.perf_counter()
            with obs.span("bench.request", kind=request.kind, n=problem.num_qubo_variables):
                try:
                    if request.kind == "evaluate":
                        entry.result = state.probed.evaluate(
                            problem, spec, entry.parameter, PLAN.num_reads,
                            rng=np.random.default_rng(request.seed),
                        )
                    else:
                        entry.result = state.service.submit(
                            SolveRequest(solver=spec, problem=problem,
                                         relaxation_parameter=entry.parameter,
                                         num_reads=PLAN.num_reads, seed=request.seed)
                        ).result()
                except Exception as exc:  # counted as a failed request
                    entry.error = exc
            entry.finished = time.perf_counter()
            entry.seconds = entry.finished - started
            served.append(entry)

    def run(self, state: ServeState, seconds: float, replay: Optional[ServeRun] = None) -> ServeRun:
        served: List[List[Served]] = [[] for _ in range(self.clients)]
        limits = [len(s) for s in replay.served] if replay is not None else [None] * self.clients
        started = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._client,
                args=(state, c, started + seconds, limits[c], served[c]),
                name=f"perfbench-client-{c}",
                daemon=True,
            )
            for c in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=3 * seconds + 60)
        wall = time.perf_counter() - started
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a serve client did not finish")
        return ServeRun(started, wall, served)

    def report(self, state: ServeState, run: ServeRun) -> Report:
        checks = Checks()
        indexes = {problem.name: tsp_index(problem) for problem in state.problems}
        check_answers(checks, indexes)
        kinds = {kind: 0 for kind in sorted(set(self.cycle))}
        pf: List[float] = []
        request_bytes: List[int] = []
        reply_bytes: List[int] = []
        submits = 0
        for client in run.served:
            first = {}
            for entry in client:
                request = entry.request
                kinds[request.kind] += 1
                problem = state.problems[request.problem]
                found: List[str] = []
                if entry.error is not None:
                    found.append(f"raised {type(entry.error).__name__}: {entry.error}")
                elif request.kind == "evaluate":
                    found = indexes[problem.name].evaluation_problems(
                        entry.parameter,
                        entry.result.probability_of_feasibility,
                        entry.result.best_fitness,
                    )
                else:
                    samples = entry.result.samples
                    key = (request.problem, request.multiplier, request.solver, request.seed)
                    expected_shape = (PLAN.num_reads, problem.num_qubo_variables)
                    if samples.assignments.shape != expected_shape:
                        found.append(f"sample shape {samples.assignments.shape}")
                    if request.kind == "repeat":
                        original = first.get(key)
                        if original is None or not same_bytes(original, samples):
                            found.append("repeat is not byte-identical to its first result")
                    else:
                        first.setdefault(key, samples)
                        pf.append(tsp_feasible_fraction(problem.num_cities, samples))
                    sampled = submits % self.check_every == 0
                    if sampled or request.kind == "repeat":
                        model = problem.encode().relax(entry.parameter)
                        if not np.array_equal(model.energies(samples.assignments), samples.energies):
                            found.append("energies differ from model.energies(assignments)")
                    if sampled:
                        spec = state.specs[request.solver]
                        request_bytes.append(
                            len(wire.encode_engine_call(model, spec, PLAN.num_reads, request.seed))
                        )
                        reply_bytes.append(len(wire.encode_sample_set(samples)))
                    submits += 1
                checks.op(f"request {request.kind} {problem.name}", found)

        entries = [entry for client in run.served for entry in client]
        latencies_ms = [1e3 * entry.seconds for entry in entries]
        width = run.wall / self.windows
        completed = [0] * self.windows
        classes: Dict[Tuple[str, int], List[float]] = {}
        for entry in entries:
            completed[min(int((entry.finished - run.started) / width), self.windows - 1)] += 1
            key = (entry.request.kind, entry.request.solver)
            classes.setdefault(key, []).append(1e3 * entry.seconds)
        metrics = {
            "evals_per_s": median([_rate(count, width) for count in completed]),
            # Per (kind, solver) class, so the latency clusters of cache hits,
            # tabu, SA and DA cannot trade places at the overall median.
            "latency_p50_ms": _geomean([median(v) for v in classes.values()]),
            "pf_mean": _mean(pf),
        }
        lines = [
            ("req_per_s", metrics["evals_per_s"], "req/s",
             f"median of {self.windows} windows; {len(entries)} requests from "
             f"{self.clients} closed-loop clients in {run.wall:.3f} s; mix "
             + ", ".join(f"{k}={v}" for k, v in kinds.items())),
        ]
        if latencies_ms:
            for name, pct in (("req_p50_ms", 50), ("req_p99_ms", 99)):
                point = percentile_of(latencies_ms, pct)
                lines.append((name, point.value, "ms", point.describe("ms")))
        lines.append(("pf_mean", metrics["pf_mean"], "Pf", f"{len(pf)} submit results"))
        cache = state.service.cache
        hits = cache.hits - state.cache_before[0]
        lookups = hits + cache.misses - state.cache_before[1]
        layers: Dict[str, object] = {
            "service.cache_hit_ratio": Ratio(hits, lookups),
            "service.cache_lookups": lookups,
            "wire.request_kb": _mean(request_bytes) / 1024.0,
            "wire.reply_kb": _mean(reply_bytes) / 1024.0,
        }
        layers.update(service_counters(state.service))
        return Report(checks, metrics, lines, layers)


# ----------------------------------------------------------------- mvc-sweep
def random_edges(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """``m`` distinct undirected edges of an ``n``-vertex G(n, M) random graph."""
    codes = np.zeros(0, dtype=np.int64)
    while codes.size < m:
        pairs = rng.integers(0, n, size=(2 * (m - codes.size) + 64, 2), dtype=np.int64)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        low, high = pairs.min(axis=1), pairs.max(axis=1)
        codes = np.unique(np.concatenate([codes, low * n + high]))
    codes = rng.permutation(codes)[:m]
    return np.column_stack([codes // n, codes % n])


@dataclass
class MvcItem:
    problem: ProbedMVCProblem
    edges: np.ndarray
    weights: np.ndarray


@dataclass
class MvcJob:
    solver: str
    vertices: int
    seconds: float
    records: list


@dataclass
class MvcState:
    seed: int
    timings: Timings
    rounds: List[List[MvcItem]]
    solvers: Dict[str, object]


@dataclass
class MvcRun:
    rounds: int = 0
    wall: float = 0.0
    jobs: List[MvcJob] = field(default_factory=list)
    #: (evaluations, seconds) of every round.
    round_rates: List[Tuple[int, float]] = field(default_factory=list)
    errors: List[tuple] = field(default_factory=list)


class MvcSweep:
    """Collection over large sparse MVC instances, in process."""

    name = "mvc-sweep"
    lanes = 1
    solvers = ("sa", "tabu")
    #: (vertices, edge density) of the instances collected in every round.
    #: A round takes about 7 s on two cores, so three rounds fit a run and
    #: the round rate's median rejects one round slowed by the host.
    shapes = ((1000, 0.01), (1250, 0.008))
    max_rounds = 3

    def setup(self, seed: int) -> MvcState:
        timings = Timings()
        rounds = []
        for r in range(self.max_rounds):
            items = []
            for k, (n, density) in enumerate(self.shapes):
                rng = child_rng(seed, 5, r, k)
                edges = random_edges(rng, n, int(round(density * n * (n - 1) / 2)))
                weights = rng.random(n)
                instance = MVCInstance.from_edges(n, edges, weights=weights, name=f"mvc-{r:02d}-{n}")
                items.append(MvcItem(ProbedMVCProblem(instance, timings), edges, weights))
            rounds.append(items)
        encode_timed([item.problem for items in rounds for item in items], timings)
        return MvcState(seed, timings, rounds, {name: smoke_solver(name) for name in self.solvers})

    def teardown(self, state: MvcState) -> None:
        pass

    def run(self, state: MvcState, seconds: float, replay: Optional[MvcRun] = None) -> MvcRun:
        out = MvcRun()
        started = time.perf_counter()
        limit = replay.rounds if replay is not None else self.max_rounds
        while out.rounds < limit:
            if replay is None and out.rounds and not another_round_fits(started, started, out.rounds, seconds):
                break
            round_started, evals = time.perf_counter(), 0
            for k, item in enumerate(state.rounds[out.rounds]):
                for index, name in enumerate(self.solvers):
                    job_started = time.perf_counter()
                    try:
                        with obs.span("bench.collect", solver=name, n=item.problem.num_qubo_variables):
                            dataset = collect_training_data(
                                [item.problem], state.solvers[name], plan=PLAN,
                                rng=child_rng(state.seed, 6, out.rounds, k, index),
                            )
                    except Exception as exc:  # counted as a failed operation
                        out.errors.append((f"collect {name} {item.problem.name}", exc))
                        continue
                    out.jobs.append(
                        MvcJob(name, item.problem.num_qubo_variables,
                               time.perf_counter() - job_started, dataset.records)
                    )
                    evals += len(dataset.records)
            out.round_rates.append((evals, time.perf_counter() - round_started))
            out.rounds += 1
        out.wall = time.perf_counter() - started
        return out

    def report(self, state: MvcState, run: MvcRun) -> Report:
        checks = Checks()
        items = {item.problem.name: item for items in state.rounds[: run.rounds] for item in items}
        indexes = {
            name: FitnessIndex(item.problem, partial(mvc_cover_weight, item.edges, item.weights))
            for name, item in items.items()
        }
        check_answers(checks, indexes)
        records = []
        for job in run.jobs:
            check_records(checks, f"collect {job.solver}", job.records, indexes)
            records.extend(job.records)
        for label, exc in run.errors:
            checks.raised(label, exc)
        classes: Dict[Tuple[str, int], List[float]] = {}
        for job in run.jobs:
            classes.setdefault((job.solver, job.vertices), []).append(job.seconds)
        per_class = {key: median(values) for key, values in classes.items()}
        pf = coarse_pf(records, {name: item.problem for name, item in items.items()})
        rate = _rate(len(records), run.wall)
        round_rates = [_rate(evals, seconds) for evals, seconds in run.round_rates]
        metrics = {
            # Every round collects the same instance shapes with the same solvers.
            "evals_per_s": median(round_rates),
            # One instance's collection with one solver, per (solver, size)
            # class, so the class mix cannot move it.
            "latency_p50_ms": 1e3 * _geomean(per_class.values()),
            "pf_mean": _mean(pf),
        }
        lines = [
            ("collect_evals_per_s", metrics["evals_per_s"], "evals/s",
             "median round; per round " + ", ".join(f"{r:.4f}" for r in round_rates)
             + f"; overall {rate:.4f} ({len(records)} evals in {run.wall:.3f} s)"),
            ("collect_job_p50_s", metrics["latency_p50_ms"] / 1e3, "s",
             "per (solver, n) p50 " + ", ".join(f"{s}/{n}={v:.3f}" for (s, n), v in per_class.items())),
            ("pf_mean", metrics["pf_mean"], "Pf", f"{len(pf)} coarse-grid collection evals"),
        ]
        layers: Dict[str, object] = {
            "core.slope_ratio": slope(records),
            "core.slope_records": len(records),
        }
        return Report(checks, metrics, lines, layers)


WORKLOADS = {workload.name: workload for workload in (TspLoop, Serve, MvcSweep)}
