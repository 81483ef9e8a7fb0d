"""Tuning-comparison runner: QROSS vs the generic baselines, trial by trial.

This is the engine behind Figs. 3-5 and Table 1.  For each test instance and
each method it plays the same game the paper describes: the tuner proposes a
relaxation parameter, the QUBO solver evaluates it with a batch of reads, the
outcome is recorded, and the running best feasible fitness defines the
optimality-gap curve.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.strategies.composed import ComposedStrategyConfig
from repro.core.surrogate import SolverSurrogate
from repro.core.tuner import QROSSTuner
from repro.experiments.metrics import GapSummary, gap_curve, summarise_gap_curves
from repro.problems.base import ConstrainedProblem
from repro.service.cache import SolverCallCache
from repro.service.distributed.backends import BackendLike
from repro.service.service import SolveService, default_service
from repro.solvers.base import QUBOSolver
from repro.tuning.base import ParameterBounds, ParameterTuner, TrialHistory, TrialResult
from repro.tuning.bayesian_optimisation import BayesianOptimisationTuner
from repro.tuning.random_search import RandomSearchTuner
from repro.tuning.tpe import TPETuner
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


def _service_for(
    service: Optional[SolveService], backend: BackendLike
) -> tuple[SolveService, bool]:
    """Resolve the ``service``/``backend`` pair of the runner entry points.

    ``backend`` is sugar for "the default service wiring, but on this
    execution backend"; passing both would be ambiguous.  Returns the service
    plus whether the caller owns (and must close) it — true exactly when a
    service was constructed here for the backend.  Closing such a service
    releases only its thread pool: backends resolved from spec strings are
    process-wide shared instances that stay warm for the next run.
    """
    if backend is None:
        return (service or default_service()), False
    if service is not None:
        raise ValueError("pass either service= or backend=, not both")
    return SolveService(backend=backend), True

#: Signature of a factory producing a tuner for one instance.
TunerFactory = Callable[[ConstrainedProblem, ParameterBounds, np.random.Generator], ParameterTuner]

#: A solver argument: a registry spec, a live solver, or ``None`` for the
#: environment-selected default.
SolverLike = Union[str, QUBOSolver, None]

#: Environment variable naming the comparison runs' default solver spec.
COMPARISON_SOLVER_ENV = "QROSS_COMPARISON_SOLVER"


def default_comparison_solver() -> str:
    """The solver spec used when a runner is called with ``solver=None``.

    Reads ``QROSS_COMPARISON_SOLVER`` (any registry spec, including
    ``portfolio?...`` composites — the CI canary leg runs the whole fast
    suite with a portfolio spec this way) and falls back to the paper's
    Digital Annealer baseline.
    """
    return os.environ.get(COMPARISON_SOLVER_ENV, "").strip() or "da"


def default_bounds(problem: ConstrainedProblem, low_multiplier: float = 0.05, high_multiplier: float = 4.0) -> ParameterBounds:
    """Per-instance search bounds expressed as multiples of the relaxation scale.

    The paper restricts the baselines to ``A in [1, 100]``, a range containing
    every optimal parameter of its synthetic dataset; expressing the range
    relative to each instance's natural scale achieves the same thing across
    differently-sized instances.
    """
    scale = problem.relaxation_scale()
    return ParameterBounds(low=low_multiplier * scale, high=high_multiplier * scale)


def baseline_tuner_factories(rng_offset: int = 0) -> Dict[str, TunerFactory]:
    """The paper's three baselines: TPE, Bayesian Optimisation and Random Search."""

    def tpe(problem: ConstrainedProblem, bounds: ParameterBounds, rng: np.random.Generator) -> ParameterTuner:
        return TPETuner(bounds, rng=rng)

    def bo(problem: ConstrainedProblem, bounds: ParameterBounds, rng: np.random.Generator) -> ParameterTuner:
        return BayesianOptimisationTuner(bounds, rng=rng)

    def random(problem: ConstrainedProblem, bounds: ParameterBounds, rng: np.random.Generator) -> ParameterTuner:
        return RandomSearchTuner(bounds, rng=rng)

    return {"TPE": tpe, "BO": bo, "Random": random}


def qross_tuner_factory(
    surrogate: SolverSurrogate,
    config: ComposedStrategyConfig | None = None,
) -> TunerFactory:
    """Factory producing a :class:`QROSSTuner` bound to a trained surrogate."""

    def factory(problem: ConstrainedProblem, bounds: ParameterBounds, rng: np.random.Generator) -> ParameterTuner:
        return QROSSTuner(surrogate, problem, bounds, config=config, rng=rng)

    return factory


@dataclass
class InstanceRunResult:
    """Trial history and gap curve of one method on one instance."""

    instance_name: str
    method: str
    history: TrialHistory
    gaps: np.ndarray
    reference_fitness: float


@dataclass
class ComparisonResult:
    """Everything produced by a tuning comparison over a set of instances."""

    methods: List[str]
    num_trials: int
    runs: List[InstanceRunResult] = field(default_factory=list)

    def curves(self, method: str) -> List[np.ndarray]:
        return [run.gaps for run in self.runs if run.method == method]

    def summaries(self) -> Dict[str, GapSummary]:
        return {
            method: summarise_gap_curves(method, self.curves(method)) for method in self.methods
        }

    def summary(self, method: str) -> GapSummary:
        return summarise_gap_curves(method, self.curves(method))


def tune_instance(
    problem: ConstrainedProblem,
    solver: SolverLike,
    tuner: ParameterTuner,
    num_trials: int,
    num_reads: int,
    rng: RngLike = None,
    cache: Optional[SolverCallCache] = None,
    service: Optional[SolveService] = None,
    backend: BackendLike = None,
) -> TrialHistory:
    """Run one tuner on one instance for ``num_trials`` solver calls.

    Every evaluation flows through :meth:`SolveService.evaluate` (on the
    shared default service unless ``service`` is given), which draws one child
    seed from ``rng`` per cache miss, so a seeded history is byte-identical on
    every execution backend.  ``backend`` selects where the engine calls
    execute (``"thread"``, ``"process"``, or an
    :class:`~repro.service.distributed.backends.ExecutionBackend`) without
    constructing a service by hand.

    ``solver`` accepts a registry spec string (including ``portfolio?...``
    composites) or a live solver; ``None`` resolves the
    ``QROSS_COMPARISON_SOLVER`` default.
    """
    if num_trials <= 0:
        raise ValueError("num_trials must be positive")
    rng = ensure_rng(rng)
    # ``is None``, not ``or``: an empty cache is falsy through ``__len__``,
    # and the caller's (possibly shared) cache must be the one filled.
    if cache is None:
        cache = SolverCallCache()
    service, owns_service = _service_for(service, backend)
    solver = service.resolve_solver(
        default_comparison_solver() if solver is None else solver
    )
    try:
        history = TrialHistory()
        for _ in range(num_trials):
            parameter = tuner.bounds.clip(tuner.suggest(history))
            outcome = service.evaluate(problem, solver, parameter, num_reads, rng=rng, cache=cache)
            trial = TrialResult(
                parameter=parameter,
                probability_of_feasibility=outcome.probability_of_feasibility,
                best_fitness=outcome.best_fitness,
                energy_mean=outcome.energy_mean,
                energy_std=outcome.energy_std,
            )
            history.append(trial)
            tuner.observe(trial, history)
        return history
    finally:
        if owns_service:
            service.close()


def run_comparison(
    problems: Sequence[ConstrainedProblem],
    solver: SolverLike,
    tuner_factories: Dict[str, TunerFactory],
    num_trials: int,
    num_reads: int,
    rng: RngLike = None,
    cache: Optional[SolverCallCache] = None,
    bounds_fn: Callable[[ConstrainedProblem], ParameterBounds] = default_bounds,
    service: Optional[SolveService] = None,
    backend: BackendLike = None,
    max_parallel: Optional[int] = None,
) -> ComparisonResult:
    """Run every method on every instance and collect gap curves.

    Each (instance, method) pair gets its own child random stream, so adding a
    method or an instance does not perturb the results of the others — and the
    pairs are therefore *independent tuning loops* that can run concurrently.
    ``backend`` selects the execution backend (``"process"`` fans the
    Python-heavy annealing loops out across cores); when it is given, the
    pairs are dispatched over a thread pool of their own (width
    ``max_parallel``, default: the service's worker count) instead of
    sequentially.  Every trial hands its engine call one seed drawn from the
    pair's stream, so results are identical on every backend.  With the
    default per-pair caches (``cache=None``), they are also identical whether
    the pairs run in parallel or not: the per-pair streams are pre-spawned, so
    scheduling order cannot perturb them.  A *shared* ``cache=`` weakens that
    — which pair wins a concurrent miss on a common evaluation key decides
    whose stream advances, so parallel runs may then differ from sequential
    ones.

    ``solver`` may be a spec string (``"da"``, ``"portfolio?members=sa,tabu"``)
    or ``None`` for the ``QROSS_COMPARISON_SOLVER`` default.
    """
    if not problems:
        raise ValueError("at least one problem is required")
    if not tuner_factories:
        raise ValueError("at least one tuner factory is required")
    service, owns_service = _service_for(service, backend)
    solver = service.resolve_solver(
        default_comparison_solver() if solver is None else solver
    )
    result = ComparisonResult(methods=list(tuner_factories), num_trials=num_trials)

    def run_pair(job) -> InstanceRunResult:
        problem, bounds, reference, method, factory, stream = job
        tuner = factory(problem, bounds, stream)
        history = tune_instance(
            problem,
            solver,
            tuner,
            num_trials=num_trials,
            num_reads=num_reads,
            rng=stream,
            cache=cache,
            service=service,
        )
        return InstanceRunResult(
            instance_name=problem.name,
            method=method,
            history=history,
            gaps=gap_curve(history, reference, num_trials),
            reference_fitness=reference,
        )

    if max_parallel is None:
        max_parallel = service.max_workers if backend is not None else 1
    try:
        streams = spawn_rngs(rng, len(problems) * len(tuner_factories))
        stream_index = 0
        jobs = []
        for problem in problems:
            bounds = bounds_fn(problem)
            reference = problem.reference_fitness()
            if reference is None or reference <= 0:
                raise ValueError(f"instance {problem.name!r} has no usable reference fitness")
            for method, factory in tuner_factories.items():
                stream = streams[stream_index]
                stream_index += 1
                jobs.append((problem, bounds, reference, method, factory, stream))

        if max_parallel <= 1 or len(jobs) <= 1:
            result.runs.extend(run_pair(job) for job in jobs)
        else:
            # Fan the independent (instance, method) loops out; each loop's
            # solver calls still flow through the shared service (and its
            # backend).
            with ThreadPoolExecutor(
                max_workers=min(max_parallel, len(jobs)), thread_name_prefix="qross-compare"
            ) as pool:
                result.runs.extend(pool.map(run_pair, jobs))
    finally:
        if owns_service:
            service.close()
    return result
