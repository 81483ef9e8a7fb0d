"""The solve service: deduplicating, thread-pooled QUBO solving.

This is the production entry point the paper's setting implies — many
instances hitting the same solver backends under different relaxation
parameters.  The service accepts :class:`~repro.service.requests.SolveRequest`
objects and

* executes them across a configurable thread pool (:meth:`SolveService.submit`
  returns a future; :meth:`SolveService.map_requests` submits a whole batch),
* dedupes *seeded* requests through :class:`SolverCallCache`: identical
  requests run the engine exactly once, and
* hands every engine call one concrete integer seed: a seeded request is
  byte-identical to
  ``solver.sample(model, num_reads, rng=np.random.default_rng(seed))``
  regardless of pool width or submission order; unseeded requests draw their
  seed from the service's root generator, and :meth:`SolveService.sample` and
  :meth:`SolveService.evaluate` draw one from the caller's ``rng``.

Every call that returns a sample set (:meth:`SolveService.solve`,
:meth:`SolveService.map_requests` and :meth:`SolveService.sample`) is a
:meth:`SolveService.submit`.  The aggregate-statistics path used by
training-data collection and the tuners (:meth:`SolveService.evaluate`) runs
on the same pool, so every solver call in the library flows through one seam.

Where the engine call itself executes is delegated to an
:class:`~repro.service.distributed.backends.ExecutionBackend`: the default
``"thread"`` backend runs it on the service's pool threads, while
``"process"`` ships it over the wire format to a fleet of localhost worker
processes (``"remote"``: to workers elsewhere) — the Python-level portions of
the annealing loops then scale across cores instead of serialising on the
GIL.  Only the seed crosses that boundary, so every request path returns the
same results on every backend.  Select a
backend per service (``SolveService(backend="process")``) or globally via the
``QROSS_EXECUTION_BACKEND`` environment variable.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.problems.base import ConstrainedProblem
from repro.qubo.model import QUBOModel
from repro.qubo.sampleset import SampleSet
from repro.service.admission import AdmissionGate, max_pending_from_env
from repro.service.cache import CachedEvaluation, SolverCallCache
from repro.service.distributed.backends import (
    BackendLike,
    default_worker_count,
    resolve_backend,
)
from repro.service.registry import make_solver
from repro.service.requests import SolveRequest, SolveResult
from repro.solvers.base import QUBOSolver
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive

SolverLike = Union[str, QUBOSolver]

#: Sentinel: the ``max_pending`` bound was not given, read ``QROSS_MAX_PENDING``.
_MAX_PENDING_FROM_ENV = object()


def _draw_seed(rng: np.random.Generator) -> int:
    """One child seed from ``rng``: the only randomness an engine call receives."""
    return int(rng.integers(0, 2**63 - 1))


def _in_context(ctx, fn, *args):
    """``fn(*args)`` under the trace context ``ctx`` (a pool task's caller's)."""
    with obs.use_context(ctx):
        return fn(*args)


class SolveService:
    """Thread-pooled executor of :class:`SolveRequest` batches.

    Parameters
    ----------
    max_workers:
        Width of the request pool (default: modest, CPU-count-capped).
    cache:
        :class:`SolverCallCache` used to dedupe seeded requests.  A private
        cache is created when omitted.  :meth:`evaluate` does not read it; it
        memoises aggregate statistics in its own ``cache=`` argument.
    seed:
        Root seed for the child streams handed to *unseeded* requests.
    backend:
        Where engine calls execute: an
        :class:`~repro.service.distributed.backends.ExecutionBackend`
        instance, a spec string (``"thread"``, ``"process"``,
        ``"process?max_workers=4"``), or ``None`` to read
        ``QROSS_EXECUTION_BACKEND`` (default ``"thread"``).  Backends given
        as spec strings are shared process-wide, so many short-lived services
        reuse one warm worker fleet.
    max_pending:
        Admission bound: how many requests may be in flight (queued or
        running) at once.  Beyond the bound, submissions raise the typed
        :class:`~repro.service.admission.ServiceOverloaded` instead of
        queueing unboundedly — a traffic spike degrades into explicit sheds
        the caller can retry, not into unbounded memory and latency.  When
        omitted the ``QROSS_MAX_PENDING`` environment variable applies;
        ``None`` disables the bound explicitly (the historical behaviour).
        Traffic and shed counters are readable via :meth:`stats`.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[SolverCallCache] = None,
        seed: RngLike = None,
        backend: BackendLike = None,
        max_pending=_MAX_PENDING_FROM_ENV,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if max_pending is _MAX_PENDING_FROM_ENV:
            max_pending = max_pending_from_env()
        self.backend = resolve_backend(backend)
        if max_workers is None:
            # An out-of-process backend is fed by this service's threads, so
            # the thread pool must be at least as wide as the worker pool or
            # workers would idle behind the dispatch bottleneck.
            max_workers = max(
                default_worker_count(), getattr(self.backend, "max_workers", 0)
            )
        self.max_workers = max_workers
        self.cache = cache if cache is not None else SolverCallCache()
        self._root_rng = ensure_rng(seed)
        self._lock = threading.Lock()
        # Striped locks for seeded-request dedup: a fixed array keyed by hash
        # gives the same exactly-once guarantee as one lock per key without
        # growing with the number of distinct requests (collisions merely
        # serialise two unrelated keys occasionally).
        self._key_locks = tuple(threading.Lock() for _ in range(64))
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self._gate = AdmissionGate(max_pending=max_pending, name="service")
        self._served = obs.counter(
            "qross_service_tasks_total",
            labels={"outcome": "served"},
            help="Settled service tasks by outcome",
        ).child()
        self._failed = obs.counter(
            "qross_service_tasks_total", labels={"outcome": "failed"}
        ).child()
        self._latency = {
            path: obs.histogram(
                "qross_service_request_seconds",
                labels={"path": path},
                help="Service request latency by execution path",
            )
            for path in ("seeded", "unseeded")
        }

    # ---------------------------------------------------------------- plumbing
    def _pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("SolveService is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="qross-service"
                )
            return self._executor

    def close(self) -> None:
        """Shut the request pool down; further submissions raise.

        The execution backend is left running: a shared one (resolved from a
        spec string) serves other services, and a caller-provided one is
        closed by its caller.
        """
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def resolve_solver(self, solver: SolverLike) -> QUBOSolver:
        """Spec string -> solver instance (instances pass through)."""
        return make_solver(solver)

    def _spawn_seed(self) -> int:
        """Thread-safe child seed for an unseeded request.

        A concrete integer (not a live generator) is what crosses the backend
        boundary: the executing side — this process or a worker process — runs
        ``default_rng(seed)``, so results do not depend on where the engine
        call lands.
        """
        with self._lock:
            return _draw_seed(self._root_rng)

    def _key_lock(self, key: str) -> threading.Lock:
        return self._key_locks[hash(key) % len(self._key_locks)]

    def _admit_submit(self, tasks: List[tuple]) -> List["Future"]:
        """Admission-gated pool submission of ``(fn, *args)`` tasks.

        Every request path funnels here.  The gate admits the whole batch in
        one call or sheds all of it: a batch that does not fit raises
        :class:`~repro.service.admission.ServiceOverloaded` before anything is
        submitted.  An admitted task releases its slot (and is counted
        served/failed) when its future settles, whatever thread resolves it.
        Tasks the pool refuses (the service is closed) settle at once as
        failed, so every admitted request ends up served or failed.

        When tracing is enabled, the submitting thread's trace context is
        carried onto the pool thread, so spans opened inside a task nest
        under the caller's span instead of starting orphan traces.
        """
        self._gate.acquire(len(tasks))
        ctx = obs.current_context() if obs.tracing_enabled() else None
        futures = []
        try:
            pool = self._pool()
            for task in tasks:
                future = pool.submit(*task) if ctx is None else pool.submit(_in_context, ctx, *task)
                future.add_done_callback(self._task_done)
                futures.append(future)
        except BaseException:
            unsubmitted = len(tasks) - len(futures)
            self._failed.inc(unsubmitted)
            self._gate.release(unsubmitted)
            raise
        return futures

    def _task_done(self, future: "Future") -> None:
        try:
            failed = future.cancelled() or future.exception() is not None
            (self._failed if failed else self._served).inc()
        finally:
            self._gate.release()

    def stats(self) -> dict:
        """Traffic counters: admission, outcomes and the backend's own stats.

        Returns the :class:`AdmissionGate` snapshot (``max_pending`` /
        ``admitted_total`` / ``completed_total`` / ``shed_total`` /
        ``pending`` / ``peak_pending``) plus ``served_total`` /
        ``failed_total`` task outcomes, a ``retried_total`` (transport and
        overload retries, when the backend performs any) and the backend's
        counter snapshot under ``"backend"``.  Keys follow
        :data:`repro.obs.STATS_SCHEMA`.
        """
        data: dict = self._gate.stats()
        data["served_total"] = self._served.value
        data["failed_total"] = self._failed.value
        backend_stats = getattr(self.backend, "stats", None)
        backend = (
            backend_stats() if callable(backend_stats) else {"name": self.backend.name}
        )
        data["backend"] = backend
        data["retried_total"] = backend.get("transport_retries_total", 0) + backend.get(
            "overload_retries_total", 0
        )
        return data

    # ---------------------------------------------------------------- requests
    def submit(self, request: SolveRequest) -> "Future[SolveResult]":
        """Schedule one request; returns a future resolving to its result.

        The request's QUBO is *not* materialised here: problem-based requests
        carry their ``(encoding, A)`` identity and the relaxed model is
        composed lazily by the pool worker (once per parameter, through the
        problem's encoding cache).  An unseeded request draws its seed from
        the service's root generator now, in submission order.
        """
        return self._submit_all([(request, self.resolve_solver(request.solver))])[0]

    def _submit_all(self, batch) -> List["Future[SolveResult]"]:
        """Admit ``(request, solver)`` pairs as one batch, then run each."""
        return self._admit_submit([
            (self._run, request, solver, self._spawn_seed() if request.seed is None else int(request.seed))
            for request, solver in batch
        ])

    def _run(self, request: SolveRequest, solver: QUBOSolver, seed: int) -> SolveResult:
        """Resolve the model and run one engine call with ``seed`` (one pool task).

        Only a request that carries its own seed is deterministic, so only
        such a request dedups through the cache; an unseeded one always runs.
        """
        path = "unseeded" if request.seed is None else "seeded"
        started = time.perf_counter()
        with obs.span(
            "service.solve",
            path=path,
            solver=solver.name,
            num_reads=int(request.num_reads),
            seed=seed,
        ) as sp:
            model = request.resolve_model()
            if request.seed is None:
                samples = self.backend.run(model, solver, request.num_reads, seed)
                from_cache = False
            else:
                key = SolverCallCache.sample_key(model, solver, request.num_reads, seed)
                # Per-key lock: concurrent duplicates wait for the first
                # execution and are then served from the cache — the engine
                # runs exactly once.
                with self._key_lock(key):
                    samples = self.cache.lookup_samples(key)
                    from_cache = samples is not None
                    sp.set(cache="hit" if from_cache else "miss")
                    if not from_cache:
                        samples = self.backend.run(model, solver, request.num_reads, seed)
                        self.cache.store_samples(key, samples)
        self._latency[path].observe(time.perf_counter() - started)
        return SolveResult(
            request=request,
            samples=samples,
            solver_name=solver.name,
            solver_fingerprint=solver.config_fingerprint(),
            from_cache=from_cache,
        )

    def map_requests(self, requests: Iterable[SolveRequest]) -> List[SolveResult]:
        """Submit every request and return the results in input order.

        Every solver is resolved before the first submission, so a bad spec
        anywhere in the batch submits nothing, and the admission gate admits
        the batch whole: a batch that does not fit under ``max_pending`` is
        shed whole (:class:`~repro.service.admission.ServiceOverloaded`, no
        engine call).  Each request then runs as a :meth:`submit` would:
        seeded duplicates dedup through the cache, and every unseeded request
        runs its own engine call with its own seed.
        """
        resolved = [(request, self.resolve_solver(request.solver)) for request in requests]
        return [future.result() for future in self._submit_all(resolved)]

    # ------------------------------------------------------------ conveniences
    def solve(
        self,
        problem_or_model: Union[QUBOModel, ConstrainedProblem, None] = None,
        solver: SolverLike = "sa",
        num_reads: int = 1,
        relaxation_parameter: Optional[float] = None,
        seed: Optional[int] = None,
        label: str = "",
        model: Optional[QUBOModel] = None,
        problem: Optional[ConstrainedProblem] = None,
        **solver_options,
    ) -> SolveResult:
        """One-call solve: build the request, run it, return the result.

        The target may be passed positionally (a model or a problem) or by
        keyword: ``solve(problem=..., relaxation_parameter=...)`` /
        ``solve(model=...)``.  Problem-based calls materialise the relaxed
        QUBO lazily on the worker, through the problem's cached encoding.
        """
        if problem_or_model is not None:
            if model is not None or problem is not None:
                raise ValueError("pass the target either positionally or by keyword, not both")
            if isinstance(problem_or_model, QUBOModel):
                model = problem_or_model
            else:
                problem = problem_or_model
        if (model is None) == (problem is None):
            raise ValueError("provide exactly one of model= or problem=")
        resolved = make_solver(solver, **solver_options)
        if model is not None:
            if relaxation_parameter is not None:
                raise ValueError(
                    "relaxation_parameter only applies when solving a problem; "
                    "a QUBOModel is already built"
                )
            request = SolveRequest(
                solver=resolved, model=model, num_reads=num_reads,
                seed=seed, label=label,
            )
        else:
            request = SolveRequest(
                solver=resolved,
                problem=problem,
                relaxation_parameter=relaxation_parameter,
                num_reads=num_reads,
                seed=seed,
                label=label,
            )
        return self.submit(request).result()

    def sample(
        self,
        model: QUBOModel,
        solver: SolverLike,
        num_reads: int = 1,
        rng: RngLike = None,
    ) -> SampleSet:
        """One solver call on ``model``, seeded from the caller's ``rng``.

        A seeded :meth:`submit`: one child seed is drawn from ``rng``
        (advancing it by exactly one ``integers`` draw), so the result is
        byte-identical on every backend to ``backend.run(model, solver,
        num_reads, seed)``, and a repeat with an equal ``rng`` state is
        served from the cache.
        """
        resolved = self.resolve_solver(solver)  # first: a bad spec draws nothing
        request = SolveRequest(
            solver=resolved, model=model, num_reads=num_reads, seed=_draw_seed(ensure_rng(rng))
        )
        return self.submit(request).result().samples

    def evaluate(
        self,
        problem: ConstrainedProblem,
        solver: SolverLike,
        parameter: float,
        num_reads: int,
        rng: RngLike = None,
        cache: Optional[SolverCallCache] = None,
    ) -> CachedEvaluation:
        """Aggregate statistics of one solver call at relaxation parameter ``A``.

        This is the paper's unit of work — training-data collection and every
        tuning trial are built from it — and the one-element case of
        :meth:`evaluate_many`.  A cache hit returns the stored entry and
        leaves ``rng`` untouched.  A miss draws one child seed from ``rng``,
        then one pool task builds the relaxed model, runs the engine call on
        the execution backend with that seed and summarises the reads against
        the exact problem, all on one thread.  The result is therefore
        byte-identical on every backend.

        ``cache=None`` uses a throwaway cache (no cross-call memory).  Never
        call this from a task running on this service's own pool: the call
        blocks on a second task of the same pool.
        """
        return self.evaluate_many(problem, solver, [parameter], num_reads, rng=rng, cache=cache)[0]

    def evaluate_many(
        self,
        problem: ConstrainedProblem,
        solver: SolverLike,
        parameters: Sequence[float],
        num_reads: int,
        rng: RngLike = None,
        cache: Optional[SolverCallCache] = None,
    ) -> List[CachedEvaluation]:
        """:meth:`evaluate` at every parameter, all misses in one pool task.

        Returns exactly what ``[self.evaluate(problem, solver, A, num_reads,
        rng, cache) for A in parameters]`` returns and leaves ``rng`` in the
        same state: hits draw nothing and every miss draws one child seed, in
        list order.  With a shared ``cache`` a repeated parameter is served
        from its first occurrence; with ``cache=None`` (a throwaway cache per
        parameter) every occurrence is a miss with its own seed.  An empty
        list returns ``[]`` and draws nothing.  A parameter that is not
        finite and positive raises ``ValueError``, as a
        :class:`SolveRequest` does, before any cache lookup, seed draw or
        admission.

        All misses run in one pool task, through one
        :meth:`~repro.service.distributed.backends.ExecutionBackend.run_many`
        call: one kernel call on the thread backend for a solver that batches
        models (:attr:`~repro.solvers.base.QUBOSolver.batches_models`).  The
        call opens a ``service.evaluate`` span (``solver``,
        ``num_parameters``, ``misses``).  The same pool-task caveat as
        :meth:`evaluate` applies.
        """
        parameters = list(parameters)
        for A in parameters:
            check_positive(A, "relaxation_parameter")
        if not parameters:
            return []
        resolved = self.resolve_solver(solver)
        shared = cache is not None
        cache = cache if shared else SolverCallCache()
        keys = [cache.evaluation_key(problem, resolved, A, num_reads) for A in parameters]
        entries: List[Optional[CachedEvaluation]] = [None] * len(parameters)
        misses: List[int] = []
        repeats: List[int] = []  # served from an earlier miss of the same key
        pending = set()
        for index, key in enumerate(keys):
            if shared and key in pending:
                repeats.append(index)
                continue
            entries[index] = cache.lookup(key)
            if entries[index] is None:
                pending.add(key)
                misses.append(index)
        with obs.span(
            "service.evaluate",
            solver=resolved.name,
            num_parameters=len(parameters),
            misses=len(misses),
        ):
            if misses:
                rng = ensure_rng(rng)
                seeds = [_draw_seed(rng) for _ in misses]
                (task,) = self._admit_submit([(
                    self._evaluate_misses,
                    problem,
                    resolved,
                    [parameters[i] for i in misses],
                    num_reads,
                    seeds,
                )])
                fresh = task.result()
                for index, entry in zip(misses, fresh):
                    entries[index] = entry
                    cache.store(keys[index], entry)
            for index in repeats:
                entries[index] = cache.lookup(keys[index])
        return entries  # type: ignore[return-value]

    def _evaluate_misses(
        self,
        problem: ConstrainedProblem,
        solver: QUBOSolver,
        parameters: List[float],
        num_reads: int,
        seeds: List[int],
    ) -> List[CachedEvaluation]:
        """Build, run and summarise evaluations (one pool task, one thread).

        The models run as one ``run_many`` call.  Each ``A`` is then relaxed
        again (a hit in the encoding's relaxation cache) right before its
        reads are scored, so on this thread every fitness answer follows the
        relaxation of its own ``A``, as in a lone evaluation.
        """
        models = [problem.build_qubo(A) for A in parameters]
        batches = self.backend.run_many(models, solver, num_reads, seeds)
        entries = []
        for A, samples in zip(parameters, batches):
            if len(parameters) > 1:
                problem.build_qubo(A)
            entries.append(CachedEvaluation.from_samples(problem, samples))
        return entries


_default_service: Optional[SolveService] = None
_default_service_lock = threading.Lock()


def default_service() -> SolveService:
    """The process-wide service used by :func:`solve` and the experiment loops."""
    global _default_service
    with _default_service_lock:
        if _default_service is None:
            _default_service = SolveService()
        return _default_service


def solve(
    problem_or_model: Union[QUBOModel, ConstrainedProblem, None] = None,
    solver: SolverLike = "sa",
    num_reads: int = 1,
    relaxation_parameter: Optional[float] = None,
    seed: Optional[int] = None,
    label: str = "",
    model: Optional[QUBOModel] = None,
    problem: Optional[ConstrainedProblem] = None,
    **solver_options,
) -> SolveResult:
    """Solve a QUBO (or a problem at a relaxation parameter) in one call.

    >>> result = solve(problem=problem, solver="da", num_reads=64,
    ...                relaxation_parameter=12.5, seed=0)
    >>> result.best_energy

    The target may be positional or keyword (``model=`` / ``problem=``).
    Problem-based calls never densify a sparse encoding and materialise the
    relaxed QUBO lazily on a service worker.  Solver options pass through to
    the registry: ``solve(model, solver="sa", num_sweeps=2000)``.  Runs on the
    shared default :class:`SolveService` (seeded duplicates are served from
    its cache — they are deterministic, so the cached result is exact).
    """
    return default_service().solve(
        problem_or_model,
        solver=solver,
        num_reads=num_reads,
        relaxation_parameter=relaxation_parameter,
        seed=seed,
        label=label,
        model=model,
        problem=problem,
        **solver_options,
    )
