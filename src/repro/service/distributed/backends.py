"""Execution backends: where a solver call actually runs.

The :class:`~repro.service.service.SolveService` orchestrates requests
(grouping, caching, RNG discipline) on its thread pool; the *engine call* —
``solver.sample(model, num_reads, rng)`` — is delegated to an
:class:`ExecutionBackend`:

* :class:`ThreadExecutionBackend` runs the call in the submitting thread.
  This is the default: numpy kernels release the GIL and states never cross
  a process boundary.
* :class:`ProcessPoolBackend` ships the call to a pool of worker processes
  over the :mod:`~repro.service.distributed.wire` format.  The Python-level
  portions of the annealing loops (schedule bookkeeping, tabu steps, qbsolv
  decomposition) then run on as many cores as there are workers instead of
  serialising on one GIL.

Determinism contract: every backend receives a *concrete integer seed* and
runs ``default_rng(seed)``, so the same call produces byte-identical
assignments and energies on every backend.  A seed is the only way randomness
enters an engine call; no backend accepts a live generator.  The worker
re-resolves its solver from the registry spec string
(:meth:`SolverRegistry.spec_for` guarantees the spec reproduces the parent
solver's config fingerprint); solvers whose config cannot be spec-serialised
fall back to in-process execution — transparently, because the seed
discipline makes both paths produce the same samples.

A third backend lives in :mod:`repro.service.remote`:
:class:`~repro.service.remote.backend.RemoteBackend` ships the same frames
over TCP to a fleet of standalone worker servers on other machines (or other
containers), with load balancing, retries and admission control.

Backends are selected per service via ``SolveService(backend=...)`` or
globally via the ``QROSS_EXECUTION_BACKEND`` environment variable
(``thread`` — the default —, ``process`` or ``remote``, optionally with
options such as ``process?max_workers=4`` or
``remote?workers=10.0.0.5:7070,10.0.0.6:7070``).  Backends resolved from
specs are *shared* process-wide so that many short-lived services reuse one
worker pool.
"""

from __future__ import annotations

import abc
import atexit
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Optional, Union

import numpy as np

from repro import obs
from repro.qubo.model import QUBOModel
from repro.qubo.sampleset import SampleSet
from repro.service.registry import SpecSerializationError, parse_spec
from repro.solvers.base import QUBOSolver

#: Environment variable selecting the default execution backend for services
#: constructed without an explicit ``backend=``.
EXECUTION_BACKEND_ENV = "QROSS_EXECUTION_BACKEND"


def default_worker_count() -> int:
    """Pool width used when nothing is configured: modest, laptop-friendly."""
    return min(8, os.cpu_count() or 1)


class ExecutionBackend(abc.ABC):
    """Where one engine call (``solver.sample``) executes.

    ``run`` is blocking — the service calls it from its own worker threads, so
    a backend only needs to execute one call at a time per calling thread and
    may parallelise across calls however it likes.  The call's randomness is
    the integer ``seed`` alone: ``run`` must return what
    ``solver.sample(model, num_reads, rng=default_rng(seed))`` returns, which
    is what makes every backend interchangeable.
    """

    #: Short name used in specs, logs and result metadata.
    name: str = "backend"

    @abc.abstractmethod
    def run(
        self, model: QUBOModel, solver: QUBOSolver, num_reads: int, seed: int
    ) -> SampleSet:
        """Execute one engine call with the deterministic stream ``default_rng(seed)``."""

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has retired this backend (stateless: never)."""
        return False

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ThreadExecutionBackend(ExecutionBackend):
    """Run engine calls in the submitting thread (the historical behaviour)."""

    name = "thread"

    def run(
        self, model: QUBOModel, solver: QUBOSolver, num_reads: int, seed: int
    ) -> SampleSet:
        return solver.sample(model, num_reads=num_reads, rng=np.random.default_rng(int(seed)))


# ------------------------------------------------------------ worker process side
#
# Everything below the pool boundary must be importable by a *spawned*
# interpreter: module-level functions only, no closures, no state captured at
# submission time.  The worker receives wire frames (bytes), never live
# objects.

#: Bound on solvers memoised per worker, keyed by spec — an LRU like the model
#: memo, just with a looser bound (config dataclasses are tiny; the bound
#: exists so a grid sweeping thousands of distinct specs cannot grow a
#: worker's memory without limit).
_WORKER_SOLVER_LIMIT = 64

_spawn_names: Optional[frozenset] = None


def _spawn_resolvable_names() -> frozenset:
    """Backend names a spawn-fresh default registry resolves (bundled only).

    The parent's default registry may have gained runtime registrations that
    a fresh worker interpreter will not have; building a pristine registry
    once gives the exact vocabulary workers share.
    """
    global _spawn_names
    if _spawn_names is None:
        from repro.service.registry import _build_default_registry

        _spawn_names = frozenset(_build_default_registry()._by_alias)
    return _spawn_names


#: Bound on decoded models memoised per worker, keyed by fingerprint — an LRU,
#: so a working set cycling within the bound always hits.  The bound is small
#: because entries can be large (a dense n x n float64 each); a sweep
#: typically cycles over one or two models, and an evicted model is simply
#: re-shipped on its next by-reference miss.  The parent mirrors this bound
#: (:attr:`ProcessPoolBackend._shipped_models`), so working sets larger than
#: the memo fall back to always-full payloads instead of paying a guaranteed
#: ref-miss round trip per call.
_WORKER_MODEL_LIMIT = 8


class EngineCallRunner:
    """Worker-side execution of engine-call frames (frame in, frame out).

    This is the one piece of logic every kind of worker shares — pool
    processes and remote TCP workers alike: decode an engine-call frame,
    re-resolve the solver from its registry spec (memoised — config
    dataclasses are cheap, but the registry round-trip validation is not
    free), run it under ``default_rng(seed)`` so results match the thread
    backend bit for bit, and encode the sample set.  Calls may reference a
    previously-shipped model by fingerprint; a runner that does not hold it
    answers ``model_miss`` and the caller retries with the full payload.

    Memoisation is guarded by a lock (remote workers execute calls from
    several connection threads at once); the engine call itself runs outside
    the lock, so concurrent solves proceed in parallel.
    """

    def __init__(
        self,
        model_limit: int = _WORKER_MODEL_LIMIT,
        solver_limit: int = _WORKER_SOLVER_LIMIT,
    ) -> None:
        self._models: "OrderedDict[str, QUBOModel]" = OrderedDict()
        self._solvers: "OrderedDict[str, QUBOSolver]" = OrderedDict()
        self._model_limit = model_limit
        self._solver_limit = solver_limit
        self._lock = threading.Lock()
        self._solve_seconds = obs.histogram(
            "qross_worker_solve_seconds",
            help="Worker-side engine-call execution latency",
        )

    def _resolve_model(self, header: dict, buffers) -> Optional[QUBOModel]:
        ref = header.get("model_ref")
        with self._lock:
            if ref is not None:
                model = self._models.get(ref)
                if model is not None:
                    self._models.move_to_end(ref)
                return model
        model = QUBOModel.from_wire(header["model"], buffers)
        with self._lock:
            while len(self._models) >= self._model_limit:
                self._models.popitem(last=False)
            self._models[model.fingerprint()] = model
        return model

    def _resolve_solver(self, spec: str) -> QUBOSolver:
        from repro.service.registry import make_solver

        with self._lock:
            solver = self._solvers.get(spec)
            if solver is not None:
                self._solvers.move_to_end(spec)
                return solver
        solver = make_solver(spec)
        with self._lock:
            while len(self._solvers) >= self._solver_limit:
                self._solvers.popitem(last=False)
            self._solvers[spec] = solver
        return solver

    def execute(self, payload: bytes) -> bytes:
        """One engine-call frame -> a sample-set (or ``model_miss``) frame.

        When the frame carries a propagated ``trace`` context (protocol ≥ 2)
        the solve runs under it, so worker-side spans stitch into the calling
        client's trace tree.
        """
        from repro.service.distributed import wire

        _, header, buffers = wire.decode_frame(payload, expected_kind="engine_call")
        model = self._resolve_model(header, buffers)
        if model is None:
            return wire.encode_model_miss(str(header["model_ref"]))
        spec = str(header["solver_spec"])
        solver = self._resolve_solver(spec)
        started = time.perf_counter()
        with obs.adopt_wire_context(header.get("trace")):
            with obs.span("worker.solve", solver_spec=spec, num_reads=int(header["num_reads"])):
                samples = solver.sample(
                    model,
                    num_reads=int(header["num_reads"]),
                    rng=np.random.default_rng(int(header["seed"])),
                )
        self._solve_seconds.observe(time.perf_counter() - started)
        return wire.encode_sample_set(samples)


#: The per-process runner used by pool workers.  Module-level so the state
#: survives across calls inside one spawned worker (that persistence is the
#: whole point of the model memo).
_WORKER_RUNNER = EngineCallRunner()


def _execute_engine_call(payload: bytes) -> bytes:
    """Pool-worker entry point (must stay a module-level function: the
    parent submits it by reference and spawn pickles that reference)."""
    return _WORKER_RUNNER.execute(payload)


class SolverSpecCache:
    """Memoised solver -> registry-spec mapping for shipping solver identity.

    The fingerprint *is* the identity the spec must reproduce (``spec_for``
    validates exactly that), so it is a collision-safe memo key — unlike
    ``id()``, which the allocator reuses.  A spec is only accepted when a
    *spawn-fresh* registry can resolve it: backends registered at runtime in
    this process do not exist in a worker started elsewhere, so their solvers
    must take the caller's in-process fallback instead of crashing the worker.
    Failures memoise too (as ``""``), so a sweep over an unserialisable solver
    pays the spec round-trip once, not once per engine call.

    Shared by every backend that ships calls out of this process (the process
    pool and the remote TCP client).
    """

    def __init__(self) -> None:
        self._cache: Dict[str, str] = {}
        self._lock = threading.Lock()

    def spec_for(self, solver: QUBOSolver) -> str:
        """The spec shipping ``solver``, or :class:`SpecSerializationError`."""
        from repro.service.registry import SolverRegistry

        key = f"{type(solver).__qualname__}:{solver.config_fingerprint()}"
        spec = self._cache.get(key)
        if spec is None:
            try:
                spec = SolverRegistry.default().spec_for(solver)
                name, _ = parse_spec(spec)
                if name not in _spawn_resolvable_names():
                    raise SpecSerializationError(
                        f"backend {name!r} was registered at runtime; a spawned "
                        f"worker's registry cannot resolve it"
                    )
            except SpecSerializationError:
                spec = ""
            with self._lock:
                if len(self._cache) > 1024:
                    self._cache.clear()
                self._cache[key] = spec
        if not spec:
            raise SpecSerializationError(
                f"{type(solver).__qualname__} is not spec-serialisable "
                f"(memoised); running in-process"
            )
        return spec


class ProcessPoolBackend(ExecutionBackend):
    """Execute engine calls on a pool of spawn-safe worker processes.

    Parameters
    ----------
    max_workers:
        Number of worker processes (default: CPU-count-capped like the
        service's thread pool).
    mp_context:
        ``multiprocessing`` start-method name.  The default ``"spawn"`` gives
        every worker a fresh interpreter — no inherited locks, thread pools or
        solver state — which is the only start method that is safe under an
        actively multi-threaded parent on every platform.

    Solver instances whose configuration cannot be expressed as a registry
    spec (:class:`~repro.service.registry.SpecSerializationError`) are run
    in-process instead — byte-identically, since both paths use
    ``default_rng(seed)``.
    """

    name = "process"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        mp_context: str = "spawn",
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers or default_worker_count()
        self.mp_context = mp_context
        self._fallback = ThreadExecutionBackend()
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._specs = SolverSpecCache()
        # LRU of recently-shipped model fingerprints: calls for these try the
        # compact by-reference frame first (workers memoise models, and a
        # miss — different worker, eviction, worker restart — just retries in
        # full, so this is an optimisation, not a contract).  Its capacity
        # mirrors the workers' model memo: a working set too large for the
        # workers to hold ships full payloads directly instead of paying a
        # guaranteed ref-miss round trip on every call.
        self._shipped_models: "OrderedDict[str, bool]" = OrderedDict()

    # ---------------------------------------------------------------- plumbing
    def _executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("ProcessPoolBackend is closed")
            if self._pool is None:
                import multiprocessing

                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=multiprocessing.get_context(self.mp_context),
                )
            return self._pool

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    @property
    def closed(self) -> bool:
        return self._closed

    # -------------------------------------------------------------- execution
    def run(
        self, model: QUBOModel, solver: QUBOSolver, num_reads: int, seed: int
    ) -> SampleSet:
        from repro.service.distributed import wire

        try:
            spec = self._specs.spec_for(solver)
        except SpecSerializationError:
            # Not expressible on the wire (custom solver class / exotic
            # config): run it here.  Same seed discipline, same samples.
            return self._fallback.run(model, solver, num_reads, seed)
        fingerprint = model.fingerprint()
        with self._lock:
            try_ref = fingerprint in self._shipped_models
            if try_ref:
                self._shipped_models.move_to_end(fingerprint)
        trace = obs.wire_context()
        if try_ref:
            payload = wire.encode_engine_call_ref(
                fingerprint, spec, num_reads, int(seed), trace=trace
            )
            samples = self._dispatch(payload)
            if samples is not None:
                return samples
            # The serving worker did not hold the model (different worker,
            # eviction, restart): fall through and ship it in full.
        payload = wire.encode_engine_call(model, spec, num_reads, int(seed), trace=trace)
        samples = self._dispatch(payload)
        if samples is None:
            raise RuntimeError("worker answered model_miss to a full engine call")
        with self._lock:
            self._shipped_models[fingerprint] = True
            self._shipped_models.move_to_end(fingerprint)
            while len(self._shipped_models) > _WORKER_MODEL_LIMIT:
                self._shipped_models.popitem(last=False)
        return samples

    def _dispatch(self, payload: bytes) -> Optional[SampleSet]:
        """Ship one frame to a worker; ``None`` means it answered ``model_miss``."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.service.distributed import wire

        executor = self._executor()
        try:
            response = executor.submit(_execute_engine_call, payload).result()
        except BrokenProcessPool as exc:
            # Drop the poisoned executor so the next call respawns a fresh
            # pool instead of failing forever (a broken pool never recovers).
            # Only the pool *this* dispatch used is discarded: a concurrent
            # failure may already have installed a healthy replacement, which
            # must not be torn down.
            with self._lock:
                if self._pool is executor:
                    self._pool = None
            executor.shutdown(wait=False)
            raise RuntimeError(
                "a process-pool worker died (out-of-memory kills and native "
                "crashes land here too). If this happened on the first call "
                "of a *script*, the usual cause is a missing "
                "`if __name__ == '__main__':` guard around the entry point — "
                "the spawn start method re-imports __main__ in each worker, "
                "so an unguarded script re-executes itself and crashes at "
                "startup ('Safe importing of main module' in the "
                "multiprocessing docs)."
            ) from exc
        kind, header, buffers = wire.decode_frame(response)
        if kind == "model_miss":
            return None
        if kind != "sample_set":
            raise wire.WireFormatError(f"unexpected worker response kind {kind!r}")
        return SampleSet.from_wire(header, buffers)


# ----------------------------------------------------------- backend resolution
BackendLike = Union[None, str, ExecutionBackend]

_shared_backends: Dict[str, ExecutionBackend] = {}
_shared_lock = threading.Lock()


def shared_backend(spec: str) -> ExecutionBackend:
    """Process-wide backend instance for a spec string (``"process?max_workers=4"``).

    Specs resolve to *shared* instances so that short-lived services (tests,
    one-shot experiment runs) reuse a single warm worker pool instead of each
    paying process-spawn cost.  Shared backends are closed at interpreter
    exit, never by the services using them.
    """
    name, options = parse_spec(spec)
    key = f"{name}|{sorted(options.items())!r}"
    with _shared_lock:
        backend = _shared_backends.get(key)
        if backend is None or backend.closed:
            # A closed instance (someone called close() on the shared object)
            # would poison every later service resolving this spec; replace it.
            backend = _create_backend(name, options)
            _shared_backends[key] = backend
        return backend


def _create_backend(name: str, options: Dict[str, object]) -> ExecutionBackend:
    if name == ThreadExecutionBackend.name:
        if options:
            raise ValueError(f"the thread backend takes no options, got {sorted(options)}")
        return ThreadExecutionBackend()
    if name == ProcessPoolBackend.name:
        unknown = sorted(set(options) - {"max_workers", "mp_context"})
        if unknown:
            raise ValueError(
                f"unknown process-backend option(s) {unknown}; "
                f"valid options: ['max_workers', 'mp_context']"
            )
        return ProcessPoolBackend(**options)  # type: ignore[arg-type]
    if name == "remote":
        # Imported lazily: the remote subsystem is pure stdlib, but keeping it
        # out of this module's import graph avoids a cycle (remote's client
        # subclasses ExecutionBackend from here).
        from repro.service.remote.backend import RemoteBackend

        valid = {
            "workers",
            "connect_timeout",
            "request_timeout",
            "retries",
            "backoff_base",
            "backoff_max",
        }
        unknown = sorted(set(options) - valid)
        if unknown:
            raise ValueError(
                f"unknown remote-backend option(s) {unknown}; "
                f"valid options: {sorted(valid)}"
            )
        return RemoteBackend(**options)  # type: ignore[arg-type]
    raise ValueError(
        f"unknown execution backend {name!r}; known backends: "
        f"['thread', 'process', 'remote']"
    )


def resolve_backend(backend: BackendLike) -> ExecutionBackend:
    """Resolve a ``backend=`` argument into an :class:`ExecutionBackend`.

    ``None`` reads :data:`EXECUTION_BACKEND_ENV` (default ``"thread"``);
    strings resolve through :func:`shared_backend`; instances pass through.
    Neither kind belongs to the service that resolves it: shared backends are
    closed at interpreter exit, caller-provided ones by their caller.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        backend = os.environ.get(EXECUTION_BACKEND_ENV) or ThreadExecutionBackend.name
    if not isinstance(backend, str):
        raise ValueError(
            f"backend must be a spec string or an ExecutionBackend, got {backend!r}"
        )
    return shared_backend(backend)


@atexit.register
def _close_shared_backends() -> None:  # pragma: no cover - interpreter teardown
    with _shared_lock:
        backends = list(_shared_backends.values())
        _shared_backends.clear()
    for backend in backends:
        try:
            backend.close()
        except Exception:
            pass
