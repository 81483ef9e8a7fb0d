"""Execution backends: where a solver call actually runs.

The :class:`~repro.service.service.SolveService` orchestrates requests
(grouping, caching, RNG discipline) on its thread pool; the *engine call* —
``solver.sample(model, num_reads, rng)``, or ``solver.sample_many`` over one
problem's relaxations — is delegated to an :class:`ExecutionBackend`.  This module holds the base class, the default
:class:`ThreadExecutionBackend` (the call runs in the submitting thread:
numpy kernels release the GIL and states never cross a process boundary) and
the resolution of backend specs.

The out-of-process backends live in :mod:`repro.service.remote` and share
one transport: :class:`~repro.service.remote.backend.RemoteBackend` ships
:mod:`~repro.service.distributed.wire` frames over TCP to a fleet of
:class:`~repro.service.remote.worker.WorkerServer` processes, and
:class:`~repro.service.remote.backend.ProcessPoolBackend` (``"process"``) is
the same client over a fleet of localhost workers it spawns itself.  The
Python-level portions of the annealing loops (schedule bookkeeping, tabu
steps, qbsolv decomposition) then run on as many cores as there are workers
instead of serialising on one GIL.

Determinism contract: every backend receives a *concrete integer seed* and
runs ``default_rng(seed)``, so the same call produces byte-identical
assignments and energies on every backend.  A seed is the only way randomness
enters an engine call; no backend accepts a live generator.

Backends are selected per service via ``SolveService(backend=...)`` or
globally via the ``QROSS_EXECUTION_BACKEND`` environment variable
(``thread`` — the default —, ``process`` or ``remote``, optionally with
options such as ``process?max_workers=4`` or
``remote?workers=10.0.0.5:7070,10.0.0.6:7070``).  Backends resolved from
specs are *shared* process-wide so that many short-lived services reuse one
worker fleet.
"""

from __future__ import annotations

import abc
import atexit
import os
import threading
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.qubo.model import QUBOModel
from repro.qubo.sampleset import SampleSet
from repro.service.registry import parse_spec
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

    def run_many(
        self,
        models: Sequence[QUBOModel],
        solver: QUBOSolver,
        num_reads: int,
        seeds: Sequence[int],
    ) -> List[SampleSet]:
        """Execute one engine call per model, model ``k`` under ``seeds[k]``.

        Must return what ``[self.run(m, solver, num_reads, s) for m, s in
        zip(models, seeds)]`` returns, which is what this default does.  The
        thread backend instead runs them as one
        :meth:`~repro.solvers.base.QUBOSolver.sample_many` call (a single
        kernel call for a solver that batches models); the out-of-process
        backends keep the loop, each ``run`` one wire request.
        """
        return [self.run(model, solver, num_reads, seed) for model, seed in zip(models, seeds)]

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

    def run_many(
        self,
        models: Sequence[QUBOModel],
        solver: QUBOSolver,
        num_reads: int,
        seeds: Sequence[int],
    ) -> List[SampleSet]:
        return solver.sample_many(
            models, num_reads, [np.random.default_rng(int(seed)) for seed in seeds]
        )


# ----------------------------------------------------------- backend resolution
BackendLike = Union[None, str, ExecutionBackend]

_shared_backends: Dict[str, ExecutionBackend] = {}
_shared_lock = threading.Lock()


def shared_backend(spec: str) -> ExecutionBackend:
    """Process-wide backend instance for a spec string (``"process?max_workers=4"``).

    Specs resolve to *shared* instances so that short-lived services (tests,
    one-shot experiment runs) reuse a single warm worker fleet instead of each
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
    # Imported lazily: both out-of-process backends live in the remote
    # subsystem, whose client subclasses ExecutionBackend from here.
    from repro.service.remote.backend import ProcessPoolBackend, RemoteBackend

    if name == ProcessPoolBackend.name:
        unknown = sorted(set(options) - {"max_workers"})
        if unknown:
            raise ValueError(
                f"unknown process-backend option(s) {unknown}; "
                f"valid options: ['max_workers']"
            )
        return ProcessPoolBackend(**options)  # type: ignore[arg-type]
    if name == RemoteBackend.name:
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
