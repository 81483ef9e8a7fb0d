"""Remote solve farm: TCP workers plus the load-balancing client backend.

The subsystem has three layers, each usable on its own:

* :mod:`~repro.service.remote.protocol` — length-prefixed message framing
  over a socket, and the typed error taxonomy every failure maps to.
* :mod:`~repro.service.remote.worker` — :class:`WorkerServer`, the standalone
  solve worker (``python -m repro.service.remote.worker --bind ...``), and
  the engine-call runner it executes frames with.
* :mod:`~repro.service.remote.backend` — :class:`RemoteBackend`, the
  :class:`~repro.service.distributed.backends.ExecutionBackend` client with
  load balancing, retries, deadlines and admission-aware backoff, and
  ``ProcessPoolBackend``, the same client over localhost workers it spawns.

Typical use is indirect: ``QROSS_EXECUTION_BACKEND=remote`` plus
``QROSS_REMOTE_WORKERS=hostA:7070,hostB:7070`` routes every
:class:`~repro.service.service.SolveService` engine call to the fleet, and
``QROSS_EXECUTION_BACKEND=process`` to a local one.
"""

from repro.service.remote.backend import (
    REMOTE_WORKERS_ENV,
    RemoteBackend,
    parse_worker_list,
)
from repro.service.remote.protocol import (
    MAX_MESSAGE_BYTES,
    DeadlineExceeded,
    NoHealthyWorkers,
    RemoteError,
    RemoteProtocolError,
    RemoteTransportError,
    RemoteWorkerError,
    recv_message,
    send_message,
)

def __getattr__(name: str):
    # WorkerServer is exported lazily (PEP 562): importing it eagerly here
    # would make ``python -m repro.service.remote.worker`` re-execute an
    # already-imported module (runpy's RuntimeWarning) and would pull server
    # machinery into every client-only import.
    if name == "WorkerServer":
        from repro.service.remote.worker import WorkerServer

        return WorkerServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MAX_MESSAGE_BYTES",
    "REMOTE_WORKERS_ENV",
    "DeadlineExceeded",
    "NoHealthyWorkers",
    "RemoteBackend",
    "RemoteError",
    "RemoteProtocolError",
    "RemoteTransportError",
    "RemoteWorkerError",
    "WorkerServer",
    "parse_worker_list",
    "recv_message",
    "send_message",
]
