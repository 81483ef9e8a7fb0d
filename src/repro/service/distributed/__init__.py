"""Distributed execution subsystem of the solve service.

Two pieces, layered so each is useful on its own:

* :mod:`~repro.service.distributed.wire` — a compact, versioned, pickle-free
  wire format (JSON header + raw numpy buffers) for QUBO models (dense *and*
  CSR, never densifying), sample sets and engine calls, so work can cross
  process boundaries;
* :mod:`~repro.service.distributed.backends` — the :class:`ExecutionBackend`
  seam behind :class:`~repro.service.service.SolveService`, the in-thread
  backend (today's behaviour, byte-identical) and the resolution of backend
  specs.

The out-of-process backends live in :mod:`repro.service.remote` and build on
both layers: :class:`ProcessPoolBackend` (``"process"``) and
``RemoteBackend`` (``"remote"``) are one TCP client shipping engine-call
frames to :class:`~repro.service.remote.worker.WorkerServer` processes — a
localhost fleet the process backend spawns itself, or a fleet of standalone
workers.  ``ProcessPoolBackend`` is re-exported here.
"""

from repro.service.distributed.backends import (
    EXECUTION_BACKEND_ENV,
    ExecutionBackend,
    ThreadExecutionBackend,
    resolve_backend,
    shared_backend,
)
from repro.service.distributed.wire import (
    WireFormatError,
    encode_engine_call,
    encode_sample_set,
)
from repro.service.remote.backend import ProcessPoolBackend

__all__ = [
    "EXECUTION_BACKEND_ENV",
    "ExecutionBackend",
    "ThreadExecutionBackend",
    "ProcessPoolBackend",
    "resolve_backend",
    "shared_backend",
    "WireFormatError",
    "encode_sample_set",
    "encode_engine_call",
]
