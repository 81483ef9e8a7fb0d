"""Public solve-service API: solver registry, request/response types, pooled executor.

The canonical way to run solves:

>>> import repro
>>> result = repro.solve(problem, solver="da", num_reads=64,
...                      relaxation_parameter=12.5, seed=0)

or, for batched / asynchronous workloads:

>>> from repro.service import SolveRequest, SolveService
>>> with SolveService(max_workers=4) as service:
...     results = service.map_requests([
...         SolveRequest(model=m, solver="tabu?tenure=16", num_reads=32)
...         for m in models
...     ])
"""

from repro.service.admission import (
    MAX_PENDING_ENV,
    AdmissionGate,
    ServiceOverloaded,
)
from repro.service.cache import CachedEvaluation, SolverCallCache
from repro.service.distributed import (
    EXECUTION_BACKEND_ENV,
    ExecutionBackend,
    ProcessPoolBackend,
    ThreadExecutionBackend,
    resolve_backend,
    shared_backend,
)
from repro.service.registry import (
    RegisteredBackend,
    SolverRegistry,
    SpecSerializationError,
    make_solver,
    parse_spec,
)
from repro.service.requests import SolveRequest, SolveResult
from repro.service.service import SolveService, default_service, solve

__all__ = [
    "AdmissionGate",
    "MAX_PENDING_ENV",
    "ServiceOverloaded",
    "CachedEvaluation",
    "SolverCallCache",
    "SolverRegistry",
    "RegisteredBackend",
    "SpecSerializationError",
    "make_solver",
    "parse_spec",
    "SolveRequest",
    "SolveResult",
    "SolveService",
    "default_service",
    "solve",
    "EXECUTION_BACKEND_ENV",
    "ExecutionBackend",
    "ThreadExecutionBackend",
    "ProcessPoolBackend",
    "resolve_backend",
    "shared_backend",
]
