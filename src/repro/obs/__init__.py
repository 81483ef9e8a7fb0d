"""``repro.obs`` — zero-dependency telemetry for the solve service.

Two independent pieces, both stdlib-only and both guaranteed never to touch a
seeded random stream (observing a solve cannot change its bytes):

* :mod:`repro.obs.trace` — structured spans written as line-atomic JSONL,
  with trace-context propagation across threads and across the engine-call
  wire (``QROSS_TRACE``; render sinks with ``python -m repro.obs.report``).
* :mod:`repro.obs.metrics` — the process-wide counter/gauge/histogram
  registry underneath every ``stats()`` dict, read out as one flat snapshot
  (:func:`metrics_snapshot`); a histogram is an observation count and sum.
"""

from repro.obs.metrics import (
    STATS_SCHEMA,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    metrics_snapshot,
    registry,
)
from repro.obs.trace import (
    TRACE_ENV,
    TraceContext,
    adopt_wire_context,
    configure_tracing,
    context_from_wire,
    current_context,
    reset_tracing,
    span,
    trace_path,
    tracing_enabled,
    use_context,
    wire_context,
)

__all__ = [
    "STATS_SCHEMA",
    "TRACE_ENV",
    "MetricsRegistry",
    "TraceContext",
    "adopt_wire_context",
    "configure_tracing",
    "context_from_wire",
    "counter",
    "current_context",
    "gauge",
    "histogram",
    "metrics_snapshot",
    "registry",
    "reset_tracing",
    "span",
    "trace_path",
    "tracing_enabled",
    "use_context",
    "wire_context",
]
