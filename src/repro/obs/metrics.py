"""Process-wide metrics registry: named counters, gauges and histograms.

This is the one store under every ``stats()`` readout in the library.  The
solve service, the admission gates, the remote fleet client, the worker
control plane and the call cache each hold their counts as per-instance
children (:meth:`Counter.child`, :meth:`Gauge.child`) of the families below.
One update moves the child and its family together, so an object's
``stats()`` is a read of its children and a registry snapshot is their sum
over every instance in the process.  The registry is always live (an update
is one short lock-guarded add) and is read out as one flat snapshot
(:func:`metrics_snapshot`).

Metric names
------------
Metric names follow Prometheus conventions — ``qross_<component>_<what>`` with
``_total`` on monotonic counters and ``_seconds`` on latency histograms;
low-cardinality dimensions are labels:

========================================  =====================================
``qross_admission_admitted_total``        work units admitted past a gate
``qross_admission_shed_total``            work units shed at a gate bound
``qross_admission_pending``               gauge: admitted-but-unfinished units
(labels)                                  ``component="service"|"worker"``
``qross_service_tasks_total``             settled service tasks
(labels)                                  ``outcome="served"|"failed"``
``qross_service_request_seconds``         request latency histogram
(labels)                                  ``path="seeded"|"unseeded"``
``qross_cache_lookups_total``             call-cache probe outcomes
(labels)                                  ``cache="call"``,
                                          ``result="hit"|"miss"``
``qross_cache_evictions_total``           LRU evictions (``cache="call"``)
``qross_remote_requests_total``           remote engine calls attempted
``qross_remote_served_total``             remote engine calls answered
``qross_remote_transport_retries_total``  retries after transport failures
``qross_remote_overload_retries_total``   retries after worker sheds
``qross_remote_model_reships_total``      full payload re-sends after ref miss
``qross_remote_dials_total``              fresh TCP connects + handshakes
``qross_remote_fallback_total``           unserialisable-solver local runs
``qross_remote_rpc_seconds``              one-attempt round-trip latency
``qross_worker_served_total``             engine calls a worker executed
``qross_worker_solve_errors_total``       engine calls that raised
``qross_worker_solve_seconds``            worker-side solve latency
``qross_engine_sample_seconds``           one ``sample`` / ``sample_many`` call
(labels)                                  ``solver=<registry name>``
``qross_portfolio_rounds_total``          portfolio scheduling rounds
``qross_portfolio_slices_total``          member budget slices dispatched
``qross_portfolio_cancellations_total``   members cancelled by the strategy
========================================  =====================================

Every ``stats()`` dict carries ``schema`` = :data:`STATS_SCHEMA` and one key
per quantity: ``<what>_total`` for counts, plus ``pending``, ``peak_pending``
and ``max_pending`` for admission.

Everything here is stdlib-only and RNG-free: observing a metric can never
perturb a seeded solve.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Dict, Mapping, Optional, Sequence, Tuple

#: Version tag of the key schema carried by every ``stats()`` dict.
STATS_SCHEMA = "qross.stats/2"

#: Latency histogram buckets (seconds): microbenchmark floor to minutes-long
#: solves.  Explicit buckets keep ``observe`` allocation-free and O(log n).
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

LabelsLike = Optional[Mapping[str, str]]


def _label_key(labels: LabelsLike) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(items: Sequence[Tuple[str, str]]) -> str:
    parts = [f'{k}="{v}"' for k, v in items]
    return "{" + ",".join(parts) + "}" if parts else ""


class _Value:
    """A number behind a lock, optionally the child of a metric of its kind.

    A child shares its parent's lock, so one update moves the child and every
    ancestor in one critical section: a per-instance child and the family it
    came from never disagree.  Updating a parent leaves its children alone.
    """

    def __init__(self, parent: "Optional[_Value]" = None) -> None:
        self._parent = parent
        self._lock = threading.Lock() if parent is None else parent._lock
        self._value = 0

    def _add(self, amount: float) -> None:
        """Move this metric and its ancestors; the caller holds ``_lock``."""
        node = self
        while node is not None:
            node._value += amount
            node = node._parent

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def child(self):
        """A per-instance metric whose updates also move this one."""
        return type(self)(parent=self)


class Counter(_Value):
    """Monotonic counter.  ``inc`` is one lock-guarded add — safe anywhere."""

    kind = "counter"

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for deltas")
        with self._lock:
            self._add(amount)


class Gauge(_Value):
    """A value that goes up and down (pending work, pool sizes)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        with self._lock:
            self._add(value - self._value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._add(amount)

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)


class Histogram:
    """Explicit-bucket histogram.

    ``observe`` is a binary search plus three lock-guarded adds — cheap enough
    for per-request latency recording on the hot path.
    """

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.bounds = bounds
        self._lock = threading.Lock()
        # One slot per finite bound plus the implicit +Inf overflow slot.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum


class MetricsRegistry:
    """Named metric families, each fanning out over label sets.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    registers the family (name, kind, help), later calls return the existing
    instance for the given label set.  Re-registering a name under a different
    kind is an error — its snapshot keys would mix two kinds of value.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> (kind, help, {label_key: metric})
        self._families: Dict[str, Tuple[str, str, Dict[tuple, object]]] = {}

    def _get(self, name: str, kind: str, help: str, labels: LabelsLike, factory):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = (kind, help, {})
                self._families[name] = family
            elif family[0] != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a {family[0]}, "
                    f"cannot re-register as a {kind}"
                )
            metric = family[2].get(key)
            if metric is None:
                metric = factory()
                family[2][key] = metric
            return metric

    def counter(self, name: str, labels: LabelsLike = None, help: str = "") -> Counter:
        return self._get(name, "counter", help, labels, Counter)

    def gauge(self, name: str, labels: LabelsLike = None, help: str = "") -> Gauge:
        return self._get(name, "gauge", help, labels, Gauge)

    def histogram(
        self,
        name: str,
        labels: LabelsLike = None,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        help: str = "",
    ) -> Histogram:
        metric = self._get(name, "histogram", help, labels, lambda: Histogram(buckets))
        if metric.bounds != tuple(sorted(float(b) for b in buckets)):
            raise ValueError(
                f"histogram {name!r} already exists with different buckets"
            )
        return metric

    # ------------------------------------------------------------------ readouts
    def snapshot(self) -> Dict[str, float]:
        """Flat ``{name{labels}: value}`` view (histograms expand to _count/_sum).

        Values are plain floats/ints, so a snapshot is JSON-serialisable.
        """
        out: Dict[str, float] = {}
        with self._lock:
            families = [
                (name, kind, dict(children))
                for name, (kind, _, children) in self._families.items()
            ]
        for name, kind, children in families:
            for key, metric in children.items():
                suffix = _render_labels(key)
                if kind == "histogram":
                    out[f"{name}_count{suffix}"] = metric.count
                    out[f"{name}_sum{suffix}"] = metric.sum
                else:
                    out[f"{name}{suffix}"] = metric.value
        return out


# ------------------------------------------------------------- global registry
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry every library component counts into."""
    return _REGISTRY


def counter(name: str, labels: LabelsLike = None, help: str = "") -> Counter:
    return registry().counter(name, labels=labels, help=help)


def gauge(name: str, labels: LabelsLike = None, help: str = "") -> Gauge:
    return registry().gauge(name, labels=labels, help=help)


def histogram(
    name: str,
    labels: LabelsLike = None,
    buckets: Sequence[float] = LATENCY_BUCKETS,
    help: str = "",
) -> Histogram:
    return registry().histogram(name, labels=labels, buckets=buckets, help=help)


def metrics_snapshot() -> Dict[str, float]:
    """Flat snapshot of the global registry (JSON-safe)."""
    return registry().snapshot()
