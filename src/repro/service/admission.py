"""Admission control: bounded pending-work accounting with load-shed.

Production ingest is bursty; a queue with no depth limit converts a traffic
spike into unbounded memory growth and unbounded latency for everything behind
it.  The :class:`AdmissionGate` is the one shared primitive: a counter of
admitted-but-not-finished units of work with a hard bound, raising the typed
:class:`ServiceOverloaded` instead of queueing when the bound is hit.  Both
sides of the remote solve farm use it — the local
:class:`~repro.service.service.SolveService` bounds its request pool
(``max_pending`` / the ``QROSS_MAX_PENDING`` environment variable) and each
:class:`~repro.service.remote.worker.WorkerServer` bounds the engine calls it
accepts beyond its concurrency cap — so callers see one error type and one
counter vocabulary (admitted / pending / shed / completed) at every layer.

Shedding is deliberately an *error*, not a silent drop: the caller decides
whether to retry (the :class:`~repro.service.remote.backend.RemoteBackend`
client retries sheds on another worker with backoff), queue client-side, or
surface the overload.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional

from repro import obs

#: Environment variable bounding the default :class:`SolveService` queue depth
#: (unset = unbounded, preserving the historical behaviour).
MAX_PENDING_ENV = "QROSS_MAX_PENDING"


class ServiceOverloaded(RuntimeError):
    """The bounded admission queue is full; the work unit was shed, not queued.

    Raised by :meth:`SolveService.submit` (and everything built on it) when
    ``max_pending`` requests are already in flight, and by the remote client
    when the worker fleet answered ``overloaded`` beyond its retry budget.
    The request had no side effects — it is safe to retry later.
    """


class AdmissionGate:
    """Thread-safe bounded counter of in-flight work units.

    ``max_pending=None`` disables the bound (every acquire succeeds) but still
    counts traffic, so :meth:`stats` stays meaningful on unbounded services.
    """

    def __init__(self, max_pending: Optional[int] = None, name: str = "service") -> None:
        if max_pending is not None and max_pending <= 0:
            raise ValueError(f"max_pending must be positive or None, got {max_pending}")
        self.max_pending = max_pending
        self.name = name
        self._lock = threading.Lock()
        self._peak_pending = 0
        # Children of families labelled by the gate's component (the first
        # word of its name — "service", "worker", ... — so per-instance
        # suffixes like a worker's host:port never explode label cardinality).
        # The pending child is the store the bound check reads, under _lock.
        labels = {"component": (name.split() or ["service"])[0]}
        self._admitted = obs.counter(
            "qross_admission_admitted_total",
            labels=labels,
            help="Work units admitted past an admission gate",
        ).child()
        self._shed = obs.counter(
            "qross_admission_shed_total",
            labels=labels,
            help="Work units shed at an admission gate bound",
        ).child()
        self._pending = obs.gauge(
            "qross_admission_pending",
            labels=labels,
            help="Admitted-but-unfinished work units",
        ).child()

    # ---------------------------------------------------------------- admission
    def try_acquire(self, count: int = 1) -> bool:
        """Admit ``count`` units of work together, or none of them.

        ``False`` (and ``count`` counted sheds) when they do not all fit
        under the bound.
        """
        with self._lock:
            pending = self._pending.value
            if self.max_pending is not None and pending + count > self.max_pending:
                self._shed.inc(count)
                return False
            self._pending.inc(count)
            self._admitted.inc(count)
            self._peak_pending = max(self._peak_pending, pending + count)
        return True

    def acquire(self, count: int = 1) -> None:
        """Admit ``count`` units of work together or raise :class:`ServiceOverloaded`."""
        if not self.try_acquire(count):
            raise ServiceOverloaded(
                f"{self.name} is at its pending-work bound "
                f"(max_pending={self.max_pending}); "
                f"{'request' if count == 1 else f'batch of {count}'} shed, not queued"
            )

    def release(self, count: int = 1) -> None:
        """Mark ``count`` admitted units finished (success or failure alike)."""
        with self._lock:
            if self._pending.value < count:
                raise RuntimeError(f"{self.name}: release() without a matching acquire()")
            self._pending.dec(count)

    # ------------------------------------------------------------------ readouts
    @property
    def pending(self) -> int:
        return self._pending.value

    def stats(self) -> Dict[str, Optional[int]]:
        """Counter snapshot in the :data:`repro.obs.STATS_SCHEMA` keys.

        ``admitted_total`` / ``completed_total`` / ``shed_total`` count work
        units; ``pending`` / ``peak_pending`` / ``max_pending`` describe the
        bound.
        """
        with self._lock:
            admitted, pending = self._admitted.value, self._pending.value
            return {
                "schema": obs.STATS_SCHEMA,
                "max_pending": self.max_pending,
                "admitted_total": admitted,
                "completed_total": admitted - pending,
                "shed_total": self._shed.value,
                "pending": pending,
                "peak_pending": self._peak_pending,
            }


def max_pending_from_env() -> Optional[int]:
    """The ``QROSS_MAX_PENDING`` bound, or ``None`` when unset/empty."""
    raw = os.environ.get(MAX_PENDING_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_PENDING_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{MAX_PENDING_ENV} must be positive, got {value}")
    return value
