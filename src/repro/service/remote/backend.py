"""The out-of-process execution backends: a TCP client load-balancing a worker fleet.

:class:`RemoteBackend` is an :class:`ExecutionBackend` — the same
``run(model, solver, num_reads, seed)`` contract as the thread backend, with
the engine call shipped over TCP to a fleet of
:class:`~repro.service.remote.worker.WorkerServer` processes (other cores,
other machines).  :class:`ProcessPoolBackend` (``"process"``) is the same
client over a fleet of localhost workers it spawns itself, so both backends
share one wire conversation, one worker loop and one shipped-model memo.  The
determinism contract is unchanged: workers run ``default_rng(seed)``, so a
seeded solve is byte-identical no matter which worker (or which backend)
executes it — which is also why retrying on a different worker is always
safe.

Robustness model:

* **Load balancing** — each call goes to the healthy worker with the fewest
  calls in flight, rotating among ties; each worker keeps its own
  shipped-model LRU, so a sweep over one model pays the model transfer once
  per worker and by-reference frames afterwards (``model_miss`` re-ships in
  full on the same connection).
* **Retries** — connect/transport failures are retried with exponential
  backoff plus jitter, up to ``retries`` extra attempts; the failing worker
  is marked down with an escalating cooldown and is tried again once the
  cooldown lapses.  Worker sheds (``overloaded`` errors) retry the same way
  but *without* marking the worker down — it is alive, just full.
* **Deadlines** — every ``run`` call is bounded by ``request_timeout``
  seconds end to end (connects, retries, backoff sleeps and the solve
  itself); expiry raises the typed
  :class:`~repro.service.remote.protocol.DeadlineExceeded`, never a hang.
* **Reconnect-on-drop** — connections are pooled per worker; a stale or
  dropped socket surfaces as a transport failure and the retry path dials
  fresh.

Configuration mirrors the thread backend: construct explicitly, or spec-style
(``SolveService(backend="remote?workers=10.0.0.5:7070,10.0.0.6:7070")`` or
``"process?max_workers=4"``), or globally with
``QROSS_EXECUTION_BACKEND=remote`` plus the ``QROSS_REMOTE_WORKERS`` address
list.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.qubo.model import QUBOModel
from repro.qubo.sampleset import SampleSet
from repro.service.admission import ServiceOverloaded
from repro.service.distributed import wire
from repro.service.distributed.backends import (
    ExecutionBackend,
    ThreadExecutionBackend,
    default_worker_count,
)
from repro.service.registry import SpecSerializationError, parse_spec
from repro.service.remote.protocol import (
    DeadlineExceeded,
    NoHealthyWorkers,
    RemoteProtocolError,
    RemoteTransportError,
    RemoteWorkerError,
    close_socket,
    recv_message,
    send_message,
)
from repro.solvers.base import QUBOSolver

#: Environment variable listing the worker fleet for ``backend="remote"``
#: services: comma-separated ``host:port`` addresses.
REMOTE_WORKERS_ENV = "QROSS_REMOTE_WORKERS"

#: How many idle connections to keep pooled per worker.
_POOL_CONNECTIONS_PER_WORKER = 8

AddressLike = Union[str, Tuple[str, int]]


def parse_address(value: AddressLike) -> Tuple[str, int]:
    """``"host:port"`` or ``(host, port)`` -> a validated ``(host, port)``."""
    if isinstance(value, tuple):
        host, port = value
        return str(host), int(port)
    host, sep, port = str(value).strip().rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker address must be host:port, got {value!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ValueError(f"worker port must be an integer, got {port!r}") from exc


def parse_worker_list(
    workers: Union[None, str, Sequence[AddressLike]]
) -> List[Tuple[str, int]]:
    """Normalise a fleet description (string, sequence, or env var) to addresses."""
    if workers is None:
        workers = os.environ.get(REMOTE_WORKERS_ENV, "")
        if not workers.strip():
            raise ValueError(
                f"the remote backend needs a worker fleet: pass workers=... or "
                f"set {REMOTE_WORKERS_ENV} (comma-separated host:port list)"
            )
    if isinstance(workers, str):
        parts: Sequence[AddressLike] = [
            part for part in workers.replace(";", ",").split(",") if part.strip()
        ]
    else:
        parts = workers
    addresses = [parse_address(part) for part in parts]
    if not addresses:
        raise ValueError("the remote worker list is empty")
    return addresses


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


class _WorkerState:
    """Client-side view of one fleet member: health, load, connections, shipped models."""

    def __init__(self, address: Tuple[str, int], served: obs.metrics.Counter) -> None:
        self.address = address
        self.failures = 0
        self.down_until = 0.0
        self.in_flight = 0
        self.served = served.child()
        self.idle: List[socket.socket] = []
        self.shipped: "OrderedDict[str, bool]" = OrderedDict()

    @property
    def label(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"


class _OverloadedSignal(Exception):
    """Internal: a worker answered a retryable ``overloaded`` shed."""


class RemoteBackend(ExecutionBackend):
    """Execute engine calls on a fleet of remote TCP workers.

    Parameters
    ----------
    workers:
        The fleet: a comma-separated ``host:port`` string, a sequence of
        addresses, or ``None`` to read :data:`REMOTE_WORKERS_ENV`.
    connect_timeout:
        Seconds allowed for one TCP connect + hello handshake.
    request_timeout:
        End-to-end deadline per ``run`` call in seconds (``None`` = no
        deadline).  The default is generous — solves can be long — but
        finite, so a dead-but-connected worker can never hang a caller.
    retries:
        Extra attempts after the first (transport failures and sheds only;
        protocol and solve errors are deterministic and surface immediately).
    backoff_base, backoff_max:
        Exponential-backoff envelope between attempts; the actual sleep is
        jittered uniformly in ``[0.5, 1.5) x`` the envelope value so a
        thundering herd of clients decorrelates.
    """

    name = "remote"

    def __init__(
        self,
        workers: Union[None, str, Sequence[AddressLike]] = None,
        connect_timeout: float = 5.0,
        request_timeout: Optional[float] = 300.0,
        retries: int = 3,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
    ) -> None:
        if connect_timeout <= 0:
            raise ValueError("connect_timeout must be positive")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive or None")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.connect_timeout = float(connect_timeout)
        self.request_timeout = None if request_timeout is None else float(request_timeout)
        self.retries = int(retries)
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        # One child per counted event, reported by ``stats()`` as
        # ``<event>_total``; each worker's ``served`` is a child of "served".
        self._counts = {
            event: obs.counter(f"qross_remote_{event}_total").child()
            for event in (
                "requests",
                "served",
                "fallback",
                "transport_retries",
                "overload_retries",
                "model_reships",
                "dials",
            )
        }
        self._workers = [
            _WorkerState(a, self._counts["served"]) for a in parse_worker_list(workers)
        ]
        #: Width hint for the service thread pool: enough submitters to keep
        #: every fleet member busy even when each runs several calls at once.
        self.max_workers = max(default_worker_count(), 2 * len(self._workers))
        self._fallback = ThreadExecutionBackend()
        self._specs = SolverSpecCache()
        # Jitter only — never touches the numpy streams that seed solves.
        self._jitter = random.Random()
        self._lock = threading.Lock()
        self._rr = 0
        self._closed = False
        self._rpc_seconds = obs.histogram(
            "qross_remote_rpc_seconds",
            help="Single-attempt remote engine-call round-trip latency",
        )

    # ----------------------------------------------------------------- lifecycle
    def close(self) -> None:
        with self._lock:
            self._closed = True
            sockets = [s for w in self._workers for s in w.idle]
            for worker in self._workers:
                worker.idle.clear()
        for sock in sockets:
            close_socket(sock)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ execution
    def run(
        self, model: QUBOModel, solver: QUBOSolver, num_reads: int, seed: int
    ) -> SampleSet:
        try:
            spec = self._specs.spec_for(solver)
        except SpecSerializationError:
            # A solver the wire cannot express runs here, byte-identically
            # (same seed discipline on every backend).
            self._counts["fallback"].inc()
            return self._fallback.run(model, solver, num_reads, seed)
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        self._counts["requests"].inc()
        deadline = (
            None
            if self.request_timeout is None
            else time.monotonic() + self.request_timeout
        )
        last_error: Optional[Exception] = None
        with obs.span("remote.run", solver_spec=spec, num_reads=int(num_reads)) as sp:
            for attempt in range(self.retries + 1):
                self._check_deadline(deadline)
                worker = self._pick_worker()
                try:
                    samples = self._dispatch_once(
                        worker, model, spec, num_reads, seed, deadline
                    )
                except RemoteTransportError as exc:
                    self._mark_down(worker)
                    last_error = exc
                    counter = "transport_retries"
                except _OverloadedSignal as exc:
                    # The worker is alive, just saturated: do not cool it down,
                    # just back off and spread the next attempt over the fleet.
                    last_error = ServiceOverloaded(
                        f"worker {worker.label} shed the call: {exc}"
                    )
                    counter = "overload_retries"
                else:
                    self._mark_healthy(worker)
                    sp.set(worker=worker.label, attempts=attempt + 1)
                    return samples
                finally:
                    with self._lock:
                        worker.in_flight -= 1
                if attempt < self.retries:
                    self._counts[counter].inc()
                    self._backoff(attempt, deadline)
            assert last_error is not None
            raise last_error

    def _dispatch_once(
        self,
        worker: _WorkerState,
        model: QUBOModel,
        spec: str,
        num_reads: int,
        seed: int,
        deadline: Optional[float],
    ) -> SampleSet:
        """One attempt against one worker (ref-frame first, full on miss)."""
        fingerprint = model.fingerprint()
        with self._lock:
            try_ref = fingerprint in worker.shipped
            if try_ref:
                worker.shipped.move_to_end(fingerprint)
        started = time.perf_counter()
        # The rpc span opens *before* the trace context is captured for the
        # wire, so the worker's spans stitch under this attempt (not under
        # the whole retry loop).
        with obs.span("remote.rpc", worker=worker.label) as sp, self._connection(
            worker, deadline
        ) as conn:
            trace = obs.wire_context()
            if try_ref:
                payload = wire.encode_engine_call_ref(
                    fingerprint, spec, num_reads, int(seed), trace=trace
                )
            else:
                payload = wire.encode_engine_call(
                    model, spec, num_reads, int(seed), trace=trace
                )
            reply = self._roundtrip(conn, payload, deadline)
            kind, header, buffers = self._decode(worker, reply)
            if kind == "model_miss" and try_ref:
                # Evicted (or a restarted worker): re-ship in full on the
                # same connection.
                with self._lock:
                    worker.shipped.pop(fingerprint, None)
                self._counts["model_reships"].inc()
                sp.set(model_reshipped=True)
                reply = self._roundtrip(
                    conn,
                    wire.encode_engine_call(model, spec, num_reads, int(seed), trace=trace),
                    deadline,
                )
                kind, header, buffers = self._decode(worker, reply)
            if kind == "sample_set":
                with self._lock:
                    worker.shipped[fingerprint] = True
                    worker.shipped.move_to_end(fingerprint)
                    while len(worker.shipped) > wire.MODEL_MEMO_LIMIT:
                        worker.shipped.popitem(last=False)
                self._rpc_seconds.observe(time.perf_counter() - started)
                samples = SampleSet.from_wire(header, buffers)
                worker.served.inc()
                return samples
            if kind == "error":
                self._raise_for_error(worker, header)
            raise RemoteProtocolError(
                f"worker {worker.label} answered an unexpected {kind!r} frame"
            )

    @staticmethod
    def _decode(worker: _WorkerState, reply: bytes):
        """Decode a reply frame, mapping garbage to the typed protocol error."""
        try:
            return wire.decode_frame(reply)
        except wire.WireFormatError as exc:
            raise RemoteProtocolError(
                f"worker {worker.label} sent an undecodable frame: {exc}"
            ) from exc

    @staticmethod
    def _raise_for_error(worker: _WorkerState, header: dict) -> None:
        code, message, retryable = wire.decode_error(header)
        detail = f"worker {worker.label} [{code}]: {message}"
        if code == "overloaded" or (retryable and code not in ("solve_error",)):
            raise _OverloadedSignal(detail)
        if code == "solve_error":
            raise RemoteWorkerError(detail)
        # version_mismatch, wire_format, unsupported, unknown codes: a
        # configuration/compatibility problem a retry cannot fix.
        raise RemoteProtocolError(detail)

    # ---------------------------------------------------------- fleet management
    def _pick_worker(self) -> _WorkerState:
        """The healthy worker with the fewest calls in flight, rotating ties.

        The pick counts as a call in flight until ``run`` releases it.  With
        every worker down, the least-recently-downed ones are tried instead.
        """
        with self._lock:
            now = time.monotonic()
            healthy = [w for w in self._workers if w.down_until <= now]
            pool = healthy or sorted(self._workers, key=lambda w: w.down_until)
            if not pool:  # pragma: no cover - construction guarantees >= 1
                raise NoHealthyWorkers("no workers configured")
            start = self._rr % len(pool)
            self._rr += 1
            worker = min(pool[start:] + pool[:start], key=lambda w: w.in_flight)
            worker.in_flight += 1
            return worker

    def _mark_down(self, worker: _WorkerState) -> None:
        with self._lock:
            worker.failures += 1
            cooldown = min(
                self.backoff_max, self.backoff_base * (2 ** (worker.failures - 1))
            )
            worker.down_until = time.monotonic() + cooldown
            # A dropped worker's connections are stale; its model memo is
            # unknown (a restart lost it), so forget what we shipped.
            stale, worker.idle = worker.idle, []
            worker.shipped.clear()
        for sock in stale:
            close_socket(sock)

    def _mark_healthy(self, worker: _WorkerState) -> None:
        with self._lock:
            worker.failures = 0
            worker.down_until = 0.0

    def check_workers(self, timeout: Optional[float] = None) -> Dict[str, Optional[dict]]:
        """Probe every configured worker's runtime stats; update health marks.

        Sends the ``stats`` control frame and returns
        ``{address: stats-dict-or-None}`` — the dict carries the worker's
        pid and its admission / served / shed counters, ``None`` marks a
        worker that did not answer (it is put on cooldown, to be re-probed
        later).
        """
        timeout = self.connect_timeout if timeout is None else timeout
        results: Dict[str, Optional[dict]] = {}
        for worker in list(self._workers):
            label = worker.label
            deadline = time.monotonic() + timeout
            try:
                with self._connection(worker, deadline) as conn:
                    reply = self._roundtrip(conn, wire.encode_stats_request(), deadline)
                    kind, header, _ = self._decode(worker, reply)
                    if kind != "stats_ack":
                        raise RemoteProtocolError(
                            f"worker {label} answered {kind!r} to a stats probe"
                        )
            except (RemoteTransportError, DeadlineExceeded, RemoteProtocolError):
                self._mark_down(worker)
                results[label] = None
            else:
                self._mark_healthy(worker)
                results[label] = dict(header.get("stats", {}))
        return results

    # ------------------------------------------------------------------ transport
    @contextmanager
    def _connection(
        self, worker: _WorkerState, deadline: Optional[float]
    ) -> Iterator[socket.socket]:
        """Check a pooled connection out (dialling + handshaking if needed)."""
        with self._lock:
            conn = worker.idle.pop() if worker.idle else None
        if conn is None:
            conn = self._dial(worker, deadline)
        try:
            yield conn
        except BaseException:
            close_socket(conn)
            raise
        with self._lock:
            if not self._closed and len(worker.idle) < _POOL_CONNECTIONS_PER_WORKER:
                worker.idle.append(conn)
                return
        close_socket(conn)

    def _dial(self, worker: _WorkerState, deadline: Optional[float]) -> socket.socket:
        """Fresh TCP connection + hello handshake (version negotiation)."""
        timeout = self.connect_timeout
        if deadline is not None:
            timeout = min(timeout, self._remaining(deadline))
        with obs.span("remote.dial", worker=worker.label):
            try:
                conn = socket.create_connection(worker.address, timeout=timeout)
            except (OSError, socket.timeout) as exc:
                raise RemoteTransportError(
                    f"cannot connect to worker {worker.label}: {exc}"
                ) from exc
            self._counts["dials"].inc()
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                reply = self._roundtrip(conn, wire.encode_hello(), deadline, io_timeout=timeout)
                kind, header, _ = self._decode(worker, reply)
                if kind == "error":
                    self._raise_for_error(worker, header)
                if kind != "hello_ack":
                    raise RemoteProtocolError(
                        f"worker {worker.label} answered {kind!r} to hello"
                    )
                version = int(header.get("protocol_version", -1))
                if version not in wire.SUPPORTED_PROTOCOL_VERSIONS:
                    raise RemoteProtocolError(
                        f"worker {worker.label} negotiated unsupported protocol "
                        f"version {version}"
                    )
                return conn
            except BaseException:
                close_socket(conn)
                raise

    def _roundtrip(
        self,
        sock: socket.socket,
        payload: bytes,
        deadline: Optional[float],
        io_timeout: Optional[float] = None,
    ) -> bytes:
        """Send one message and await the reply under the deadline."""
        timeout = io_timeout
        if deadline is not None:
            remaining = self._remaining(deadline)
            timeout = remaining if timeout is None else min(timeout, remaining)
        sock.settimeout(timeout)
        try:
            send_message(sock, payload)
            reply = recv_message(sock)
        except socket.timeout as exc:
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceeded(
                    f"request deadline of {self.request_timeout}s expired "
                    f"awaiting a worker reply"
                ) from exc
            raise RemoteTransportError(f"worker I/O timed out: {exc}") from exc
        except OSError as exc:
            raise RemoteTransportError(f"worker connection failed: {exc}") from exc
        if reply is None:
            raise RemoteTransportError("worker closed the connection mid-request")
        return reply

    def _remaining(self, deadline: float) -> float:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded(
                f"request deadline of {self.request_timeout}s expired"
            )
        return remaining

    def _check_deadline(self, deadline: Optional[float]) -> None:
        if deadline is not None:
            self._remaining(deadline)

    def _backoff(self, attempt: int, deadline: Optional[float]) -> None:
        envelope = min(self.backoff_max, self.backoff_base * (2**attempt))
        delay = envelope * (0.5 + self._jitter.random())
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - time.monotonic()))
        if delay > 0:
            with obs.span("remote.backoff", attempt=attempt + 1):
                time.sleep(delay)

    # ------------------------------------------------------------------ readouts
    def stats(self) -> dict:
        """Counter snapshot: traffic, retries and per-worker health.

        Keys follow :data:`repro.obs.STATS_SCHEMA`: ``requests_total``,
        ``served_total``, ``fallback_total``, ``transport_retries_total``,
        ``overload_retries_total``, ``model_reships_total``, ``dials_total``,
        plus ``workers`` (health and ``served_total`` per fleet member).
        """
        data = {f"{event}_total": count.value for event, count in self._counts.items()}
        with self._lock:
            now = time.monotonic()
            data["workers"] = {
                w.label: {
                    "healthy": w.down_until <= now,
                    "consecutive_failures": w.failures,
                    "served_total": w.served.value,
                    "pooled_connections": len(w.idle),
                }
                for w in self._workers
            }
        data["name"] = self.name
        data["schema"] = obs.STATS_SCHEMA
        return data


#: Seconds a local worker gets to finish exiting: after its pipe closes, and
#: after it drops a connection (a SIGKILLed worker's threads still unwind).
_EXIT_TIMEOUT = 5.0

#: Why a local worker can die at startup, raised in place of the bare EOF.
_STARTUP_FAILED = (
    "a local worker process died at startup. If this happened on the first "
    "call of a *script*, the usual cause is a missing "
    "`if __name__ == '__main__':` guard around the entry point — the spawn "
    "start method re-imports __main__ in each worker, so an unguarded script "
    "re-executes itself and crashes at startup ('Safe importing of main "
    "module' in the multiprocessing docs)."
)


class ProcessPoolBackend(RemoteBackend):
    """Execute engine calls on a fleet of localhost workers this backend spawns.

    The :class:`RemoteBackend` client over ``max_workers`` local
    :class:`~repro.service.remote.worker.WorkerServer` processes, each a fresh
    ``spawn``-started interpreter (no inherited locks, thread pools or solver
    state) running one call at a time.  The limits are a process pool's: a
    worker queues without bound and never sheds, and calls have no deadline.

    * Workers start on the first out-of-process call; constructing or
      resolving the backend spawns nothing.
    * A worker whose process has exited is restarted in its slot, at a new
      address, when a call marks it down; the call's retry then runs there.
      Each start is a new fleet member, so a late failure reported against
      the old one is recognised and restarts nothing.
    * A worker exits when its pipe to this process closes — on :meth:`close`,
      or when this process dies — so a killed parent leaves no orphans.

    Parameters
    ----------
    max_workers:
        Number of worker processes (default: CPU-count-capped like the
        service's thread pool).
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        count = max_workers or default_worker_count()
        # Port 0 marks a slot whose worker has not been spawned yet.
        super().__init__(workers=[("127.0.0.1", 0)] * count, request_timeout=None)
        self.max_workers = count
        self._processes: list = [None] * count
        self._pipes: list = [None] * count
        self._spawn_lock = threading.Lock()
        self._spawned = False

    def _ensure_spawned(self) -> None:
        if self._spawned:
            return
        with self._spawn_lock:
            if self._closed:
                raise RuntimeError("ProcessPoolBackend is closed")
            if not self._spawned:
                self._spawn(range(self.max_workers))
                self._spawned = True

    def _spawn(self, slots: Sequence[int]) -> None:
        """Start a worker in each slot, then await their addresses (spawn lock held)."""
        import multiprocessing

        from repro.service.remote.worker import serve_local

        context = multiprocessing.get_context("spawn")
        try:
            for slot in slots:
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=serve_local,
                    args=(child_end,),
                    name=f"qross-local-worker-{slot}",
                    daemon=True,
                )
                process.start()
                # Only the child holds its end now, so a child that dies at
                # startup reads as EOF below instead of a hang.
                child_end.close()
                self._processes[slot], self._pipes[slot] = process, parent_end
            addresses = [self._pipes[slot].recv() for slot in slots]
        except BaseException as exc:
            self._stop(slots)
            if isinstance(exc, EOFError):
                raise RuntimeError(_STARTUP_FAILED) from exc
            raise
        with self._lock:
            for slot, address in zip(slots, addresses):
                self._workers[slot] = _WorkerState(tuple(address), self._counts["served"])

    def _stop(self, slots: Sequence[int]) -> None:
        """Close the slots' pipes, so their workers exit, and reap the processes."""
        processes = []
        for slot in slots:
            pipe, self._pipes[slot] = self._pipes[slot], None
            process, self._processes[slot] = self._processes[slot], None
            if pipe is not None:
                pipe.close()
            if process is not None:
                processes.append(process)
        for process in processes:
            process.join(timeout=_EXIT_TIMEOUT)
            if process.is_alive():
                process.kill()
                process.join()
            process.close()

    def _pick_worker(self) -> _WorkerState:
        self._ensure_spawned()
        return super()._pick_worker()

    def _mark_down(self, worker: _WorkerState) -> None:
        super()._mark_down(worker)
        with self._spawn_lock:
            if self._closed or worker not in self._workers:
                return  # closing, or another call already restarted it
            slot = self._workers.index(worker)
            process = self._processes[slot]  # None after a failed restart
            if process is not None:
                process.join(timeout=_EXIT_TIMEOUT)
                if process.is_alive():
                    return
            self._stop([slot])
            self._spawn([slot])

    def check_workers(self, timeout: Optional[float] = None) -> Dict[str, Optional[dict]]:
        self._ensure_spawned()
        return super().check_workers(timeout)

    def close(self) -> None:
        super().close()
        with self._spawn_lock:
            self._stop(range(self.max_workers))
