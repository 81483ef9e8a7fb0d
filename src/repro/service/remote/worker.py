"""Standalone solve worker: a TCP server executing engine-call frames.

Run one per core-group on every machine of the fleet::

    python -m repro.service.remote.worker --bind 0.0.0.0:7070 --max-concurrency 4

and point clients at it (``QROSS_REMOTE_WORKERS=host:7070,...`` with
``QROSS_EXECUTION_BACKEND=remote``, or an explicit
:class:`~repro.service.remote.backend.RemoteBackend`).  The ``process``
backend (:class:`~repro.service.remote.backend.ProcessPoolBackend`) spawns
the same server on localhost through :func:`serve_local`.

The server speaks the length-prefixed transport of
:mod:`~repro.service.remote.protocol`; each message is one
:mod:`~repro.service.distributed.wire` frame:

* ``hello`` — protocol-version negotiation; answered with ``hello_ack`` (the
  chosen version plus worker metadata) or a non-retryable
  ``version_mismatch`` error when the client offers no version this build
  speaks.
* ``stats`` — runtime-stats probe; answered with ``stats_ack`` carrying the
  live counters of :meth:`WorkerServer.stats` (``served_total`` /
  ``errors_total`` / ``shed_total`` / ``pending`` / ``peak_pending``) plus
  the process-wide metrics snapshot.  This is the control-plane read
  :meth:`RemoteBackend.check_workers` uses.
* ``engine_call`` — one solver call, executed by an :class:`EngineCallRunner`
  (spec-resolved solvers, per-worker model memoisation with ``model_miss``
  retry semantics, ``default_rng(seed)`` determinism).

Admission control mirrors the local service: ``max_concurrency`` engine calls
run at once, at most ``max_pending`` more may wait, and anything beyond that
is answered with a *retryable* ``overloaded`` error instead of queueing
unboundedly — the client's retry/backoff policy decides what to do with the
shed.  Solver failures travel back as non-retryable ``solve_error`` frames;
the worker never dies from a bad request.
"""

from __future__ import annotations

import argparse
import logging
import os
import socket
import sys
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.qubo.model import QUBOModel
from repro.service.admission import AdmissionGate
from repro.service.distributed import wire
from repro.service.distributed.backends import default_worker_count
from repro.service.registry import make_solver
from repro.service.remote.protocol import (
    RemoteTransportError,
    close_socket,
    recv_message,
    send_message,
)
from repro.solvers.base import QUBOSolver

#: Environment variable selecting the worker's stderr log level
#: (``DEBUG``/``INFO``/``WARNING``/``ERROR``; default ``WARNING``).  Logs go
#: to stderr — stdout stays reserved for the contractual "listening" banner.
LOG_LEVEL_ENV = "QROSS_LOG_LEVEL"

logger = logging.getLogger("qross.worker")


class StructuredFormatter(logging.Formatter):
    """Append the record's ``extra=`` fields as trailing ``key=value`` pairs.

    Keeps log lines grep-friendly without forcing call sites to interpolate
    context into the message text.
    """

    _STANDARD = frozenset(
        logging.LogRecord("", 0, "", 0, "", (), None).__dict__
    ) | {"message", "asctime", "taskName"}

    def format(self, record: logging.LogRecord) -> str:
        base = super().format(record)
        extras = {
            key: value
            for key, value in record.__dict__.items()
            if key not in self._STANDARD
        }
        if extras:
            base += " " + " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
        return base


def configure_logging(level: Optional[str] = None) -> None:
    """Install the structured stderr handler on the ``qross`` logger tree.

    ``level`` overrides :data:`LOG_LEVEL_ENV`; an unknown name degrades to
    ``WARNING`` rather than failing worker startup.
    """
    raw = (level or os.environ.get(LOG_LEVEL_ENV) or "WARNING").strip().upper()
    resolved = getattr(logging, raw, None)
    if not isinstance(resolved, int):
        resolved = logging.WARNING
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        StructuredFormatter("%(asctime)s %(levelname)s %(name)s %(message)s")
    )
    root = logging.getLogger("qross")
    root.handlers[:] = [handler]
    root.setLevel(resolved)
    root.propagate = False


#: Bound on solvers memoised per worker, keyed by spec — an LRU like the model
#: memo, just with a looser bound (config dataclasses are tiny; the bound
#: exists so a grid sweeping thousands of distinct specs cannot grow a
#: worker's memory without limit).
_WORKER_SOLVER_LIMIT = 64


class EngineCallRunner:
    """Worker-side execution of engine-call frames (frame in, frame out).

    Decodes an engine-call frame, re-resolves the solver from its registry
    spec (memoised — config dataclasses are cheap, but the registry
    round-trip validation is not free), runs it under ``default_rng(seed)``
    so results match the thread backend bit for bit, and encodes the sample
    set.  Calls may reference a previously-shipped model by fingerprint; a
    runner that does not hold it answers ``model_miss`` and the caller
    retries with the full payload.  Decoded models are memoised in an LRU
    of :data:`~repro.service.distributed.wire.MODEL_MEMO_LIMIT` entries: a
    sweep typically cycles over one or two models, and an evicted model is
    simply re-shipped on its next by-reference miss.

    Memoisation is guarded by a lock (a worker executes calls from several
    connection threads at once); the engine call itself runs outside the
    lock, so concurrent solves proceed in parallel.
    """

    def __init__(
        self,
        model_limit: int = wire.MODEL_MEMO_LIMIT,
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

        When the frame carries a propagated ``trace`` context the solve runs
        under it, so worker-side spans stitch into the calling client's trace
        tree.
        """
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


class WorkerServer:
    """One remote solve worker bound to a TCP address.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` (the default) lets the OS pick a free port;
        the resolved address is available as :attr:`address` — handy for
        in-process fleets in tests and benchmarks.
    max_concurrency:
        Engine calls executing at once (default: CPU-count-capped, like the
        local pools).
    max_pending:
        Accepted calls allowed to *wait* for a slot on top of the running
        ones (default: ``2 * max_concurrency``).  Beyond the bound, calls are
        shed with a retryable ``overloaded`` error.
    runner:
        The :class:`EngineCallRunner` executing calls (a private one per
        server by default; tests may share or instrument one).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrency: Optional[int] = None,
        max_pending: Optional[int] = None,
        runner: Optional[EngineCallRunner] = None,
    ) -> None:
        if max_concurrency is not None and max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        if max_pending is not None and max_pending < 0:
            raise ValueError("max_pending must be non-negative")
        self.max_concurrency = max_concurrency or default_worker_count()
        self.max_pending = (
            2 * self.max_concurrency if max_pending is None else max_pending
        )
        self._runner = runner or EngineCallRunner()
        # The gate bounds *everything admitted* (running + waiting); the
        # semaphore then meters how many of the admitted actually execute.
        self._gate = AdmissionGate(
            max_pending=self.max_concurrency + self.max_pending,
            name=f"worker {host}:{port}",
        )
        self._slots = threading.BoundedSemaphore(self.max_concurrency)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        # Poll-accept: a thread parked in a blocking accept() is not reliably
        # woken by close() on every platform, which would stall shutdown for
        # the full join timeout.  A short accept timeout bounds that to one
        # tick.
        self._listener.settimeout(0.25)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._served = obs.counter(
            "qross_worker_served_total", help="Engine calls this worker executed"
        ).child()
        self._errors = obs.counter(
            "qross_worker_solve_errors_total", help="Engine calls that raised"
        ).child()

    # ----------------------------------------------------------------- lifecycle
    def start(self) -> "WorkerServer":
        """Begin accepting connections on a background thread."""
        with self._lock:
            if self._accept_thread is not None:
                return self
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="qross-worker-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant of :meth:`start` (the CLI entry point)."""
        self.start()
        self._closed.wait()

    def close(self) -> None:
        """Stop accepting, drop open connections, release the port (idempotent)."""
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            close_socket(conn)
        thread = self._accept_thread
        if thread is not None:
            thread.join(timeout=5.0)
        with self._lock:
            threads = list(self._connections.values())
        for worker_thread in threads:
            worker_thread.join(timeout=5.0)

    def kill(self) -> None:
        """Abrupt stop: drop the listener and every connection, no draining.

        Simulates a worker crash for failure-injection tests — in-flight
        calls see their connection die mid-frame, exactly like a real
        process death.  Use :meth:`close` for orderly shutdown.
        """
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            close_socket(conn)

    def __enter__(self) -> "WorkerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ serving
    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue  # poll tick: re-check the closed flag
            except OSError:
                break  # listener closed
            conn.settimeout(None)  # connection reads are blocking, not polled
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="qross-worker-conn",
                daemon=True,
            )
            with self._lock:
                self._connections[conn] = thread
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            peer = "%s:%s" % conn.getpeername()[:2]
        except OSError:
            peer = "?"
        logger.debug("connection opened", extra={"peer": peer})
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._closed.is_set():
                try:
                    payload = recv_message(conn)
                except (RemoteTransportError, OSError):
                    break  # dropped mid-message or socket torn down
                if payload is None:
                    break  # clean close
                try:
                    send_message(conn, self._respond(payload))
                except OSError:
                    break  # client went away while we were answering
        finally:
            close_socket(conn)
            with self._lock:
                self._connections.pop(conn, None)
            logger.debug("connection closed", extra={"peer": peer})

    def _respond(self, payload: bytes) -> bytes:
        """One request frame -> one response frame (never raises)."""
        try:
            kind, header, _ = wire.decode_frame(payload)
        except wire.WireFormatError as exc:
            # The length prefix keeps the stream in sync, so a bad frame
            # poisons only itself — answer and keep the connection.
            return wire.encode_error("wire_format", str(exc), retryable=False)
        if kind == "hello":
            version = wire.negotiate_protocol(header.get("protocol_versions", ()))
            if version is None:
                return wire.encode_error(
                    "version_mismatch",
                    f"client speaks {header.get('protocol_versions')!r}, "
                    f"worker speaks {list(wire.SUPPORTED_PROTOCOL_VERSIONS)!r}",
                    retryable=False,
                )
            return wire.encode_hello_ack(version, info=self.stats())
        if kind == "stats":
            # The stats probe also carries the process-wide metrics registry
            # snapshot, which clients aggregate into fleet-wide metrics.
            return wire.encode_stats_ack(self.stats())
        if kind == "engine_call":
            return self._respond_engine_call(payload, header)
        return wire.encode_error(
            "unsupported", f"worker cannot handle {kind!r} frames", retryable=False
        )

    def _respond_engine_call(self, payload: bytes, header: dict) -> bytes:
        if not self._gate.try_acquire():
            logger.warning(
                "call shed at admission bound",
                extra={
                    "max_concurrency": self.max_concurrency,
                    "max_pending": self.max_pending,
                },
            )
            return wire.encode_error(
                "overloaded",
                f"worker at its admission bound "
                f"({self.max_concurrency} running + {self.max_pending} pending)",
                retryable=True,
            )
        try:
            # The request span adopts the client's wire-propagated trace
            # context, so everything below (queue wait, the runner's
            # worker.solve, the engine) stitches into the caller's tree.
            with obs.adopt_wire_context(header.get("trace")):
                with obs.span("worker.request", worker=f"{self.address[0]}:{self.address[1]}"):
                    with obs.span("worker.queue_wait"):
                        self._slots.acquire()
                    try:
                        response = self._runner.execute(payload)
                    finally:
                        self._slots.release()
            self._served.inc()
            return response
        except Exception as exc:  # noqa: BLE001 - worker must not die on bad calls
            self._errors.inc()
            logger.warning(
                "engine call failed",
                extra={"error_type": type(exc).__name__, "error": str(exc)},
            )
            return wire.encode_error(
                "solve_error", f"{type(exc).__name__}: {exc}", retryable=False
            )
        finally:
            self._gate.release()

    # ------------------------------------------------------------------ readouts
    def stats(self) -> dict:
        """Live load/health counters (also shipped in hello and stats acks).

        Keys follow :data:`repro.obs.STATS_SCHEMA`: ``served_total``,
        ``errors_total``, ``shed_total``, ``pending`` and ``peak_pending``,
        beside the worker's identity and bounds.
        """
        gate = self._gate.stats()
        return {
            "schema": obs.STATS_SCHEMA,
            "pid": os.getpid(),
            "address": f"{self.address[0]}:{self.address[1]}",
            "max_concurrency": self.max_concurrency,
            "max_pending": self.max_pending,
            "served_total": self._served.value,
            "errors_total": self._errors.value,
            "shed_total": gate["shed_total"],
            "pending": gate["pending"],
            "peak_pending": gate["peak_pending"],
        }


# ------------------------------------------------------------ local fleets
#: Calls a local worker lets wait beyond the running one.  Each waiting call
#: holds its own connection and thread, so no client reaches this bound: a
#: local worker queues like a pool process and never sheds.
_LOCAL_MAX_PENDING = 1 << 20


def serve_local(conn) -> None:
    """Run one worker of a :class:`~repro.service.remote.backend.ProcessPoolBackend`.

    The child-process entry point (module-level, so the ``spawn`` start
    method can import it): serve one call at a time on an OS-assigned
    localhost port, send the address back over ``conn``, then block on
    ``conn``.  The parent closing its end — or dying — reads as EOF here,
    and the worker shuts down.
    """
    server = WorkerServer(
        host="127.0.0.1", port=0, max_concurrency=1, max_pending=_LOCAL_MAX_PENDING
    ).start()
    try:
        conn.send(server.address)
        conn.recv()
    except EOFError:
        pass
    finally:
        server.close()


# ------------------------------------------------------------------------- CLI
def parse_bind(raw: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (port may be 0 for OS-assigned)."""
    host, sep, port = raw.rpartition(":")
    if not sep or not host:
        raise ValueError(f"--bind expects host:port, got {raw!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ValueError(f"--bind port must be an integer, got {port!r}") from exc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.remote.worker",
        description="QROSS remote solve worker (TCP engine-call server)",
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1:0",
        help="host:port to listen on (port 0 = OS-assigned; default %(default)s)",
    )
    parser.add_argument(
        "--max-concurrency",
        type=int,
        default=None,
        help="engine calls executed at once (default: CPU-count-capped)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="admitted calls allowed to wait beyond the running ones "
        "(default: 2x max-concurrency); excess is shed with a retryable error",
    )
    args = parser.parse_args(argv)
    host, port = parse_bind(args.bind)

    configure_logging()

    server = WorkerServer(
        host=host,
        port=port,
        max_concurrency=args.max_concurrency,
        max_pending=args.max_pending,
    )
    logger.info(
        "worker starting",
        extra={
            "address": f"{server.address[0]}:{server.address[1]}",
            "max_concurrency": server.max_concurrency,
            "max_pending": server.max_pending,
            "trace": obs.trace_path() or "off",
        },
    )
    # The one contractual stdout line: scripts (CI, benchmarks) parse it to
    # learn the OS-assigned port and to know the worker is accepting.
    print(
        f"qross-worker listening on {server.address[0]}:{server.address[1]} "
        f"(pid {os.getpid()}, max_concurrency {server.max_concurrency}, "
        f"max_pending {server.max_pending})",
        flush=True,
    )

    import signal

    def _shutdown(_signum, _frame):  # pragma: no cover - signal path
        server.close()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    try:
        server.serve_forever()
    finally:
        server.close()
        logger.info("worker stopped", extra={"served_total": server.stats()["served_total"]})
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
