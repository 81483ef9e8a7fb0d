"""Remote solve farm: transport framing, worker server, client backend, admission.

The robustness suite the subsystem is specified by: every failure mode —
mid-frame connection drops, truncated and garbage frames, protocol version
mismatches, worker death mid-solve, deadline expiry, fleet saturation — must
surface as a *typed* error (or a successful retry on a surviving worker),
never as a hang and never as a bare ``OSError`` leaking through the backend
seam.  Byte-parity of seeded solves across thread/process/remote lives in
``test_determinism_matrix.py``; this file owns everything else.
"""

from __future__ import annotations

import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.model import random_qubo
from repro.service import (
    AdmissionGate,
    ServiceOverloaded,
    SolveRequest,
    SolveService,
    ThreadExecutionBackend,
    make_solver,
    shared_backend,
)
from repro.service.admission import MAX_PENDING_ENV, max_pending_from_env
from repro.service.distributed import wire
from repro.service.remote import (
    DeadlineExceeded,
    RemoteBackend,
    RemoteProtocolError,
    RemoteTransportError,
    RemoteWorkerError,
    WorkerServer,
    parse_worker_list,
    recv_message,
    send_message,
)
from repro.service.remote.backend import parse_address
from repro.service.remote.worker import EngineCallRunner, parse_bind
from repro.solvers.simulated_annealing import (
    SimulatedAnnealingConfig,
    SimulatedAnnealingSolver,
)
from repro.solvers.base import QUBOSolver


class UnserialisableSolver(QUBOSolver):
    """Unregistered SA wrapper: no registry spec can express it, so the
    remote client must fall back to in-process execution."""

    name = "unserialisable-sa"

    def __init__(self) -> None:
        self.config = SimulatedAnnealingConfig(num_sweeps=10)
        self._inner = SimulatedAnnealingSolver(self.config)
        self.calls = 0

    def _sample(self, model, num_reads, rng):
        self.calls += 1
        return self._inner._sample(model, num_reads, rng)

SPEC = "sa?num_sweeps=8"
FAST = dict(connect_timeout=2.0, request_timeout=20.0, backoff_base=0.01, backoff_max=0.05)


@pytest.fixture(scope="module")
def model():
    return random_qubo(10, rng=3)


@pytest.fixture()
def worker():
    with WorkerServer() as server:
        yield server


def reference(model, num_reads, seed):
    return ThreadExecutionBackend().run(model, make_solver(SPEC), num_reads, seed)


# ------------------------------------------------------------------- transport
class TestMessageFraming:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_message(a, b"hello frame")
            assert recv_message(b) == b"hello frame"
        finally:
            a.close()
            b.close()

    def test_clean_eof_at_boundary_returns_none(self):
        a, b = socket.socketpair()
        try:
            a.close()
            assert recv_message(b) is None
        finally:
            b.close()

    def test_mid_frame_drop_is_a_transport_error(self):
        a, b = socket.socketpair()
        try:
            # A length prefix promising 100 bytes, then only 10, then EOF.
            a.sendall(b"\x64\x00\x00\x00" + b"x" * 10)
            a.close()
            with pytest.raises(RemoteTransportError, match="mid-message"):
                recv_message(b)
        finally:
            b.close()

    def test_eof_inside_length_prefix_is_a_transport_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x01\x02")  # half a length prefix
            a.close()
            with pytest.raises(RemoteTransportError, match="mid-message"):
                recv_message(b)
        finally:
            b.close()

    def test_absurd_length_rejected_before_allocation(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\xff\xff\xff\xff")  # ~4 GiB claimed
            with pytest.raises(RemoteTransportError, match="exceeds"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_oversized_send_rejected(self):
        from repro.service.remote.protocol import MAX_MESSAGE_BYTES

        class FakeLen(bytes):
            """Claims an absurd size without allocating it."""

            def __len__(self):
                return MAX_MESSAGE_BYTES + 1

        a, b = socket.socketpair()
        try:
            with pytest.raises(ValueError, match="transport bound"):
                send_message(a, FakeLen(b""))
        finally:
            a.close()
            b.close()


class TestControlPlaneFrames:
    def test_hello_roundtrip_and_negotiation(self):
        kind, header, _ = wire.decode_frame(wire.encode_hello())
        assert kind == "hello"
        assert wire.negotiate_protocol(header["protocol_versions"]) == wire.PROTOCOL_VERSION
        assert wire.negotiate_protocol([999]) is None
        assert wire.negotiate_protocol([]) is None

    def test_hello_ack_carries_version_and_info(self):
        kind, header, _ = wire.decode_frame(wire.encode_hello_ack(1, info={"pid": 42}))
        assert kind == "hello_ack"
        assert header["protocol_version"] == 1
        assert header["info"]["pid"] == 42

    def test_stats_frames_roundtrip(self):
        kind, header, _ = wire.decode_frame(wire.encode_stats_request({"who": "ci"}))
        assert kind == "stats"
        assert header["info"] == {"who": "ci"}
        kind, header, _ = wire.decode_frame(
            wire.encode_stats_ack({"served_total": 3, "shed_total": 1})
        )
        assert kind == "stats_ack"
        assert header["stats"] == {"served_total": 3, "shed_total": 1}

    def test_error_frame_roundtrip(self):
        kind, header, _ = wire.decode_frame(
            wire.encode_error("overloaded", "full", retryable=True)
        )
        assert kind == "error"
        assert wire.decode_error(header) == ("overloaded", "full", True)


# ---------------------------------------------------------------- worker server
def _connect(server: WorkerServer) -> socket.socket:
    conn = socket.create_connection(server.address, timeout=5.0)
    conn.settimeout(5.0)
    return conn


def _ask(conn: socket.socket, payload: bytes) -> tuple:
    send_message(conn, payload)
    reply = recv_message(conn)
    assert reply is not None
    return wire.decode_frame(reply)


class TestWorkerServer:
    def test_hello_negotiates_and_reports_stats(self, worker):
        with _connect(worker) as conn:
            kind, header, _ = _ask(conn, wire.encode_hello())
        assert kind == "hello_ack"
        assert header["protocol_version"] == wire.PROTOCOL_VERSION
        assert header["info"]["pid"] == os.getpid()

    def test_stats_request_answered_with_counters(self, worker):
        with _connect(worker) as conn:
            kind, header, _ = _ask(conn, wire.encode_stats_request())
        assert kind == "stats_ack"
        stats = header["stats"]
        for key in (
            "served_total",
            "shed_total",
            "errors_total",
            "pending",
            "max_concurrency",
            "max_pending",
        ):
            assert key in stats

    def test_version_mismatch_is_a_typed_error(self, worker):
        for offered in ([999], [1]):  # an unknown version and the retired one
            with _connect(worker) as conn:
                kind, header, _ = _ask(conn, wire.encode_hello(protocol_versions=offered))
            assert kind == "error"
            code, _, retryable = wire.decode_error(header)
            assert code == "version_mismatch"
            assert retryable is False

    def test_garbage_frame_answered_and_connection_survives(self, worker):
        with _connect(worker) as conn:
            kind, header, _ = _ask(conn, b"this is not a wire frame")
            assert kind == "error"
            assert wire.decode_error(header)[0] == "wire_format"
            # The length prefix kept the stream in sync: the same connection
            # still serves well-formed traffic.
            kind, header, _ = _ask(conn, wire.encode_stats_request())
            assert kind == "stats_ack"
            assert header["stats"]["errors_total"] == 0

    def test_engine_call_matches_thread_backend(self, worker, model):
        payload = wire.encode_engine_call(model, SPEC, 3, 77)
        with _connect(worker) as conn:
            kind, header, buffers = _ask(conn, payload)
        assert kind == "sample_set"
        from repro.qubo.sampleset import SampleSet

        samples = SampleSet.from_wire(header, buffers)
        expected = reference(model, 3, 77)
        assert np.array_equal(samples.assignments, expected.assignments)
        assert np.array_equal(samples.energies, expected.energies)

    def test_model_miss_for_unknown_reference(self, worker, model):
        payload = wire.encode_engine_call_ref(model.fingerprint(), SPEC, 2, 1)
        with _connect(worker) as conn:
            kind, header, _ = _ask(conn, payload)
        assert kind == "model_miss"
        assert header["model_ref"] == model.fingerprint()

    def test_bad_solver_spec_is_a_solve_error_not_a_crash(self, worker, model):
        payload = wire.encode_engine_call(model, "no-such-solver", 2, 1)
        with _connect(worker) as conn:
            kind, header, _ = _ask(conn, payload)
            assert kind == "error"
            code, _, retryable = wire.decode_error(header)
            assert code == "solve_error"
            assert retryable is False
            # The worker survived the bad call.
            kind, _, _ = _ask(conn, wire.encode_stats_request())
            assert kind == "stats_ack"

    def test_unsupported_frame_kind(self, worker):
        with _connect(worker) as conn:
            kind, header, _ = _ask(conn, wire.encode_frame("no_such_kind", {}))
        assert kind == "error"
        assert wire.decode_error(header)[0] == "unsupported"

    def test_cli_bind_parsing(self):
        assert parse_bind("0.0.0.0:7070") == ("0.0.0.0", 7070)
        with pytest.raises(ValueError):
            parse_bind("7070")
        with pytest.raises(ValueError):
            parse_bind("host:notaport")


class _BlockingRunner(EngineCallRunner):
    """Holds every engine call until released — saturation on demand."""

    def __init__(self):
        super().__init__()
        self.started = threading.Event()
        self.release = threading.Event()

    def execute(self, payload):
        self.started.set()
        assert self.release.wait(30), "test forgot to release the runner"
        return super().execute(payload)


class TestWorkerAdmission:
    def test_saturated_worker_sheds_with_retryable_error(self, model):
        runner = _BlockingRunner()
        with WorkerServer(max_concurrency=1, max_pending=0, runner=runner) as server:
            first = RemoteBackend(workers=[server.address], retries=0, **FAST)
            results = {}

            def occupy():
                results["first"] = first.run(model, make_solver(SPEC), 2, 5)

            thread = threading.Thread(target=occupy)
            thread.start()
            assert runner.started.wait(10)

            # Fleet-wide saturation: the retry budget drains on sheds and the
            # client surfaces the typed overload error.
            second = RemoteBackend(workers=[server.address], retries=1, **FAST)
            with pytest.raises(ServiceOverloaded, match="shed"):
                second.run(model, make_solver(SPEC), 2, 6)
            assert server.stats()["shed_total"] >= 2  # one per drained attempt

            runner.release.set()
            thread.join(timeout=30)
            assert np.array_equal(
                results["first"].assignments, reference(model, 2, 5).assignments
            )
            first.close()
            second.close()


# ---------------------------------------------------------------- client backend
class TestRemoteBackendClient:
    def test_round_robin_spreads_over_the_fleet(self, model):
        with WorkerServer() as w1, WorkerServer() as w2:
            backend = RemoteBackend(workers=[w1.address, w2.address], **FAST)
            solver = make_solver(SPEC)
            for seed in range(6):
                backend.run(model, solver, 2, seed)
            assert w1.stats()["served_total"] == 3
            assert w2.stats()["served_total"] == 3
            # Ref-frames after the first full ship per worker: the model
            # travelled once per fleet member, not once per call.
            stats = backend.stats()
            assert stats["served_total"] == 6
            assert stats["dials_total"] == 2
            backend.close()

    def test_pick_skips_a_busy_worker_for_an_idle_one(self, model):
        runner = _BlockingRunner()
        with WorkerServer(runner=runner) as w1, WorkerServer() as w2:
            backend = RemoteBackend(workers=[w1.address, w2.address], **FAST)
            solver = make_solver(SPEC)
            results = {}

            def call(name, seed):
                results[name] = backend.run(model, solver, 2, seed)

            blocked = threading.Thread(target=call, args=("A", 1))
            late = threading.Thread(target=call, args=("C", 3))
            blocked.start()
            try:
                assert runner.started.wait(10)  # A is on w1, held by its runner
                call("B", 2)
                assert w2.stats()["served_total"] == 1
                # w1 still runs A and w2 is idle: C must not queue behind A.
                late.start()
                late.join(timeout=10)
                assert "C" in results, "C was sent to the busy worker"
                assert "A" not in results
                assert w2.stats()["served_total"] == 2
            finally:
                runner.release.set()
                blocked.join(timeout=30)
                if late.ident is not None:
                    late.join(timeout=30)
                backend.close()
            assert np.array_equal(results["C"].assignments, reference(model, 2, 3).assignments)

    def test_worker_death_mid_solve_retries_on_survivor(self, model):
        class DyingRunner(EngineCallRunner):
            """Simulates a crash: kills its server upon receiving a call."""

            def __init__(self):
                super().__init__()
                self.server = None

            def execute(self, payload):
                self.server.kill()
                raise RuntimeError("worker process died")

        runner = DyingRunner()
        dying = WorkerServer(runner=runner)
        runner.server = dying
        with dying, WorkerServer() as survivor:
            backend = RemoteBackend(
                workers=[dying.address, survivor.address], retries=2, **FAST
            )
            result = backend.run(model, make_solver(SPEC), 3, 11)
            assert np.array_equal(
                result.assignments, reference(model, 3, 11).assignments
            )
            stats = backend.stats()
            assert stats["transport_retries_total"] >= 1
            assert stats["workers"][f"{dying.address[0]}:{dying.address[1]}"][
                "consecutive_failures"
            ] >= 1
            backend.close()

    def test_dead_worker_at_connect_retries_on_live_one(self, model):
        # A port that nothing listens on: bind, learn the address, close.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()[:2]
        probe.close()
        with WorkerServer() as live:
            backend = RemoteBackend(
                workers=[dead_address, live.address], retries=2, **FAST
            )
            result = backend.run(model, make_solver(SPEC), 2, 9)
            assert np.array_equal(
                result.assignments, reference(model, 2, 9).assignments
            )
            # Once marked down, the dead worker is skipped without burning
            # retries: a second call goes straight to the live one.
            backend.run(model, make_solver(SPEC), 2, 10)
            assert live.stats()["served_total"] == 2
            backend.close()

    def test_deadline_expiry_is_typed_and_prompt(self, model):
        # A listener that accepts and then never answers anything.
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        try:
            backend = RemoteBackend(
                workers=[silent.getsockname()[:2]],
                connect_timeout=5.0,
                request_timeout=0.4,
                retries=3,
            )
            start = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                backend.run(model, make_solver(SPEC), 2, 1)
            assert time.monotonic() - start < 5.0
            backend.close()
        finally:
            silent.close()

    def test_solve_error_surfaces_as_worker_error_without_retry(self, model):
        class FailingRunner(EngineCallRunner):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def execute(self, payload):
                self.calls += 1
                raise ValueError("boom")

        runner = FailingRunner()
        with WorkerServer(runner=runner) as server:
            backend = RemoteBackend(workers=[server.address], retries=3, **FAST)
            with pytest.raises(RemoteWorkerError, match="boom"):
                backend.run(model, make_solver(SPEC), 2, 1)
            assert runner.calls == 1  # deterministic failure: no retries
            backend.close()

    def test_version_mismatch_from_server_is_protocol_error(self, model):
        def serve_mismatch(listener):
            conn, _ = listener.accept()
            with conn:
                recv_message(conn)
                send_message(
                    conn, wire.encode_error("version_mismatch", "too old", False)
                )

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        thread = threading.Thread(target=serve_mismatch, args=(listener,), daemon=True)
        thread.start()
        try:
            backend = RemoteBackend(
                workers=[listener.getsockname()[:2]], retries=2, **FAST
            )
            with pytest.raises(RemoteProtocolError, match="version_mismatch"):
                backend.run(model, make_solver(SPEC), 2, 1)
            backend.close()
        finally:
            listener.close()
            thread.join(timeout=5)

    def test_garbage_reply_is_protocol_error(self, model):
        def serve_garbage(listener):
            conn, _ = listener.accept()
            with conn:
                recv_message(conn)  # hello
                send_message(conn, b"utter nonsense")

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        thread = threading.Thread(target=serve_garbage, args=(listener,), daemon=True)
        thread.start()
        try:
            backend = RemoteBackend(
                workers=[listener.getsockname()[:2]], retries=1, **FAST
            )
            with pytest.raises(RemoteProtocolError, match="undecodable"):
                backend.run(model, make_solver(SPEC), 2, 1)
            backend.close()
        finally:
            listener.close()
            thread.join(timeout=5)

    def test_unserialisable_solver_falls_back_in_process(self, model):
        with WorkerServer() as server:
            backend = RemoteBackend(workers=[server.address], **FAST)
            solver = UnserialisableSolver()
            result = backend.run(model, solver, 2, 13)
            assert solver.calls == 1  # ran here, not on the worker
            assert server.stats()["served_total"] == 0
            assert backend.stats()["fallback_total"] == 1
            direct = solver._inner.sample(model, 2, rng=np.random.default_rng(13))
            assert np.array_equal(result.assignments, direct.assignments)
            backend.close()

    def test_check_workers_reports_and_marks_health(self, model):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()[:2]
        probe.close()
        with WorkerServer() as live:
            backend = RemoteBackend(
                workers=[live.address, dead_address], retries=0, **FAST
            )
            health = backend.check_workers(timeout=1.0)
            live_label = f"{live.address[0]}:{live.address[1]}"
            dead_label = f"{dead_address[0]}:{dead_address[1]}"
            assert health[live_label]["max_concurrency"] == live.max_concurrency
            assert health[dead_label] is None
            assert backend.stats()["workers"][dead_label]["healthy"] is False
            backend.close()

    def test_check_workers_surfaces_served_and_shed_counters(self, model):
        with WorkerServer() as server:
            backend = RemoteBackend(workers=[server.address], **FAST)
            before = backend.check_workers(timeout=2.0)
            label = f"{server.address[0]}:{server.address[1]}"
            assert before[label]["served_total"] == 0
            backend.run(model, make_solver(SPEC), 2, 1)
            after = backend.check_workers(timeout=2.0)
            assert after[label]["served_total"] == 1
            assert after[label]["shed_total"] == 0
            assert after[label]["errors_total"] == 0
            backend.close()

    def test_worker_list_parsing(self, monkeypatch):
        assert parse_worker_list("a:1,b:2") == [("a", 1), ("b", 2)]
        assert parse_worker_list("a:1; b:2,") == [("a", 1), ("b", 2)]
        assert parse_worker_list([("h", 9), "i:10"]) == [("h", 9), ("i", 10)]
        with pytest.raises(ValueError, match="host:port"):
            parse_worker_list("just-a-host")
        with pytest.raises(ValueError, match="empty"):
            parse_worker_list(",")
        monkeypatch.delenv("QROSS_REMOTE_WORKERS", raising=False)
        with pytest.raises(ValueError, match="worker fleet"):
            parse_worker_list(None)  # no argument and no environment fleet
        assert parse_address("10.0.0.1:7070") == ("10.0.0.1", 7070)

    def test_env_configures_the_fleet(self, monkeypatch, model):
        with WorkerServer() as server:
            monkeypatch.setenv(
                "QROSS_REMOTE_WORKERS", f"{server.address[0]}:{server.address[1]}"
            )
            backend = RemoteBackend(**FAST)
            backend.run(model, make_solver(SPEC), 2, 4)
            assert server.stats()["served_total"] == 1
            backend.close()

    def test_spec_resolution_and_option_validation(self, model):
        with WorkerServer() as server:
            spec = f"remote?workers={server.address[0]}:{server.address[1]}&retries=1"
            backend = shared_backend(spec)
            assert backend.name == "remote"
            assert backend.retries == 1
            backend.run(model, make_solver(SPEC), 2, 8)
            assert server.stats()["served_total"] == 1
            backend.close()  # the fleet address dies with the test
        with pytest.raises(ValueError, match="unknown remote-backend option"):
            shared_backend("remote?bogus=1")


# ------------------------------------------------------------ service admission
class _BlockingBackend(ThreadExecutionBackend):
    """An in-process backend that parks engine calls until released."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()

    def run(self, model, solver, num_reads, seed):
        assert self.release.wait(30), "test forgot to release the backend"
        return super().run(model, solver, num_reads, seed)


class TestServiceAdmission:
    def test_gate_counts_and_sheds(self):
        gate = AdmissionGate(max_pending=2)
        assert gate.try_acquire() and gate.try_acquire()
        assert not gate.try_acquire()
        with pytest.raises(ServiceOverloaded, match="max_pending=2"):
            gate.acquire()
        gate.release()
        assert gate.try_acquire()
        stats = gate.stats()
        assert stats == {
            "schema": "qross.stats/2",
            "max_pending": 2,
            "admitted_total": 3,
            "completed_total": 1,
            "pending": 2,
            "peak_pending": 2,
            "shed_total": 2,
        }

    def test_gate_rejects_unmatched_release_and_bad_bounds(self):
        with pytest.raises(ValueError):
            AdmissionGate(max_pending=0)
        gate = AdmissionGate()
        with pytest.raises(RuntimeError, match="without a matching"):
            gate.release()

    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv(MAX_PENDING_ENV, raising=False)
        assert max_pending_from_env() is None
        monkeypatch.setenv(MAX_PENDING_ENV, "12")
        assert max_pending_from_env() == 12
        monkeypatch.setenv(MAX_PENDING_ENV, "zero")
        with pytest.raises(ValueError, match="integer"):
            max_pending_from_env()
        monkeypatch.setenv(MAX_PENDING_ENV, "-3")
        with pytest.raises(ValueError, match="positive"):
            max_pending_from_env()

    def test_service_sheds_beyond_max_pending(self, model):
        backend = _BlockingBackend()
        with SolveService(max_workers=2, backend=backend, max_pending=2) as service:
            f1 = service.submit(SolveRequest(solver=SPEC, model=model, seed=1))
            f2 = service.submit(SolveRequest(solver=SPEC, model=model, seed=2))
            with pytest.raises(ServiceOverloaded, match="shed, not queued"):
                service.submit(SolveRequest(solver=SPEC, model=model, seed=3))
            backend.release.set()
            assert f1.result(timeout=30).samples is not None
            assert f2.result(timeout=30).samples is not None
            # The slots freed: the shed request now fits.
            result = service.submit(
                SolveRequest(solver=SPEC, model=model, seed=3)
            ).result(timeout=30)
            assert result.samples is not None
            stats = service.stats()
            assert stats["shed_total"] == 1
            assert stats["served_total"] == 3
            assert stats["failed_total"] == 0
            assert stats["pending"] == 0
            assert stats["backend"]["name"] == "thread"

    def test_map_requests_sheds_a_batch_that_does_not_fit_whole(self, model):
        class CountingBackend(_BlockingBackend):
            def __init__(self):
                super().__init__()
                self.seeds = []
                self.seeds_lock = threading.Lock()

            def run(self, model, solver, num_reads, seed):
                with self.seeds_lock:
                    self.seeds.append(seed)
                return super().run(model, solver, num_reads, seed)

        backend = CountingBackend()
        with SolveService(max_workers=2, backend=backend, max_pending=2) as service:
            try:
                with pytest.raises(ServiceOverloaded):
                    service.map_requests(
                        [SolveRequest(solver=SPEC, model=model, seed=seed) for seed in (1, 2, 3, 4)]
                    )
                shed = service.stats()
            finally:
                backend.release.set()
            # A batch that fits runs whole.
            results = service.map_requests(
                [SolveRequest(solver=SPEC, model=model, seed=seed) for seed in (5, 6)]
            )
        stats = service.stats()
        assert shed["shed_total"] == 4
        assert shed["admitted_total"] == 0
        assert shed["pending"] == 0
        assert [result.request.seed for result in results] == [5, 6]
        assert sorted(backend.seeds) == [5, 6]  # the shed batch reached no engine
        assert stats["admitted_total"] == 2
        assert stats["admitted_total"] == stats["served_total"] + stats["failed_total"]

    def test_service_reads_env_bound(self, monkeypatch):
        monkeypatch.setenv(MAX_PENDING_ENV, "5")
        with SolveService(max_workers=1) as service:
            assert service._gate.max_pending == 5
        with SolveService(max_workers=1, max_pending=None) as service:
            assert service._gate.max_pending is None

    def test_failed_tasks_release_their_slot(self, model):
        class ExplodingBackend(ThreadExecutionBackend):
            def run(self, model, solver, num_reads, seed):
                raise RuntimeError("engine exploded")

        with SolveService(
            max_workers=1, backend=ExplodingBackend(), max_pending=1
        ) as service:
            future = service.submit(SolveRequest(solver=SPEC, model=model, seed=1))
            with pytest.raises(RuntimeError, match="exploded"):
                future.result(timeout=30)
            stats = service.stats()
            assert stats["failed_total"] == 1
            assert stats["pending"] == 0  # the slot came back

    def test_submit_after_close_settles_as_failed(self, model):
        service = SolveService(max_workers=1)
        service.solve(model, solver=SPEC, num_reads=2, seed=1)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(SolveRequest(solver=SPEC, model=model, seed=2))
        stats = service.stats()
        assert stats["admitted_total"] == 2
        assert stats["served_total"] == 1
        assert stats["failed_total"] == 1
        assert stats["pending"] == 0

    def test_accounting_identity_at_quiescence(self, model):
        """Concurrent seeded duplicates, a shed and a failing engine call."""

        class CountingBackend(_BlockingBackend):
            def __init__(self):
                super().__init__()
                self.calls = []
                self.calls_lock = threading.Lock()

            def run(self, model, solver, num_reads, seed):
                with self.calls_lock:
                    self.calls.append(seed)
                assert self.release.wait(30), "test forgot to release the backend"
                if seed == 13:
                    raise RuntimeError("engine exploded")
                return super().run(model, solver, num_reads, seed)

        seeds = [1, 1, 1, 2, 2, 13]
        backend = CountingBackend()
        with SolveService(max_workers=4, backend=backend, max_pending=len(seeds)) as service:
            futures = [
                service.submit(SolveRequest(solver=SPEC, model=model, seed=seed))
                for seed in seeds
            ]
            # Nothing settles before the release, so the gate is full.
            with pytest.raises(ServiceOverloaded):
                service.submit(SolveRequest(solver=SPEC, model=model, seed=3))
            backend.release.set()
            outcomes = [future.exception(timeout=30) for future in futures]
        # close() joined the pool threads, so every done-callback has run.
        stats = service.stats()
        assert sum(outcome is not None for outcome in outcomes) == 1
        assert stats["admitted_total"] == len(seeds)
        assert stats["shed_total"] == 1
        assert stats["admitted_total"] == stats["served_total"] + stats["failed_total"]
        assert stats["failed_total"] == 1
        assert stats["pending"] == 0
        assert sorted(backend.calls) == [1, 2, 13]  # once per distinct key


# --------------------------------------------------------------- RNG gap closed
class TestSampleAndEvaluateRouting:
    def test_sample_thread_path_pinned_byte_identical(self, model):
        """On the thread backend too, one child seed is drawn from the stream."""
        with SolveService(max_workers=2, backend="thread") as service:
            routed = service.sample(model, SPEC, 4, rng=np.random.default_rng(21))
        seed = int(np.random.default_rng(21).integers(0, 2**63 - 1))
        expected = reference(model, 4, seed)
        assert np.array_equal(routed.assignments, expected.assignments)
        assert np.array_equal(routed.energies, expected.energies)

    def test_sample_routes_through_remote_backend(self, model):
        """The ROADMAP-flagged gap: sample() must not bypass the backend."""
        with WorkerServer() as server:
            backend = RemoteBackend(workers=[server.address], **FAST)
            with SolveService(max_workers=2, backend=backend) as service:
                routed = service.sample(model, SPEC, 3, rng=np.random.default_rng(17))
            assert server.stats()["served_total"] == 1  # it ran on the fleet
            backend.close()
        # Out-of-process contract: one child seed is drawn from the stream.
        seed = int(np.random.default_rng(17).integers(0, 2**63 - 1))
        expected = reference(model, 3, seed)
        assert np.array_equal(routed.assignments, expected.assignments)

    def test_evaluate_routes_through_remote_backend(self):
        problem = TSPProblem(generate_instance(5, rng=0, name="remote-tsp"))
        with WorkerServer() as server:
            backend = RemoteBackend(workers=[server.address], **FAST)
            with SolveService(max_workers=2, backend=backend) as service:
                first = service.evaluate(
                    problem, SPEC, 9.0, 6, rng=np.random.default_rng(3)
                )
                second = service.evaluate(
                    problem, SPEC, 9.0, 6, rng=np.random.default_rng(3)
                )
            assert server.stats()["served_total"] == 2  # both ran on the fleet
            assert first == second  # seeded: deterministic across calls
            backend.close()


# ------------------------------------------------------------------ CLI worker
class TestWorkerCli:
    def test_standalone_worker_subprocess_serves_the_backend(self, model):
        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo / "src"), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.remote.worker", "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            assert match, f"unexpected worker banner: {line!r}"
            address = (match.group(1), int(match.group(2)))
            backend = RemoteBackend(workers=[address], **FAST)
            result = backend.run(model, make_solver(SPEC), 3, 42)
            expected = reference(model, 3, 42)
            assert np.array_equal(result.assignments, expected.assignments)
            assert np.array_equal(result.energies, expected.energies)
            backend.close()
        finally:
            proc.terminate()
            proc.wait(timeout=15)
