"""Trace-context propagation: wire round-trip, stitched trees, determinism.

The tentpole guarantee under test: one seeded solve through the remote fleet
yields ONE stitched trace tree — client span → service.solve → remote.run →
remote.rpc → worker.request → worker.queue_wait → worker.solve →
engine.sample — with a single ``trace_id``, and turning tracing on never
changes a seeded result's bytes.
"""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest

from repro import obs
from repro.core.dataset import SamplingPlan, collect_instance_records
from repro.core.features import TSPStatisticsExtractor
from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.model import QUBOModel, random_qubo
from repro.qubo.sampleset import SampleSet
from repro.service import ProcessPoolBackend, ThreadExecutionBackend
from repro.service.distributed import wire
from repro.service.registry import make_solver
from repro.service.remote import RemoteBackend, WorkerServer
from repro.service.service import SolveService


@pytest.fixture(autouse=True)
def _isolated_tracing():
    obs.reset_tracing()
    yield
    obs.reset_tracing()


def read_events(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def span_index(events):
    return {e["span_id"]: e for e in events}


# ------------------------------------------------------------- wire round-trip
class TestWireTraceHeader:
    def test_trace_header_round_trips(self):
        model = random_qubo(8, rng=0)
        ctx = {"trace_id": "aa" * 8, "span_id": "bb" * 8}
        frame = wire.encode_engine_call(model, "sa", 4, 7, trace=ctx)
        _, header, buffers = wire.decode_frame(frame, expected_kind="engine_call")
        assert header["trace"] == ctx
        # The model decoder is indifferent to the extra key.
        assert (QUBOModel.from_wire(header["model"], buffers).Q == model.Q).all()
        assert (header["solver_spec"], header["num_reads"], header["seed"]) == ("sa", 4, 7)

    def test_trace_header_round_trips_by_reference(self):
        ctx = {"trace_id": "cc" * 8, "span_id": "dd" * 8}
        frame = wire.encode_engine_call_ref("fp123", "sa", 4, 7, trace=ctx)
        _, header, _ = wire.decode_frame(frame, expected_kind="engine_call")
        assert header["trace"] == ctx
        assert header["model_ref"] == "fp123"

    def test_no_trace_means_no_header_key(self):
        model = random_qubo(8, rng=0)
        frame = wire.encode_engine_call(model, "sa", 4, 7)
        _, header, _ = wire.decode_frame(frame, expected_kind="engine_call")
        assert "trace" not in header
        frame = wire.encode_engine_call_ref("fp123", "sa", 4, 7, trace=None)
        _, header, _ = wire.decode_frame(frame, expected_kind="engine_call")
        assert "trace" not in header

    def test_old_worker_tolerates_traced_frames(self):
        """The ``trace`` header key never changes what a worker computes.

        The engine-call runner reads the trace context with ``header.get``,
        so frames with and without a ``trace`` key execute identically.
        """
        from repro.service.remote.worker import EngineCallRunner

        model = random_qubo(8, rng=0)
        runner = EngineCallRunner()
        traced = wire.encode_engine_call(
            model, "sa?num_sweeps=10", 3, 11,
            trace={"trace_id": "aa" * 8, "span_id": "bb" * 8},
        )
        untraced = wire.encode_engine_call(model, "sa?num_sweeps=10", 3, 11)

        def reply(frame):
            _, header, buffers = wire.decode_frame(runner.execute(frame), "sample_set")
            return SampleSet.from_wire(header, buffers)

        a, b = reply(traced), reply(untraced)
        assert (a.assignments == b.assignments).all()
        assert (a.energies == b.energies).all()

    def test_protocol_negotiation_spans_versions(self):
        assert wire.PROTOCOL_VERSION == 2
        assert wire.negotiate_protocol([1]) is None  # protocol 1 is retired
        assert wire.negotiate_protocol([1, 2]) == 2
        assert wire.negotiate_protocol([2, 99]) == 2
        assert wire.negotiate_protocol([99]) is None


# ------------------------------------------------------------- stitched trees
class TestStitchedTraces:
    def test_remote_solve_yields_one_stitched_tree(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        obs.configure_tracing(sink)
        model = random_qubo(12, rng=2)
        with WorkerServer() as server:
            backend = RemoteBackend(workers=[server.address])
            with obs.span("client"):
                with SolveService(backend=backend, max_workers=2) as service:
                    service.solve(model, solver="sa?num_sweeps=10", num_reads=3, seed=5)
            backend.close()
        obs.reset_tracing()

        events = read_events(sink)
        assert len({e["trace_id"] for e in events}) == 1
        by_id = span_index(events)

        def parent_name(event):
            parent = by_id.get(event["parent_id"])
            return parent["name"] if parent else None

        chain = {}
        for event in events:
            chain[event["name"]] = parent_name(event)
        assert chain["engine.sample"] == "worker.solve"
        assert chain["worker.solve"] == "worker.request"
        assert chain["worker.queue_wait"] == "worker.request"
        assert chain["worker.request"] == "remote.rpc"
        assert chain["remote.rpc"] == "remote.run"
        assert chain["remote.run"] == "service.solve"
        assert chain["service.solve"] == "client"
        assert chain["client"] is None

    def test_worker_spans_root_their_own_trace_without_client_context(self, tmp_path):
        """An untraced (old) client still produces a coherent worker-side tree."""
        sink = tmp_path / "trace.jsonl"
        model = random_qubo(10, rng=2)
        with WorkerServer() as server:
            # Client side untraced: RemoteBackend sends no trace header.
            backend = RemoteBackend(workers=[server.address])
            obs.configure_tracing(sink)  # worker (same process) traces
            backend.run(model, make_solver("sa?num_sweeps=10"), 3, 5)
            obs.reset_tracing()
            backend.close()
        events = read_events(sink)
        names = {e["name"] for e in events}
        assert "worker.request" in names and "worker.solve" in names
        roots = [e for e in events if e["parent_id"] is None]
        request = next(e for e in events if e["name"] == "worker.request")
        # With tracing shared in-process, the client-side remote spans appear
        # too; the key property is that every span joins one coherent tree.
        by_id = span_index(events)
        node = request
        while node["parent_id"] is not None:
            node = by_id[node["parent_id"]]
        assert node in roots

    def test_service_pool_threads_inherit_submitting_context(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        obs.configure_tracing(sink)
        model = random_qubo(10, rng=4)
        with obs.span("client"):
            with SolveService(max_workers=2) as service:
                service.solve(model, solver="sa?num_sweeps=10", num_reads=2, seed=3)
        obs.reset_tracing()
        events = read_events(sink)
        by_id = span_index(events)
        solve = next(e for e in events if e["name"] == "service.solve")
        assert by_id[solve["parent_id"]]["name"] == "client"
        assert solve["attrs"]["path"] == "seeded"
        assert solve["attrs"]["cache"] == "miss"

    def test_seeded_cache_hit_is_visible_in_span(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        obs.configure_tracing(sink)
        model = random_qubo(10, rng=4)
        with SolveService(max_workers=2) as service:
            service.solve(model, solver="sa?num_sweeps=10", num_reads=2, seed=3)
            service.solve(model, solver="sa?num_sweeps=10", num_reads=2, seed=3)
        obs.reset_tracing()
        caches = [
            e["attrs"]["cache"]
            for e in read_events(sink)
            if e["name"] == "service.solve"
        ]
        assert sorted(caches) == ["hit", "miss"]

    def test_sample_is_a_traced_seeded_request(self, tmp_path):
        """``sample`` opens a seeded ``service.solve`` span and feeds the latency histogram."""
        sink = tmp_path / "trace.jsonl"
        latency = obs.histogram("qross_service_request_seconds", labels={"path": "seeded"})
        before = latency.count
        seed = int(np.random.default_rng(3).integers(0, 2**63 - 1))
        obs.configure_tracing(sink)
        model = random_qubo(10, rng=4)
        with SolveService(max_workers=1) as service:
            for _ in range(2):
                service.sample(model, "sa?num_sweeps=10", 2, rng=np.random.default_rng(3))
        obs.reset_tracing()
        solves = [e["attrs"] for e in read_events(sink) if e["name"] == "service.solve"]
        assert [attrs["path"] for attrs in solves] == ["seeded", "seeded"]
        assert [attrs["seed"] for attrs in solves] == [seed, seed]
        assert sorted(attrs["cache"] for attrs in solves) == ["hit", "miss"]
        assert latency.count == before + 2


# ------------------------------------------------------ grouped collection
class TestCollectionSpans:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_collection_evaluates_twice_with_nested_engine_calls(
        self, backend, tmp_path, monkeypatch
    ):
        """One instance's collection: a ``service.evaluate`` span for the
        coarse grid and one for the refinement points, every engine call
        nested under one of them and no orphan span.  The thread backend runs
        each stage as one grouped DA call; the process backend sends one wire
        request per ``A``."""
        sink = tmp_path / "trace.jsonl"
        # Spawned workers read QROSS_TRACE at start-up and append to the sink.
        monkeypatch.setenv(obs.TRACE_ENV, str(sink))
        obs.reset_tracing()
        problem = TSPProblem(generate_instance(5, rng=1, name="trace-tsp"))
        plan = SamplingPlan(
            coarse_multipliers=(0.25, 0.5, 1.0, 2.0, 3.0), num_refinement_points=2, num_reads=4
        )
        execution = (
            ThreadExecutionBackend() if backend == "thread" else ProcessPoolBackend(max_workers=1)
        )
        try:
            with SolveService(max_workers=2, backend=execution) as service:
                records = collect_instance_records(
                    problem, make_solver("da?num_steps=60"), TSPStatisticsExtractor(), plan,
                    rng=0, service=service,
                )
        finally:
            execution.close()
        obs.reset_tracing()

        events = read_events(sink)
        by_id = span_index(events)
        assert [e for e in events if e["parent_id"] and e["parent_id"] not in by_id] == []

        def enclosing_evaluate(event):
            while event["parent_id"] is not None:
                event = by_id[event["parent_id"]]
                if event["name"] == "service.evaluate":
                    return event
            return None

        evaluates = [e for e in events if e["name"] == "service.evaluate"]
        assert len(evaluates) == 2
        assert sum(e["attrs"]["misses"] for e in evaluates) == len(records)
        samples = [e for e in events if e["name"] == "engine.sample"]
        parents = [enclosing_evaluate(e) for e in samples]
        assert all(parent is not None for parent in parents)
        if backend == "thread":
            assert len(samples) == 2
            for sample, parent in zip(samples, parents):
                assert sample["attrs"]["num_models"] == parent["attrs"]["misses"]
                assert sample["attrs"]["num_reads"] == 4 * parent["attrs"]["misses"]
        else:
            assert len(samples) == len(records)


# ----------------------------------------------------- determinism + stats_ack
class TestTracingNeutrality:
    def test_traced_remote_solve_is_byte_identical(self, tmp_path):
        model = random_qubo(12, rng=6)
        with WorkerServer() as server:
            backend = RemoteBackend(workers=[server.address])
            solver = make_solver("sa?num_sweeps=15")
            plain = backend.run(model, solver, 4, 9)
            obs.configure_tracing(tmp_path / "trace.jsonl")
            traced = backend.run(model, solver, 4, 9)
            obs.reset_tracing()
            backend.close()
        assert (plain.assignments == traced.assignments).all()
        assert (plain.energies == traced.energies).all()

    def test_stats_ack_carries_worker_stats(self):
        model = random_qubo(10, rng=6)
        with WorkerServer() as server:
            backend = RemoteBackend(workers=[server.address])
            backend.run(model, make_solver("sa?num_sweeps=10"), 2, 1)
            stats = backend.check_workers()
            backend.close()
        worker_stats = stats[f"{server.address[0]}:{server.address[1]}"]
        assert worker_stats["schema"] == obs.STATS_SCHEMA
        assert worker_stats["served_total"] >= 1

    def test_stats_equal_registry_deltas(self):
        """Every ``stats()`` count is its registry family's move over the run."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()[:2]
        probe.close()
        model = random_qubo(10, rng=6)
        spec = "sa?num_sweeps=10"
        before = obs.metrics_snapshot()
        with WorkerServer() as server:
            # The dead address costs transport retries; the closed-service
            # submit settles as failed.
            backend = RemoteBackend(
                workers=[dead_address, server.address], retries=2, backoff_base=0.001
            )
            with SolveService(max_workers=2, backend=backend) as service:
                for seed in (0, 0, 1):
                    service.solve(model, solver=spec, num_reads=2, seed=seed)
            with pytest.raises(RuntimeError, match="closed"):
                service.solve(model, solver=spec, num_reads=2, seed=2)
            service_stats = service.stats()
            remote_stats = backend.stats()
            backend.close()
            worker_stats = server.stats()
        after = obs.metrics_snapshot()

        def moved(name):
            return after.get(name, 0) - before.get(name, 0)

        service_gate = '{component="service"}'
        worker_gate = '{component="worker"}'
        families = [
            (service_stats, "admitted_total", "qross_admission_admitted_total" + service_gate),
            (service_stats, "shed_total", "qross_admission_shed_total" + service_gate),
            (service_stats, "pending", "qross_admission_pending" + service_gate),
            (service_stats, "served_total", 'qross_service_tasks_total{outcome="served"}'),
            (service_stats, "failed_total", 'qross_service_tasks_total{outcome="failed"}'),
            (worker_stats, "served_total", "qross_worker_served_total"),
            (worker_stats, "errors_total", "qross_worker_solve_errors_total"),
            (worker_stats, "shed_total", "qross_admission_shed_total" + worker_gate),
            (worker_stats, "pending", "qross_admission_pending" + worker_gate),
        ] + [
            (remote_stats, f"{event}_total", f"qross_remote_{event}_total")
            for event in (
                "requests",
                "served",
                "fallback",
                "transport_retries",
                "overload_retries",
                "model_reships",
                "dials",
            )
        ]
        for stats, key, family in families:
            assert stats[key] == moved(family), (key, family)
        assert service_stats["failed_total"] == 1
        assert remote_stats["transport_retries_total"] >= 1
        assert worker_stats["served_total"] == remote_stats["served_total"] == 2
        worker_label = f"{server.address[0]}:{server.address[1]}"
        assert remote_stats["workers"][worker_label]["served_total"] == 2

        bare = {
            "served", "failed", "retried", "admitted", "completed", "shed",
            "inflight", "peak_inflight", "solve_errors", "requests", "dials",
            "fallback_in_process", "transport_retries", "overload_retries",
            "model_reships",
        }
        for stats in (service_stats, service_stats["backend"], remote_stats, worker_stats):
            assert stats["schema"] == obs.STATS_SCHEMA == "qross.stats/2"
            assert not bare & set(stats)
