"""Tests of the distributed execution subsystem: wire format, backends, caches.

Most process-backend tests share one module-scoped local fleet (spawning
workers per test would dominate the suite's runtime); everything they assert
is about byte-identity with the thread path, so fleet reuse cannot mask
failures.  The lifecycle tests (respawn, resource hygiene, a killed parent)
own their fleets.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from scipy import sparse

from repro import obs
from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.model import QUBOModel, random_qubo
from repro.qubo.sampleset import SampleSet
from repro.service import (
    ProcessPoolBackend,
    ShardedResultCache,
    SolveRequest,
    SolverCallCache,
    SolverRegistry,
    SolveService,
    SpecSerializationError,
    ThreadExecutionBackend,
    make_solver,
    resolve_backend,
)
from repro.service.cache import CachedEvaluation
from repro.service.distributed import wire
from repro.solvers.base import QUBOSolver
from repro.solvers.simulated_annealing import (
    SimulatedAnnealingConfig,
    SimulatedAnnealingSolver,
)


@pytest.fixture
def model() -> QUBOModel:
    return random_qubo(14, rng=5)


@pytest.fixture
def sparse_model() -> QUBOModel:
    """A model inside the CSR regime (n >= 512, density < 0.10)."""
    rng = np.random.default_rng(9)
    n, nnz = 600, 1800
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.normal(size=nnz)
    Q = sparse.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    m = QUBOModel(Q, offset=0.75, name="wire-sparse")
    assert m.is_sparse
    return m


@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessPoolBackend(max_workers=2)
    yield backend
    backend.close()


def process_exited(pid: int) -> bool:
    """Whether ``pid`` has exited (gone, or a zombie awaiting its reaper)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def wait_until_exited(pid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not process_exited(pid):
        assert time.monotonic() < deadline, f"process {pid} still running"
        time.sleep(0.01)


class CountingSolver(QUBOSolver):
    """SA wrapper counting engine executions (for zero-call cache assertions)."""

    name = "counting-sa"

    def __init__(self, num_sweeps: int = 10) -> None:
        self.config = SimulatedAnnealingConfig(num_sweeps=num_sweeps)
        self._inner = SimulatedAnnealingSolver(self.config)
        self.calls = 0

    def _sample(self, model, num_reads, rng):
        self.calls += 1
        return self._inner._sample(model, num_reads, rng)


# ------------------------------------------------------------------ wire format
class TestWireFraming:
    def test_rejects_bad_magic(self):
        with pytest.raises(wire.WireFormatError, match="magic"):
            wire.decode_frame(b"NOPE" + b"\x00" * 16)

    def test_rejects_unknown_version(self, model):
        blob = bytearray(wire.encode_model(model))
        blob[4] = 99
        with pytest.raises(wire.WireFormatError, match="version"):
            wire.decode_frame(bytes(blob))

    def test_rejects_truncation(self, model):
        blob = wire.encode_model(model)
        with pytest.raises(wire.WireFormatError, match="truncated"):
            wire.decode_frame(blob[: len(blob) - 8])

    def test_rejects_trailing_garbage(self, model):
        with pytest.raises(wire.WireFormatError, match="trailing"):
            wire.decode_frame(wire.encode_model(model) + b"xx")

    def test_rejects_kind_mismatch(self, model):
        with pytest.raises(wire.WireFormatError, match="expected"):
            wire.decode_sample_set(wire.encode_model(model))

    def test_rejects_negative_shape_axes(self):
        # A negative axis would rewind the buffer offset and alias buffers
        # over each other; build the hostile manifest by hand.
        import json

        header = json.dumps(
            {
                "kind": "raw",
                "buffers": [
                    {"dtype": "<f8", "shape": [2]},
                    {"dtype": "<f8", "shape": [-1]},
                    {"dtype": "<f8", "shape": [2]},
                ],
            }
        ).encode("utf-8")
        blob = (
            wire._PREFIX.pack(wire.MAGIC, wire.FORMAT_VERSION, len(header))
            + header
            + b"\x00" * 24
        )
        with pytest.raises(wire.WireFormatError, match="shape"):
            wire.decode_frame(blob)


class TestModelRoundTrip:
    def test_dense_round_trip_is_exact(self, model):
        decoded = wire.decode_model(wire.encode_model(model))
        assert decoded.storage == "dense"
        assert decoded.fingerprint() == model.fingerprint()
        assert decoded.offset == model.offset
        assert decoded.name == model.name
        assert np.array_equal(decoded.dense_Q(), model.dense_Q())

    def test_csr_round_trip_preserves_fingerprint_without_densifying(
        self, sparse_model, monkeypatch
    ):
        # Any densification (encode or decode side) funnels through
        # QUBOModel._dense; poisoning it proves the CSR regime stays CSR.
        monkeypatch.setattr(
            QUBOModel,
            "_dense",
            lambda self: (_ for _ in ()).throw(AssertionError("densified!")),
        )
        decoded = wire.decode_model(wire.encode_model(sparse_model))
        assert decoded.storage == "sparse"
        assert decoded.fingerprint() == sparse_model.fingerprint()
        assert decoded.offset == sparse_model.offset

    def test_csr_payload_is_compact(self, sparse_model):
        n = sparse_model.num_variables
        assert len(wire.encode_model(sparse_model)) < (n * n * 8) / 10

    def test_corrupted_buffer_fails_fingerprint_check(self, model):
        blob = bytearray(wire.encode_model(model))
        blob[-4] ^= 0xFF  # flip bits inside the coefficient buffer
        with pytest.raises(ValueError, match="fingerprint"):
            wire.decode_model(bytes(blob))


class TestSampleSetAndResultRoundTrip:
    def test_sample_set_round_trip_is_byte_identical(self, model):
        solver = make_solver("sa?num_sweeps=15")
        samples = solver.sample(model, num_reads=6, rng=np.random.default_rng(3))
        decoded = wire.decode_sample_set(wire.encode_sample_set(samples))
        assert np.array_equal(decoded.assignments, samples.assignments)
        assert np.array_equal(decoded.energies, samples.energies)
        assert np.array_equal(decoded.num_occurrences, samples.num_occurrences)
        assert decoded.solver_name == samples.solver_name
        assert decoded.info["num_sweeps"] == samples.info["num_sweeps"]

    def test_engine_call_round_trip(self, sparse_model):
        blob = wire.encode_engine_call(sparse_model, "tabu?tenure=4", 8, 123)
        _, header, buffers = wire.decode_frame(blob, expected_kind="engine_call")
        assert (header["solver_spec"], header["num_reads"], header["seed"]) == (
            "tabu?tenure=4", 8, 123
        )
        decoded_model = QUBOModel.from_wire(header["model"], buffers)
        assert decoded_model.fingerprint() == sparse_model.fingerprint()


# ----------------------------------------------------------------- spec inverse
class TestSpecFor:
    def test_round_trips_nested_configs(self):
        from repro.experiments.datasets import solver_spec
        from repro.experiments.profiles import SMOKE

        configs = {
            "da": SMOKE.digital_annealer_config(),
            "pt": SMOKE.parallel_tempering_config(),
            "qbsolv": SMOKE.qbsolv_config(),
            "sa": SMOKE.simulated_annealing_config(),
            "tabu": SMOKE.tabu_search_config(),
            "qa": SMOKE.quantum_annealer_config(),
            "random": None,
            "portfolio": SMOKE.portfolio_config(),
        }
        for backend, config in configs.items():
            spec = solver_spec(SMOKE, backend)
            direct = SolverRegistry.default().create(backend, config=config)
            assert make_solver(spec).config_fingerprint() == direct.config_fingerprint(), spec

    def test_dotted_options_construct_nested_dataclasses(self):
        solver = make_solver("qbsolv?subproblem_size=20&subsolver_config.num_steps=70")
        assert solver.config.subproblem_size == 20
        assert solver.config.subsolver_config.num_steps == 70
        # Unspecified nested fields keep the nested class defaults.
        assert solver.config.subsolver_config.restart_after == 100

    def test_unknown_dotted_option_rejected(self):
        with pytest.raises(ValueError, match="nested"):
            make_solver("qbsolv?subsolver_config.bogus=1")

    def test_nested_config_equal_to_class_defaults_round_trips(self):
        # QbsolvConfig's factory customises the tabu sub-config, so a plain
        # TabuSearchConfig() differs from the *field* default while matching
        # the nested class defaults — the spec must still force construction
        # away from the factory (regression: this used to emit no options).
        from repro.solvers.qbsolv import QbsolvConfig, QbsolvSolver
        from repro.solvers.tabu import TabuSearchConfig

        solver = QbsolvSolver(QbsolvConfig(subsolver_config=TabuSearchConfig()))
        spec = SolverRegistry.default().spec_for(solver)
        assert make_solver(spec).config_fingerprint() == solver.config_fingerprint()

    def test_unregistered_solver_raises(self):
        with pytest.raises(SpecSerializationError, match="no registered backend"):
            SolverRegistry.default().spec_for(CountingSolver())

    def test_string_spec_passes_through_validated(self):
        assert SolverRegistry.spec_for("tabu?tenure=8") == "tabu?tenure=8"
        with pytest.raises(ValueError):
            SolverRegistry.spec_for("not-a-backend")


# ------------------------------------------------------------ execution backends
class TestBackendResolution:
    def test_env_default_is_thread(self, monkeypatch):
        monkeypatch.delenv("QROSS_EXECUTION_BACKEND", raising=False)
        assert isinstance(resolve_backend(None), ThreadExecutionBackend)

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("QROSS_EXECUTION_BACKEND", "thread")
        assert resolve_backend(None).name == "thread"

    def test_spec_strings_resolve_to_shared_instances(self):
        assert resolve_backend("thread") is resolve_backend("thread")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("gpu")

    def test_instance_passes_through(self):
        backend = ThreadExecutionBackend()
        assert resolve_backend(backend) is backend

    def test_closed_shared_backend_is_replaced(self):
        # The fleet is lazy, so closing an unused backend costs nothing.
        spec = "process?max_workers=1"
        first = resolve_backend(spec)
        first.close()
        second = resolve_backend(spec)
        assert second is not first and not second.closed


class TestProcessBackendParity:
    @pytest.mark.parametrize("spec", ["sa?num_sweeps=25", "tabu?num_steps=60"])
    def test_seeded_samples_byte_identical_to_thread(self, model, process_backend, spec):
        solver = make_solver(spec)
        thread = ThreadExecutionBackend().run(model, solver, 4, seed=42)
        process = process_backend.run(model, solver, 4, seed=42)
        assert np.array_equal(thread.assignments, process.assignments)
        assert np.array_equal(thread.energies, process.energies)
        assert np.array_equal(thread.num_occurrences, process.num_occurrences)

    def test_sparse_model_crosses_without_densifying(self, sparse_model, process_backend):
        solver = make_solver("tabu?num_steps=15")
        thread = ThreadExecutionBackend().run(sparse_model, solver, 2, seed=7)
        process = process_backend.run(sparse_model, solver, 2, seed=7)
        assert np.array_equal(thread.assignments, process.assignments)
        assert np.array_equal(thread.energies, process.energies)

    def test_seeded_service_request_identical_through_both_backends(
        self, model, process_backend
    ):
        request = SolveRequest(solver="tabu?num_steps=50", model=model, num_reads=3, seed=11)
        with SolveService(max_workers=2, backend="thread") as thread_service:
            expected = thread_service.submit(request).result()
        service = SolveService(max_workers=2, backend=process_backend)
        got = service.submit(request).result()
        service.close()
        assert np.array_equal(expected.samples.assignments, got.samples.assignments)
        assert np.array_equal(expected.samples.energies, got.samples.energies)
        # The shared module backend survives the service that used it.
        assert process_backend.run(model, make_solver("sa?num_sweeps=5"), 1, 0).num_samples == 1

    def test_unserialisable_solver_falls_back_in_process(self, model, process_backend):
        solver = CountingSolver(num_sweeps=8)
        samples = process_backend.run(model, solver, 2, seed=3)
        assert solver.calls == 1  # ran in this process, not a worker
        expected = ThreadExecutionBackend().run(model, CountingSolver(num_sweeps=8), 2, seed=3)
        assert np.array_equal(samples.assignments, expected.assignments)

    def test_repeat_calls_use_model_reference(self, model, process_backend):
        solver = make_solver("sa?num_sweeps=12")
        reships = process_backend.stats()["model_reships_total"]
        # Sequential calls rotate over the idle fleet: each worker gets the
        # model in full once, then by reference, and no reference misses.
        results = [
            process_backend.run(model, solver, 2, seed=1)
            for _ in range(2 * process_backend.max_workers)
        ]
        for worker in process_backend._workers:
            assert model.fingerprint() in worker.shipped
        assert process_backend.stats()["model_reships_total"] == reships
        for got in results[1:]:
            assert np.array_equal(results[0].assignments, got.assignments)
            assert np.array_equal(results[0].energies, got.energies)

    def test_model_miss_retries_with_full_payload(self, model, process_backend):
        # Pretend the model was already shipped everywhere: the call then
        # goes by reference, the worker misses, and the re-ship must recover.
        process_backend.run(model, make_solver("sa?num_sweeps=5"), 1, seed=0)  # spawned
        fresh = random_qubo(13, rng=77)
        for worker in process_backend._workers:
            worker.shipped[fresh.fingerprint()] = True
        reships = process_backend.stats()["model_reships_total"]
        solver = make_solver("sa?num_sweeps=12")
        got = process_backend.run(fresh, solver, 2, seed=4)
        expected = ThreadExecutionBackend().run(fresh, solver, 2, seed=4)
        assert np.array_equal(got.assignments, expected.assignments)
        assert process_backend.stats()["model_reships_total"] == reships + 1

    def test_runtime_registered_backend_falls_back_in_process(
        self, model, process_backend, monkeypatch
    ):
        import repro.solvers.simulated_annealing as sa_mod
        from repro.service.registry import SolverRegistry, _build_default_registry

        class RuntimeRegisteredSolver(sa_mod.SimulatedAnnealingSolver):
            name = "zz-runtime-sa"
            executed_in: list = []

            def _sample(self, model, num_reads, rng):
                type(self).executed_in.append(os.getpid())
                return super()._sample(model, num_reads, rng)

        # A copy of the default registry gains the runtime registration; the
        # monkeypatch keeps the real default registry pristine for other tests.
        registry = _build_default_registry()
        registry.register(
            "zz-runtime-sa",
            RuntimeRegisteredSolver,
            sa_mod.SimulatedAnnealingConfig,
            description="test-only runtime registration",
        )
        monkeypatch.setattr(SolverRegistry, "_default", registry)

        solver = RuntimeRegisteredSolver(sa_mod.SimulatedAnnealingConfig(num_sweeps=6))
        samples = process_backend.run(model, solver, 2, seed=9)
        # A spawned worker cannot resolve the runtime registration, so the
        # call must have run in this very process.
        assert RuntimeRegisteredSolver.executed_in == [os.getpid()]
        assert samples.num_samples == 2

    def test_unseeded_requests_deterministic_given_service_seed(
        self, model, process_backend
    ):
        def run_once():
            service = SolveService(max_workers=2, backend=process_backend, seed=123)
            try:
                results = service.map_requests(
                    [
                        SolveRequest(solver="sa?num_sweeps=10", model=model, num_reads=2)
                        for _ in range(3)
                    ]
                )
                return [r.samples.energies for r in results]
            finally:
                service.close()

        first, second = run_once(), run_once()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_broken_pool_recovers_on_next_call(self, model):
        backend = ProcessPoolBackend(max_workers=1)
        try:
            solver = make_solver("sa?num_sweeps=5")
            backend.run(model, solver, 1, seed=0)
            (stats,) = backend.check_workers().values()
            os.kill(stats["pid"], signal.SIGKILL)
            wait_until_exited(stats["pid"])
            # The dead worker is restarted in its slot and the same call's
            # retry runs there, byte-identically.
            expected = ThreadExecutionBackend().run(model, solver, 1, seed=0)
            got = backend.run(model, solver, 1, seed=0)
            assert np.array_equal(got.assignments, expected.assignments)
            assert backend.stats()["transport_retries_total"] == 1
            (respawned,) = backend.check_workers().values()
            assert respawned["pid"] != stats["pid"]
        finally:
            backend.close()

    def test_concurrent_calls_on_one_worker_queue_without_shedding(self, model):
        spec = "process?max_workers=1"
        requests = [
            SolveRequest(solver="sa?num_sweeps=10", model=model, num_reads=2, seed=seed)
            for seed in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the picks and releases harder
        try:
            with SolveService(max_workers=8, backend=spec) as service:
                futures = [service.submit(request) for request in requests]
                results = [future.result(timeout=120) for future in futures]
                backend = service.backend
        finally:
            sys.setswitchinterval(interval)
        stats = backend.stats()
        # Every pick was released: a lost update would leave a count behind.
        in_flight = [worker.in_flight for worker in backend._workers]
        backend.close()  # a shared backend: the next resolver respawns it
        assert in_flight == [0]
        assert stats["overload_retries_total"] == 0
        assert stats["served_total"] == len(requests)
        thread = ThreadExecutionBackend()
        for request, result in zip(requests, results):
            expected = thread.run(model, make_solver(request.solver), 2, request.seed)
            assert np.array_equal(result.samples.assignments, expected.assignments)

    def test_evaluate_on_process_backend_is_deterministic(self, process_backend):
        problem = TSPProblem(generate_instance(5, rng=4, name="proc-tsp"))

        def evaluate_once():
            service = SolveService(max_workers=2, backend=process_backend)
            try:
                return service.evaluate(
                    problem, "sa?num_sweeps=10", parameter=8.0, num_reads=4,
                    rng=np.random.default_rng(5),
                )
            finally:
                service.close()

        assert evaluate_once() == evaluate_once()


def _script_env() -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(
        os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    )


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc")
class TestLocalFleetLifecycle:
    def test_kill_respawn_close_leaves_nothing_behind(self, model):
        from multiprocessing import resource_tracker

        solver = make_solver("sa?num_sweeps=10")
        thread = ThreadExecutionBackend()
        # Reference results first: under QROSS_TRACE this also opens the
        # tracer's sink, so the baseline below holds every lazy singleton.
        expected = {seed: thread.run(model, solver, 3, seed) for seed in range(6)}
        # The resource tracker is started once per interpreter by the first
        # spawn and outlives every fleet; its pipe belongs to the baseline.
        resource_tracker.ensure_running()
        children = set(multiprocessing.active_children())
        threads = set(threading.enumerate())
        fds = set(os.listdir("/proc/self/fd"))

        backend = ProcessPoolBackend(max_workers=2)
        try:
            for seed in range(4):
                got = backend.run(model, solver, 3, seed)
                assert np.array_equal(got.assignments, expected[seed].assignments)
            victim = next(iter(backend.check_workers().values()))["pid"]
            os.kill(victim, signal.SIGKILL)
            wait_until_exited(victim)
            # Sequential calls rotate over the idle fleet, so one of these
            # meets the dead worker and retries on its replacement.
            for seed in (4, 5):
                got = backend.run(model, solver, 3, seed)
                assert np.array_equal(got.assignments, expected[seed].assignments)
                assert np.array_equal(got.energies, expected[seed].energies)
            fleet = backend.check_workers()
            pids = [stats["pid"] for stats in fleet.values() if stats is not None]
            assert len(pids) == backend.max_workers
            assert victim not in pids
            assert not any(process_exited(pid) for pid in pids)
        finally:
            backend.close()
        assert set(multiprocessing.active_children()) <= children
        assert set(threading.enumerate()) <= threads
        assert set(os.listdir("/proc/self/fd")) <= fds
        assert all(process_exited(pid) for pid in pids)

    def test_failed_restart_is_retried_by_the_next_call(self, model):
        backend = ProcessPoolBackend(max_workers=1)
        solver = make_solver("sa?num_sweeps=5")
        try:
            backend.run(model, solver, 1, seed=0)
            (stats,) = backend.check_workers().values()

            def fail_once(slots):
                del backend._spawn  # the next restart uses the real method
                raise RuntimeError("simulated startup failure")

            backend._spawn = fail_once
            os.kill(stats["pid"], signal.SIGKILL)
            wait_until_exited(stats["pid"])
            with pytest.raises(RuntimeError, match="simulated"):
                backend.run(model, solver, 1, seed=0)
            got = backend.run(model, solver, 1, seed=0)
            expected = ThreadExecutionBackend().run(model, solver, 1, seed=0)
            assert np.array_equal(got.assignments, expected.assignments)
        finally:
            backend.close()

    def test_killed_parent_leaves_no_worker_behind(self):
        script = (
            "import json, sys\n"
            "from repro.qubo.model import random_qubo\n"
            "from repro.service import ProcessPoolBackend, make_solver\n"
            "backend = ProcessPoolBackend(max_workers=2)\n"
            "backend.run(random_qubo(8, rng=0), make_solver('sa?num_sweeps=5'), 1, 0)\n"
            "print(json.dumps([s['pid'] for s in backend.check_workers().values()]), flush=True)\n"
            "sys.stdin.read()\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=_script_env(),
            text=True,
        )
        pids = []
        try:
            pids = json.loads(proc.stdout.readline())
            assert len(pids) == 2
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 10.0
            while not all(process_exited(pid) for pid in pids):
                assert time.monotonic() < deadline, "a worker outlived its killed parent"
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdin.close()
            proc.stdout.close()
            for pid in pids:
                if not process_exited(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_unguarded_script_gets_the_main_guard_hint(self, tmp_path):
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from repro.qubo.model import random_qubo\n"
            "from repro.service import ProcessPoolBackend, make_solver\n"
            "backend = ProcessPoolBackend(max_workers=1)\n"
            "backend.run(random_qubo(8, rng=0), make_solver('sa?num_sweeps=5'), 1, 0)\n"
        )
        # The spawned worker re-runs the script, which tries to spawn during
        # its own bootstrap and dies; the parent reads EOF, not a hang.
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=_script_env(),
            timeout=120,
        )
        assert result.returncode != 0
        assert "RuntimeError: a local worker process died at startup" in result.stderr


# ------------------------------------------------------------------ disk caching
class TestShardedResultCache:
    def test_samples_round_trip(self, tmp_path, model):
        store = ShardedResultCache(tmp_path / "cache")
        solver = make_solver("sa?num_sweeps=10")
        samples = solver.sample(model, num_reads=3, rng=np.random.default_rng(1))
        assert store.lookup_samples("k1") is None
        store.store_samples("k1", samples)
        got = store.lookup_samples("k1")
        assert np.array_equal(got.assignments, samples.assignments)
        assert np.array_equal(got.energies, samples.energies)
        assert store.entry_counts() == {"samples": 1, "evaluations": 0}

    def test_evaluation_round_trip(self, tmp_path):
        store = ShardedResultCache(tmp_path / "cache")
        entry = CachedEvaluation(0.25, -1.5, 0.75, None)
        store.store_evaluation("ek", entry)
        assert store.lookup_evaluation("ek") == entry
        assert store.lookup_evaluation("other") is None

    def test_corrupt_entry_reads_as_miss_and_is_removed(self, tmp_path, model):
        store = ShardedResultCache(tmp_path / "cache")
        solver = make_solver("sa?num_sweeps=10")
        store.store_samples("k", solver.sample(model, 2, rng=np.random.default_rng(0)))
        path = store._entry_path("k", ".samples")
        path.write_bytes(path.read_bytes()[:10])
        assert store.lookup_samples("k") is None
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["samples", "evaluation"])
    def test_corrupt_lookup_counts_one_miss(self, tmp_path, model, kind):
        store = ShardedResultCache(tmp_path / "cache")
        if kind == "samples":
            solver = make_solver("sa?num_sweeps=10")
            store.store_samples("k", solver.sample(model, 2, rng=np.random.default_rng(0)))
            path, lookup = store._entry_path("k", ".samples"), store.lookup_samples
        else:
            store.store_evaluation("k", CachedEvaluation(1.0, 0.0, 0.0, None))
            path, lookup = store._entry_path("k", ".eval.json"), store.lookup_evaluation
        path.write_bytes(path.read_bytes()[:10])
        before = obs.metrics_snapshot()
        assert lookup("k") is None
        after = obs.metrics_snapshot()

        def moved(name):
            return after.get(name, 0) - before.get(name, 0)

        assert (store.hits, store.misses) == (0, 1)
        assert moved('qross_cache_lookups_total{cache="sharded",result="hit"}') == 0
        assert moved('qross_cache_lookups_total{cache="sharded",result="miss"}') == 1
        assert moved('qross_cache_corrupt_removed_total{cache="sharded"}') == 1

    def test_writes_leave_no_temp_files(self, tmp_path):
        store = ShardedResultCache(tmp_path / "cache")
        store.store_evaluation("k", CachedEvaluation(1.0, 0.0, 0.0, 2.0))
        leftovers = [p for p in (tmp_path / "cache").rglob(".tmp-*")]
        assert leftovers == []

    def test_versioned_layout(self, tmp_path):
        store = ShardedResultCache(tmp_path / "cache")
        store.store_evaluation("k", CachedEvaluation(1.0, 0.0, 0.0, None))
        assert (tmp_path / "cache" / "v1").is_dir()


class TestShardedCachePrune:
    """GC tooling for the on-disk store: keep-newest pruning, stale temp
    cleanup, and safety under concurrent readers."""

    @staticmethod
    def _fill(store: ShardedResultCache, keys, base_mtime: float = 1_000_000_000.0):
        """Store one evaluation per key with strictly increasing mtimes."""
        for index, key in enumerate(keys):
            store.store_evaluation(key, CachedEvaluation(0.5, float(index), 0.0, None))
            path = store._entry_path(key, ".eval.json")
            os.utime(path, (base_mtime + index, base_mtime + index))

    def test_prune_keeps_the_newest_entries(self, tmp_path):
        store = ShardedResultCache(tmp_path / "cache")
        keys = [f"k{i}" for i in range(6)]
        self._fill(store, keys)
        stats = store.prune(max_entries=2)
        assert (stats["kept"], stats["removed"], stats["removed_tmp"]) == (2, 4, 0)
        assert stats["kept_bytes"] > 0 and stats["removed_expired"] == 0
        assert store.entry_counts() == {"samples": 0, "evaluations": 2}
        # The two newest survive; everything older reads as a miss.
        assert store.lookup_evaluation("k5") is not None
        assert store.lookup_evaluation("k4") is not None
        assert store.lookup_evaluation("k0") is None

    def test_prune_ranks_samples_and_evaluations_together(self, tmp_path, model):
        store = ShardedResultCache(tmp_path / "cache")
        solver = make_solver("sa?num_sweeps=5")
        store.store_samples("s", solver.sample(model, 2, rng=np.random.default_rng(0)))
        os.utime(store._entry_path("s", ".samples"), (1_000_000_005, 1_000_000_005))
        self._fill(store, ["e0", "e1"])  # older than the sample entry
        assert store.prune(max_entries=1)["removed"] == 2
        assert store.entry_counts() == {"samples": 1, "evaluations": 0}

    def test_prune_to_zero_clears_the_store(self, tmp_path):
        store = ShardedResultCache(tmp_path / "cache")
        self._fill(store, ["a", "b"])
        assert store.prune(max_entries=0)["kept"] == 0
        assert store.entry_counts() == {"samples": 0, "evaluations": 0}
        # A pruned key can be re-stored and read back immediately.
        store.store_evaluation("a", CachedEvaluation(1.0, 0.0, 0.0, None))
        assert store.lookup_evaluation("a") is not None

    def test_prune_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            ShardedResultCache(tmp_path / "cache").prune(max_entries=-1)

    def test_prune_requires_at_least_one_criterion(self, tmp_path):
        with pytest.raises(ValueError, match="at least one criterion"):
            ShardedResultCache(tmp_path / "cache").prune()

    def test_prune_byte_budget_keeps_a_newest_prefix(self, tmp_path):
        store = ShardedResultCache(tmp_path / "cache")
        keys = [f"k{i}" for i in range(6)]
        self._fill(store, keys)
        sizes = {
            key: store._entry_path(key, ".eval.json").stat().st_size for key in keys
        }
        # Budget for exactly the two newest entries, not a third.
        budget = sizes["k5"] + sizes["k4"]
        stats = store.prune(max_total_bytes=budget)
        assert stats["kept"] == 2
        assert stats["kept_bytes"] == budget
        assert stats["removed"] == 4
        assert store.lookup_evaluation("k5") is not None
        assert store.lookup_evaluation("k4") is not None
        assert store.lookup_evaluation("k3") is None

    def test_prune_byte_budget_cut_is_strict_recency(self, tmp_path, model):
        # A large new entry exhausts the byte budget; a small older entry that
        # *would* still fit must NOT be kept — the survivors are always a
        # newest-prefix, so concurrent pruners agree on the kept set.
        store = ShardedResultCache(tmp_path / "cache")
        solver = make_solver("sa?num_sweeps=5")
        store.store_samples("big", solver.sample(model, 2, rng=np.random.default_rng(0)))
        os.utime(store._entry_path("big", ".samples"), (1_000_000_009, 1_000_000_009))
        self._fill(store, ["small"])  # older and tiny
        big_size = store._entry_path("big", ".samples").stat().st_size
        stats = store.prune(max_total_bytes=big_size)
        assert stats["kept"] == 1 and stats["kept_bytes"] == big_size
        assert store.lookup_samples("big") is not None
        assert store.lookup_evaluation("small") is None

    def test_prune_age_ttl_expires_old_entries(self, tmp_path):
        store = ShardedResultCache(tmp_path / "cache")
        self._fill(store, ["ancient", "old"])  # mtimes ~2001
        store.store_evaluation("fresh", CachedEvaluation(1.0, 0.0, 0.0, None))
        stats = store.prune(max_age_s=3600.0)
        assert stats["removed_expired"] == 2
        assert stats["removed"] == 2
        assert stats["kept"] == 1
        assert store.lookup_evaluation("fresh") is not None
        assert store.lookup_evaluation("old") is None

    def test_prune_ttl_composes_with_entry_budget(self, tmp_path):
        store = ShardedResultCache(tmp_path / "cache")
        self._fill(store, ["stale0", "stale1"])  # expired by TTL
        for key in ("new0", "new1", "new2"):
            store.store_evaluation(key, CachedEvaluation(1.0, 0.0, 0.0, None))
        stats = store.prune(max_entries=2, max_age_s=3600.0)
        assert stats["removed_expired"] == 2
        assert stats["kept"] == 2
        assert stats["removed"] == 3  # 2 expired + 1 over the entry budget
        assert store.entry_counts() == {"samples": 0, "evaluations": 2}

    def test_prune_removes_only_stale_temp_files(self, tmp_path):
        store = ShardedResultCache(tmp_path / "cache")
        self._fill(store, ["a"])
        shard = store._entry_path("a", ".eval.json").parent
        stale = shard / ".x.eval.json.tmp-stale"
        fresh = shard / ".y.eval.json.tmp-fresh"
        stale.write_bytes(b"partial")
        os.utime(stale, (1_000_000_000, 1_000_000_000))
        fresh.write_bytes(b"in-flight")  # mtime = now: a live writer's file
        stats = store.prune(max_entries=10)
        assert stats["removed_tmp"] == 1
        assert not stale.exists() and fresh.exists()

    def test_prune_removes_corrupt_entries_past_the_budget(self, tmp_path):
        store = ShardedResultCache(tmp_path / "cache")
        self._fill(store, ["old", "mid", "new"])
        corrupt = store._entry_path("old", ".eval.json")
        corrupt.write_bytes(b"\x00garbage")
        os.utime(corrupt, (999_999_000, 999_999_000))
        stats = store.prune(max_entries=1)
        assert (stats["kept"], stats["removed"], stats["removed_tmp"]) == (1, 2, 0)
        assert not corrupt.exists()
        assert store.lookup_evaluation("new") is not None

    def test_prune_is_safe_under_concurrent_readers(self, tmp_path, model):
        import threading

        store = ShardedResultCache(tmp_path / "cache")
        solver = make_solver("sa?num_sweeps=5")
        samples = solver.sample(model, 2, rng=np.random.default_rng(1))
        keys = [f"key-{i}" for i in range(12)]
        for key in keys:
            store.store_samples(key, samples)

        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    for key in keys:
                        got = store.lookup_samples(key)
                        if got is not None:
                            # A served entry is always complete, never partial.
                            assert np.array_equal(got.assignments, samples.assignments)
            except BaseException as exc:  # noqa: BLE001 - repack for the main thread
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for budget in (8, 4, 0):
                store.prune(max_entries=budget)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert errors == []
        assert store.entry_counts() == {"samples": 0, "evaluations": 0}
        # Readers that lost the race recorded misses, nothing else.
        assert store.lookup_samples(keys[0]) is None


class TestSolverCallCacheTiering:
    def test_memory_miss_falls_back_to_disk_and_repopulates(self, tmp_path, model):
        store = ShardedResultCache(tmp_path / "cache")
        solver = make_solver("sa?num_sweeps=10")
        samples = solver.sample(model, 2, rng=np.random.default_rng(2))
        writer = SolverCallCache(persistent=store)
        writer.store_samples("key", samples)

        reader = SolverCallCache(persistent=store)  # cold memory, same disk
        got = reader.lookup_samples("key")
        assert got is not None and np.array_equal(got.assignments, samples.assignments)
        assert reader.hits == 1
        # Second lookup is served from memory (no disk read): still a hit.
        assert reader.lookup_samples("key") is not None
        assert reader.hits == 2

    def test_lru_eviction_recovers_from_disk(self, tmp_path, model):
        store = ShardedResultCache(tmp_path / "cache")
        cache = SolverCallCache(max_sample_entries=1, persistent=store)
        solver = make_solver("sa?num_sweeps=10")
        first = solver.sample(model, 2, rng=np.random.default_rng(0))
        second = solver.sample(model, 2, rng=np.random.default_rng(1))
        cache.store_samples("a", first)
        cache.store_samples("b", second)  # evicts "a" from memory
        assert cache.num_sample_entries == 1
        got = cache.lookup_samples("a")  # disk saves it
        assert got is not None and np.array_equal(got.assignments, first.assignments)

    def test_evaluations_not_persisted_by_default(self, tmp_path):
        store = ShardedResultCache(tmp_path / "cache")
        cache = SolverCallCache(persistent=store)
        cache.store("ek", CachedEvaluation(0.5, 1.0, 2.0, None))
        assert store.entry_counts()["evaluations"] == 0
        assert SolverCallCache(persistent=store).lookup("ek") is None

    def test_evaluation_persistence_is_opt_in(self, tmp_path):
        store = ShardedResultCache(tmp_path / "cache")
        entry = CachedEvaluation(0.5, 1.0, 2.0, None)
        SolverCallCache(persistent=store, persist_evaluations=True).store("ek", entry)
        reader = SolverCallCache(persistent=store, persist_evaluations=True)
        assert reader.lookup("ek") == entry
        with pytest.raises(ValueError, match="requires persistent"):
            SolverCallCache(persist_evaluations=True)

    def test_save_is_atomic_and_loadable(self, tmp_path):
        cache = SolverCallCache()
        cache.store("k", CachedEvaluation(0.5, 1.0, 2.0, 3.0))
        target = tmp_path / "out" / "cache.json"
        cache.save(target)
        assert SolverCallCache.load(target).lookup("k") is not None
        assert [p for p in target.parent.iterdir() if p.name != "cache.json"] == []

    def test_second_seeded_sweep_runs_zero_solver_calls(self, tmp_path, model):
        """Acceptance: a re-run of a seeded sweep is served entirely from disk."""

        def run_sweep():
            solver = CountingSolver(num_sweeps=12)
            cache = SolverCallCache(persistent=ShardedResultCache(tmp_path / "cache"))
            service = SolveService(max_workers=2, cache=cache, backend="thread")
            try:
                results = service.map_requests(
                    [
                        SolveRequest(solver=solver, model=model, num_reads=2, seed=seed)
                        for seed in range(5)
                    ]
                )
                return solver.calls, [r.samples.energies for r in results]
            finally:
                service.close()

        first_calls, first_energies = run_sweep()
        second_calls, second_energies = run_sweep()
        assert first_calls == 5
        assert second_calls == 0
        for a, b in zip(first_energies, second_energies):
            assert np.array_equal(a, b)


# ------------------------------------------------------------- runner integration
class TestRunnerBackendKnob:
    def _comparison(self, **kwargs):
        from repro.experiments.runner import baseline_tuner_factories, run_comparison

        problems = [
            TSPProblem(generate_instance(5, rng=seed, name=f"runner-tsp{seed}"))
            for seed in (0, 1)
        ]
        factories = {"Random": baseline_tuner_factories()["Random"]}
        return run_comparison(
            problems,
            make_solver("sa?num_sweeps=10"),
            factories,
            num_trials=3,
            num_reads=4,
            rng=7,
            **kwargs,
        )

    def test_parallel_fanout_matches_sequential(self):
        # Same backend on both sides (the sequential run would otherwise pick
        # up whatever QROSS_EXECUTION_BACKEND forces for the default service).
        with SolveService(backend="thread") as service:
            sequential = self._comparison(service=service)
        parallel = self._comparison(backend="thread", max_parallel=4)
        for a, b in zip(sequential.runs, parallel.runs):
            assert a.instance_name == b.instance_name and a.method == b.method
            assert np.array_equal(a.gaps, b.gaps)

    def test_service_and_backend_are_exclusive(self):
        from repro.service.service import default_service

        with pytest.raises(ValueError, match="not both"):
            self._comparison(service=default_service(), backend="thread")
