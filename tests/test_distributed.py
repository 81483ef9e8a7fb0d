"""Tests of the distributed execution subsystem: wire format and backends.

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

import numpy as np
import pytest
from scipy import sparse

from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.model import QUBOModel, random_qubo
from repro.qubo.sampleset import SampleSet
from repro.service import (
    ProcessPoolBackend,
    SolveRequest,
    SolverRegistry,
    SolveService,
    SpecSerializationError,
    ThreadExecutionBackend,
    make_solver,
    resolve_backend,
)
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
def _engine_call(model) -> bytes:
    return wire.encode_engine_call(model, "sa", 1, 0)


def _ship_model(model) -> QUBOModel:
    """``model`` as a worker decodes it from an engine call."""
    _, header, buffers = wire.decode_frame(_engine_call(model), expected_kind="engine_call")
    return QUBOModel.from_wire(header["model"], buffers)


class TestWireFraming:
    def test_rejects_bad_magic(self):
        with pytest.raises(wire.WireFormatError, match="magic"):
            wire.decode_frame(b"NOPE" + b"\x00" * 16)

    def test_rejects_unknown_version(self, model):
        blob = bytearray(_engine_call(model))
        blob[4] = 99
        with pytest.raises(wire.WireFormatError, match="version"):
            wire.decode_frame(bytes(blob))

    def test_rejects_truncation(self, model):
        blob = _engine_call(model)
        with pytest.raises(wire.WireFormatError, match="truncated"):
            wire.decode_frame(blob[: len(blob) - 8])

    def test_rejects_trailing_garbage(self, model):
        with pytest.raises(wire.WireFormatError, match="trailing"):
            wire.decode_frame(_engine_call(model) + b"xx")

    def test_rejects_kind_mismatch(self, model):
        with pytest.raises(wire.WireFormatError, match="expected"):
            wire.decode_frame(_engine_call(model), expected_kind="sample_set")

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
        decoded = _ship_model(model)
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
        decoded = _ship_model(sparse_model)
        assert decoded.storage == "sparse"
        assert decoded.fingerprint() == sparse_model.fingerprint()
        assert decoded.offset == sparse_model.offset

    def test_csr_payload_is_compact(self, sparse_model):
        n = sparse_model.num_variables
        assert len(_engine_call(sparse_model)) < (n * n * 8) / 10

    def test_corrupted_buffer_fails_fingerprint_check(self, model):
        blob = bytearray(_engine_call(model))
        blob[-4] ^= 0xFF  # flip bits inside the coefficient buffer
        _, header, buffers = wire.decode_frame(bytes(blob), expected_kind="engine_call")
        with pytest.raises(ValueError, match="fingerprint"):
            QUBOModel.from_wire(header["model"], buffers)


class TestSampleSetAndResultRoundTrip:
    def test_sample_set_round_trip_is_byte_identical(self, model):
        solver = make_solver("sa?num_sweeps=15")
        samples = solver.sample(model, num_reads=6, rng=np.random.default_rng(3))
        _, header, buffers = wire.decode_frame(
            wire.encode_sample_set(samples), expected_kind="sample_set"
        )
        decoded = SampleSet.from_wire(header, buffers)
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
