"""Cross-solver × cross-backend determinism matrix.

One parameterized sweep over *every* registry-listed solver backend, run on
the thread, process and remote (localhost two-worker TCP fleet) execution
backends with two seeds each, asserting the resulting :class:`SampleSet`s are
byte-identical per ``(spec, seed)``.  The spec list is built from
``SolverRegistry.names()`` at collection time, so a newly registered solver
(parallel tempering landed this way) is covered the moment
it registers — a backend that cannot keep the seeded thread/process
byte-parity contract fails here before anything else.  The service's
live-``rng`` entry points, ``SolveService.sample``, ``SolveService.evaluate``
and ``SolveService.evaluate_many``, are pinned the same way across the three
backends, and ``QUBOSolver.sample_many`` is pinned to a loop of ``sample``
for every solver, on dense and CSR models in both engine dtypes.

The process pool is module-scoped (spawn-starting a pool per test would
dominate the suite) — pool reuse cannot mask failures because every
assertion is a pure input/output comparison.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.problems.mvc.generator import generate_sparse_mvc_instance
from repro.problems.mvc.qubo import MVCProblem
from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.model import random_qubo
from repro.service import (
    CachedEvaluation,
    ProcessPoolBackend,
    SolveService,
    SolverCallCache,
    SolverRegistry,
    ThreadExecutionBackend,
    make_solver,
)
from repro.service.remote import RemoteBackend, WorkerServer
from repro.solvers.engine import DTYPE_ENV

#: Budget-shrinking options per known backend, so the matrix stays fast on a
#: 12-variable model.  Backends missing from this table (e.g. ones added by a
#: future PR) run their default configs — slower, but still covered.
LIGHT_OPTIONS = {
    "sa": "num_sweeps=8",
    "da": "num_steps=60",
    "pt": "num_sweeps=8&num_replicas=4&swap_interval=2",
    "tabu": "num_steps=40",
    "qbsolv": "max_rounds=2&subsolver_config.num_steps=30",
    "qa": "base_config.num_sweeps=8",
    "random": None,
    # Composite backend: members are URL-escaped nested specs
    # (sa?num_sweeps=8 and tabu?num_steps=40).  The portfolio fans its member
    # slices out through a private in-process service, so running *it* on the
    # process/remote axes exercises portfolio-inside-worker determinism.
    "portfolio": (
        "members=sa%3Fnum_sweeps%3D8,tabu%3Fnum_steps%3D40"
        "&strategy=ucb&sweep_budget=24&round_sweeps=8"
    ),
}

#: Extra non-default configurations whose determinism matters enough to pin
#: alongside the plain per-backend specs.
EXTRA_SPECS = [
    "sa?num_sweeps=8&block_size=1",  # exact sequential sweep
    "sa?num_sweeps=8&block_size=5",  # fixed blocks, neither adaptive nor sequential
    "pt?num_sweeps=8&num_replicas=4&swap_interval=2&block_size=1",  # PT's sequential sweep
    "da?num_steps=60&offset_increase_rate=0",  # DA without the dynamic offset
]


def matrix_specs() -> list:
    specs = []
    for name in SolverRegistry.default().names():
        options = LIGHT_OPTIONS.get(name)
        specs.append(f"{name}?{options}" if options else name)
    return specs + EXTRA_SPECS


@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessPoolBackend(max_workers=1)
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def remote_backend():
    """A two-worker localhost fleet behind one RemoteBackend client.

    Two workers (not one) so the round-robin dispatch is part of what the
    matrix exercises: byte-parity must hold no matter which fleet member
    serves a given call.
    """
    with WorkerServer() as w1, WorkerServer() as w2:
        backend = RemoteBackend(workers=[w1.address, w2.address], request_timeout=120.0)
        yield backend
        backend.close()


@pytest.fixture(scope="module")
def model():
    return random_qubo(12, rng=5)


@pytest.mark.parametrize("spec", matrix_specs())
@pytest.mark.parametrize("seed", [11, 20210614])
def test_seeded_solve_is_byte_identical_across_backends(
    spec, seed, model, process_backend
):
    solver = make_solver(spec)
    thread = ThreadExecutionBackend()

    first = thread.run(model, solver, 4, seed)
    again = thread.run(model, solver, 4, seed)
    assert np.array_equal(first.assignments, again.assignments), (
        f"{spec!r} is not deterministic under seed {seed} on the thread backend"
    )

    process = process_backend.run(model, solver, 4, seed)
    assert np.array_equal(first.assignments, process.assignments), (
        f"{spec!r} seed {seed}: process assignments differ from thread"
    )
    assert np.array_equal(first.energies, process.energies)
    assert np.array_equal(first.num_occurrences, process.num_occurrences)
    assert first.assignments.dtype == process.assignments.dtype


@pytest.mark.parametrize("spec", matrix_specs())
@pytest.mark.parametrize("seed", [11, 20210614])
def test_seeded_solve_is_byte_identical_on_remote_fleet(
    spec, seed, model, remote_backend
):
    """The remote axis of the matrix: a localhost two-worker TCP fleet."""
    solver = make_solver(spec)
    reference = ThreadExecutionBackend().run(model, solver, 4, seed)
    remote = remote_backend.run(model, solver, 4, seed)
    assert np.array_equal(reference.assignments, remote.assignments), (
        f"{spec!r} seed {seed}: remote assignments differ from thread"
    )
    assert np.array_equal(reference.energies, remote.energies)
    assert np.array_equal(reference.num_occurrences, remote.num_occurrences)
    assert reference.assignments.dtype == remote.assignments.dtype


# --------------------------------------------------------------------------
# Service axis.
#
# ``SolveService.sample`` and ``SolveService.evaluate`` take the caller's live
# ``rng`` but hand the engine call one seed drawn from it, so both return the
# same bytes on every execution backend and move the caller's stream by
# exactly one ``integers`` draw.
# --------------------------------------------------------------------------

SERVICE_SPECS = ["sa?num_sweeps=8", "da?num_steps=60"]


@pytest.fixture(scope="module")
def services(process_backend, remote_backend):
    """One service per execution backend (closing a service leaves its backend)."""
    services = {
        "thread": SolveService(max_workers=2, backend="thread"),
        "process": SolveService(max_workers=2, backend=process_backend),
        "remote": SolveService(max_workers=2, backend=remote_backend),
    }
    yield services
    for service in services.values():
        service.close()


@pytest.fixture(scope="module")
def tsp_problem():
    return TSPProblem(generate_instance(5, rng=0, name="matrix-tsp"))


def _child_seed(seed: int):
    """The seed a service call draws from ``default_rng(seed)``, and the
    caller stream's state after that one draw."""
    rng = np.random.default_rng(seed)
    child = int(rng.integers(0, 2**63 - 1))
    return child, rng.bit_generator.state


@pytest.mark.parametrize("spec", SERVICE_SPECS)
@pytest.mark.parametrize("seed", [11, 20210614])
def test_service_sample_is_byte_identical_across_backends(spec, seed, model, services):
    child, advanced = _child_seed(seed)
    expected = ThreadExecutionBackend().run(model, make_solver(spec), 4, child)
    for name, service in services.items():
        rng = np.random.default_rng(seed)
        samples = service.sample(model, spec, 4, rng=rng)
        assert rng.bit_generator.state == advanced, (
            f"{name}: sample() must advance the caller's rng by exactly one draw"
        )
        assert np.array_equal(samples.assignments, expected.assignments), (
            f"{spec!r} seed {seed}: {name} sample() assignments differ"
        )
        assert np.array_equal(samples.energies, expected.energies)
        assert np.array_equal(samples.num_occurrences, expected.num_occurrences)


@pytest.mark.parametrize("spec", SERVICE_SPECS)
@pytest.mark.parametrize("seed", [11, 20210614])
def test_service_evaluate_is_byte_identical_across_backends(
    spec, seed, tsp_problem, services
):
    parameter = float(tsp_problem.relaxation_scale())
    child, advanced = _child_seed(seed)
    model = tsp_problem.build_qubo(parameter)
    expected = CachedEvaluation.from_samples(
        tsp_problem, ThreadExecutionBackend().run(model, make_solver(spec), 6, child)
    )
    for name, service in services.items():
        rng = np.random.default_rng(seed)
        entry = service.evaluate(tsp_problem, spec, parameter, 6, rng=rng)
        assert rng.bit_generator.state == advanced, (
            f"{name}: evaluate() must advance the caller's rng by exactly one draw"
        )
        assert entry == expected, f"{spec!r} seed {seed}: {name} evaluate() differs"


def _next_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


@pytest.mark.parametrize("spec", SERVICE_SPECS)
def test_evaluate_many_is_a_loop_of_evaluate(spec, tsp_problem, services):
    """Same entries, same stream; a duplicate ``A`` draws its own seed
    without a shared cache, as a loop of throwaway caches does."""
    scale = float(tsp_problem.relaxation_scale())
    parameters = [0.5 * scale, scale, 0.5 * scale, 2.0 * scale]
    for name, service in services.items():
        loop_rng = np.random.default_rng(7)
        expected = [service.evaluate(tsp_problem, spec, A, 6, rng=loop_rng) for A in parameters]
        rng = np.random.default_rng(7)
        entries = service.evaluate_many(tsp_problem, spec, parameters, 6, rng=rng)
        assert entries == expected, f"{spec!r}: {name} evaluate_many() differs from evaluate()"
        assert _next_seed(rng) == _next_seed(loop_rng), f"{name}: streams diverged"


@pytest.mark.parametrize("spec", SERVICE_SPECS)
def test_evaluate_many_with_a_shared_cache(spec, tsp_problem, services):
    """A stored ``A`` is a hit that draws no seed, and a repeated ``A`` is
    served from its first occurrence."""
    scale = float(tsp_problem.relaxation_scale())
    stored, fresh = 2.0 * scale, [0.5 * scale, scale]
    parameters = [fresh[0], stored, fresh[1], fresh[0]]
    for name, service in services.items():
        loop_cache, cache = SolverCallCache(), SolverCallCache()
        for each in (loop_cache, cache):
            service.evaluate(tsp_problem, spec, stored, 6, rng=1, cache=each)
        loop_rng = np.random.default_rng(7)
        expected = [
            service.evaluate(tsp_problem, spec, A, 6, rng=loop_rng, cache=loop_cache)
            for A in parameters
        ]
        rng = np.random.default_rng(7)
        entries = service.evaluate_many(tsp_problem, spec, parameters, 6, rng=rng, cache=cache)
        assert entries == expected, f"{spec!r}: {name} evaluate_many() differs from evaluate()"
        assert entries[3] is entries[0]
        assert entries[1] == service.evaluate(tsp_problem, spec, stored, 6, rng=1)
        # Two misses, two seeds.
        reference = np.random.default_rng(7)
        reference.integers(0, 2**63 - 1, size=2)
        assert _next_seed(rng) == _next_seed(reference) == _next_seed(loop_rng)


def test_evaluate_many_of_nothing_draws_nothing(tsp_problem, services):
    for service in services.values():
        rng = np.random.default_rng(7)
        assert service.evaluate_many(tsp_problem, SERVICE_SPECS[0], [], 6, rng=rng) == []
        assert _next_seed(rng) == _next_seed(np.random.default_rng(7))


class TaggingTSPProblem(TSPProblem):
    """Tags each ``fitness`` answer with its thread's last ``build_qubo`` ``A``."""

    def __init__(self, instance) -> None:
        super().__init__(instance)
        self.answers = []
        self._relaxed = threading.local()

    def build_qubo(self, relaxation_parameter: float):
        model = super().build_qubo(relaxation_parameter)
        self._relaxed.parameter = float(relaxation_parameter)
        return model

    def fitness(self, assignment: np.ndarray) -> float:
        value = super().fitness(assignment)
        self.answers.append((getattr(self._relaxed, "parameter", None), value))
        return value


def test_evaluate_many_scores_each_a_after_relaxing_it(services):
    """Relax ``A``, then score its reads: on the scoring thread, every
    fitness answer follows the relaxation of its own ``A``."""
    problem = TaggingTSPProblem(generate_instance(5, rng=0, name="tagging-tsp"))
    scale = float(problem.relaxation_scale())
    parameters = [1.5 * scale, 2.0 * scale, 3.0 * scale]
    for name, service in services.items():
        problem.answers.clear()
        entries = service.evaluate_many(problem, "da?num_steps=150", parameters, 8, rng=3)
        for A, entry in zip(parameters, entries):
            assert entry.best_fitness is not None, f"{name}: no feasible read at A={A}"
            tagged = [value for parameter, value in problem.answers if parameter == A]
            assert entry.best_fitness in tagged, f"{name}: A={A} scored after another relaxation"


def test_matrix_covers_every_registered_backend():
    """The spec list tracks the registry — nobody can register a solver
    without it entering the matrix."""
    covered = {spec.partition("?")[0] for spec in matrix_specs()}
    assert covered == set(SolverRegistry.default().names())


# --------------------------------------------------------------------------
# Engine dtype axis.
#
# Engine-capable specs are discovered from the registry (any backend whose
# config exposes ``dtype``), so a newly registered engine solver enrolls here
# without test edits.  Contract tiers:
#
# * float64 — byte-identical to the spec with no dtype option at all (the
#   thread/process/remote matrix above then extends that guarantee across
#   execution backends).
# * float32 — deterministic under a fixed seed (run-twice byte-parity), valid
#   binary assignments, and best-energy agreement with float64 within a
#   tolerance: trajectories may diverge at acceptance boundaries, but on a
#   12-variable model every solver finds the same near-optimal basin.
# --------------------------------------------------------------------------


def engine_specs() -> list:
    registry = SolverRegistry.default()
    specs = []
    for name in registry.names():
        if "dtype" not in registry.backend(name).option_names():
            continue
        options = LIGHT_OPTIONS.get(name)
        specs.append(f"{name}?{options}" if options else name)
    return specs


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("spec", engine_specs())
def test_dtype_axis(spec, dtype, model, monkeypatch):
    # The plain spec must resolve to float64, whatever the environment says.
    monkeypatch.delenv(DTYPE_ENV, raising=False)
    sep = "&" if "?" in spec else "?"
    axis_spec = f"{spec}{sep}dtype={dtype}"
    solver = make_solver(axis_spec)
    seed = 11

    first = solver.sample(model, num_reads=4, rng=np.random.default_rng(seed))
    again = solver.sample(model, num_reads=4, rng=np.random.default_rng(seed))
    assert np.array_equal(first.assignments, again.assignments), (
        f"{axis_spec!r} is not deterministic under a fixed seed"
    )

    assert first.assignments.dtype == np.int8
    assert set(np.unique(first.assignments)) <= {0, 1}

    reference = make_solver(spec).sample(model, num_reads=4, rng=np.random.default_rng(seed))
    if dtype == "float64":
        # Naming the default dtype must change nothing, byte for byte.
        assert np.array_equal(first.assignments, reference.assignments), (
            f"{axis_spec!r} broke byte-identity with plain {spec!r}"
        )
        assert np.array_equal(first.energies, reference.energies)
    else:
        # Tolerance tier: energies are always re-scored against the exact
        # float64 model, so comparing bests needs no dtype-aware epsilon —
        # only the search trajectory may differ, and on this 12-variable
        # model all trajectories land within a loose absolute band.
        scale = max(1.0, abs(float(reference.energies.min())))
        assert float(first.energies.min()) <= float(reference.energies.min()) + 0.5 * scale, (
            f"{axis_spec!r} best energy {first.energies.min()} is far worse "
            f"than float64's {reference.energies.min()}"
        )


# --------------------------------------------------------------------------
# Grouped-call axis.
#
# ``QUBOSolver.sample_many`` returns, model by model, the bytes of one
# ``sample`` per model.  DA and qbsolv run all models in one kernel call; the
# other solvers loop ``sample``.  The models are three relaxations of one
# problem: a TSP (dense) and an MVC at n = 512 (CSR), in both engine dtypes.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def relaxations():
    problems = {
        "dense": TSPProblem(generate_instance(5, rng=0, name="grouped-tsp")),
        "sparse": MVCProblem(generate_sparse_mvc_instance(512, num_edges=1024, rng=0)),
    }
    out = {}
    for storage, problem in problems.items():
        scale = float(problem.relaxation_scale())
        out[storage] = [problem.build_qubo(m * scale) for m in (0.5, 1.0, 2.0)]
        assert {model.storage for model in out[storage]} == {storage}
    return out


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("num_reads", [1, 4])
@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize("spec", matrix_specs())
def test_sample_many_is_byte_identical_to_sample(
    spec, storage, num_reads, dtype, relaxations, monkeypatch
):
    monkeypatch.setenv(DTYPE_ENV, dtype)
    models = relaxations[storage]
    solver = make_solver(spec)
    lone_rngs = [np.random.default_rng(seed) for seed in (3, 4, 5)]
    group_rngs = [np.random.default_rng(seed) for seed in (3, 4, 5)]
    singles = [solver.sample(model, num_reads, rng) for model, rng in zip(models, lone_rngs)]
    grouped = solver.sample_many(models, num_reads, group_rngs)
    assert len(grouped) == len(models)
    # Each model's generator moves exactly as in its lone call, even where
    # the reads land on the same best states.
    for k, (lone, group) in enumerate(zip(lone_rngs, group_rngs)):
        assert lone.bit_generator.state == group.bit_generator.state, (
            f"{spec!r} {storage} {dtype} reads={num_reads}: model {k}'s stream moved differently"
        )
    for k, (single, many) in enumerate(zip(singles, grouped)):
        assert np.array_equal(single.assignments, many.assignments), (
            f"{spec!r} {storage} {dtype} reads={num_reads}: model {k} differs"
        )
        assert np.array_equal(single.energies, many.energies)
        assert np.array_equal(single.num_occurrences, many.num_occurrences)
        assert single.assignments.dtype == many.assignments.dtype


@pytest.mark.parametrize("spec", matrix_specs())
def test_sample_many_rejects_models_of_mixed_size(spec, model, relaxations):
    with pytest.raises(ValueError, match="one size"):
        make_solver(spec).sample_many([relaxations["dense"][0], model], 2, [1, 2])


def test_da_and_qbsolv_batch_models():
    names = SolverRegistry.default().names()
    batching = {name for name in names if make_solver(name).batches_models}
    assert batching == {"da", "qbsolv"}
