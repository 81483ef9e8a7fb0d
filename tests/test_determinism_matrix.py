"""Cross-solver × cross-backend determinism matrix.

One parameterized sweep over *every* registry-listed solver backend, run on
the thread, process and remote (localhost two-worker TCP fleet) execution
backends with two seeds each, asserting the resulting :class:`SampleSet`s are
byte-identical per ``(spec, seed)``.  The spec list is built from
``SolverRegistry.names()`` at collection time, so a newly registered solver
(parallel tempering and multi-flip DA landed this way) is covered the moment
it registers — a backend that cannot keep the seeded thread/process
byte-parity contract fails here before anything else.  The service's
live-``rng`` entry points, ``SolveService.sample`` and
``SolveService.evaluate``, are pinned the same way across the three backends.

The process pool is module-scoped (spawn-starting a pool per test would
dominate the suite) — pool reuse cannot mask failures because every
assertion is a pure input/output comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.model import random_qubo
from repro.service import (
    CachedEvaluation,
    ProcessPoolBackend,
    SolveService,
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
    "da?num_steps=60&max_parallel_flips=4",  # multi-flip DA variant
    "sa?num_sweeps=8&block_size=1",  # exact sequential sweep
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
