"""Benchmark: thread vs process execution backend on a tuning comparison.

``run_comparison`` with a Python-loop-heavy solver (tabu search) is the
workload the process backend exists for: the per-step bookkeeping holds the
GIL, so fanning (instance, method) pairs across service *threads* cannot use
more than one core, while the process backend runs the same engine calls on
worker processes.  The benchmark runs the identical seeded comparison on both
backends at >= 4 workers and reports the wall-clock ratio.

A second section measures the cross-run :class:`ShardedResultCache`: a seeded
request sweep is run twice against one on-disk store — the re-run performs
zero solver calls and its wall time is pure cache-read cost.

The >= 2x speedup assertion is gated on ``os.cpu_count() >= 4``: with fewer
cores there is nothing for the worker processes to run on and the process
backend can only add dispatch overhead (the report records that too).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.experiments.runner import baseline_tuner_factories, run_comparison
from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.model import random_qubo
from repro.service import (
    ProcessPoolBackend,
    ShardedResultCache,
    SolveRequest,
    SolverCallCache,
    SolveService,
    make_solver,
)

WORKERS = 4
#: Python-loop-heavy solver: tabu steps are tiny numpy ops under the GIL.
SOLVER_SPEC = "tabu?num_steps=500"


def _problems(count: int = 4):
    return [
        TSPProblem(generate_instance(7, rng=seed, name=f"dist-tsp{seed}"))
        for seed in range(count)
    ]


def _warm_worker(_: int) -> int:
    """Run a small engine call inside a pool worker (first-call warm-up)."""
    from repro.qubo.model import random_qubo
    from repro.service.registry import make_solver

    solver = make_solver("tabu?num_steps=20")
    solver.sample(random_qubo(16, rng=0), num_reads=2, rng=np.random.default_rng(0))
    return os.getpid()


def _comparison_wall_time(backend) -> float:
    factories = {"Random": baseline_tuner_factories()["Random"]}
    started = time.perf_counter()
    run_comparison(
        _problems(),
        make_solver(SOLVER_SPEC),
        factories,
        num_trials=5,
        num_reads=8,
        rng=11,
        backend=backend,
        max_parallel=WORKERS,
    )
    return time.perf_counter() - started


def test_process_backend_speeds_up_comparison(record_timing):
    cores = os.cpu_count() or 1
    process_backend = ProcessPoolBackend(max_workers=WORKERS)
    try:
        # Warm every worker outside the timed region with the benchmark's own
        # solver, so the timing compares steady-state execution rather than
        # one-off spawn/import/first-call costs (pools are shared and long-
        # lived in real use).
        pool = process_backend._executor()
        list(pool.map(_warm_worker, range(2 * WORKERS)))
        process_backend.run(random_qubo(16, rng=0), make_solver(SOLVER_SPEC), 1, 0)
        thread_s = _comparison_wall_time("thread")
        process_s = _comparison_wall_time(process_backend)
    finally:
        process_backend.close()
    speedup = thread_s / process_s

    lines = [
        f"run_comparison wall clock, {WORKERS} workers, solver {SOLVER_SPEC!r}",
        f"  cpu cores             : {cores}",
        f"  thread backend        : {thread_s:.2f} s",
        f"  process backend       : {process_s:.2f} s",
        f"  speedup (thread/proc) : {speedup:.2f}x",
    ]
    if cores < 4:
        lines.append(
            f"  note: only {cores} core(s) — speedup not asserted (needs >= 4); "
            f"the process backend can only add dispatch overhead here"
        )
    record_timing("bench_distributed", "\n".join(lines))

    if cores >= 4:
        assert speedup >= 2.0, (
            f"process backend speedup {speedup:.2f}x < 2x at {WORKERS} workers "
            f"on {cores} cores"
        )


def test_sharded_cache_rerun_is_free(record_timing, tmp_path):
    model = random_qubo(48, rng=3)
    requests = [
        SolveRequest(solver=SOLVER_SPEC, model=model, num_reads=4, seed=seed)
        for seed in range(8)
    ]

    def sweep() -> "tuple[float, list]":
        cache = SolverCallCache(persistent=ShardedResultCache(tmp_path / "store"))
        service = SolveService(max_workers=2, cache=cache, backend="thread")
        try:
            started = time.perf_counter()
            results = service.map_requests(requests)
            elapsed = time.perf_counter() - started
            return elapsed, results
        finally:
            service.close()

    cold_s, cold = sweep()
    warm_s, warm = sweep()  # fresh memory cache, same disk store
    assert all(r.from_cache for r in warm)
    for a, b in zip(cold, warm):
        assert np.array_equal(a.samples.energies, b.samples.energies)

    record_timing(
        "bench_distributed_cache",
        "\n".join(
            [
                f"seeded sweep of {len(requests)} requests, solver {SOLVER_SPEC!r}",
                f"  cold run (engine)     : {cold_s * 1e3:.1f} ms",
                f"  re-run (disk cache)   : {warm_s * 1e3:.1f} ms",
                f"  engine calls on re-run: 0 (all served from ShardedResultCache)",
            ]
        ),
    )
    assert warm_s < cold_s
