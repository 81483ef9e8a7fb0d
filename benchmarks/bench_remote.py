"""Benchmark: the remote TCP solve farm — throughput, latency, load-shed.

Two sections:

* **Fleet scaling** — a fixed stream of concurrent seeded engine calls is
  pushed through :class:`RemoteBackend` against localhost fleets of 1, 2 and
  4 workers, recording requests/s and p50/p99 latency per fleet size.  On a
  multi-core host the Python-level solver loops spread across the fleet; on a
  single-core CI box the numbers instead measure pure transport + dispatch
  overhead (the report records the core count so the two cases read apart).
* **Shed regime** — a deliberately saturated one-worker fleet
  (``max_concurrency=1, max_pending=1``) receives a burst with client
  retries disabled: the bounded admission queue must shed the excess with
  typed :class:`ServiceOverloaded` errors — never hang, never queue
  unboundedly — and a second pass with retries enabled must absorb the sheds
  by backing off until the fleet drains.

Run with ``pytest benchmarks/bench_remote.py``; the rendered report lands in
``benchmarks/results/bench_remote.txt``.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.qubo.model import random_qubo
from repro.service import ServiceOverloaded, make_solver
from repro.service.remote import RemoteBackend, WorkerServer

SOLVER_SPEC = "sa?num_sweeps=60"
MODEL_SIZE = 24
NUM_READS = 4
REQUESTS = 32
CONCURRENCY = 8
FLEET_SIZES = (1, 2, 4)


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return float("nan")
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _drive_fleet(addresses, model, solver):
    """Push REQUESTS seeded calls through CONCURRENCY client threads."""
    backend = RemoteBackend(
        workers=addresses, request_timeout=120.0, retries=6, backoff_base=0.02
    )
    latencies = []
    lock = threading.Lock()

    def one_call(seed: int) -> None:
        started = time.perf_counter()
        backend.run(model, solver, NUM_READS, seed)
        elapsed = time.perf_counter() - started
        with lock:
            latencies.append(elapsed)

    wall_started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
        list(pool.map(one_call, range(REQUESTS)))
    wall = time.perf_counter() - wall_started
    stats = backend.stats()
    backend.close()
    return wall, sorted(latencies), stats


def test_remote_fleet_throughput(record_report):
    model = random_qubo(MODEL_SIZE, rng=7)
    solver = make_solver(SOLVER_SPEC)
    lines = [
        f"remote fleet throughput — {REQUESTS} seeded calls "
        f"({SOLVER_SPEC}, n={MODEL_SIZE}, num_reads={NUM_READS}), "
        f"{CONCURRENCY} client threads, host cores: {os.cpu_count()}",
        "",
        f"{'workers':>8} {'req/s':>8} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'dials':>6} {'reships':>8}",
    ]
    for fleet_size in FLEET_SIZES:
        # Queue depth sized for the client burst: this section measures
        # throughput/latency, not shedding (that is the next section's job).
        servers = [
            WorkerServer(max_concurrency=2, max_pending=CONCURRENCY).start()
            for _ in range(fleet_size)
        ]
        try:
            wall, latencies, stats = _drive_fleet(
                [server.address for server in servers], model, solver
            )
            served = sum(server.stats()["served_total"] for server in servers)
        finally:
            for server in servers:
                server.close()
        assert len(latencies) == REQUESTS, "a request failed or hung"
        assert served == REQUESTS, "fleet served-count does not add up"
        lines.append(
            f"{fleet_size:>8} {REQUESTS / wall:>8.1f} "
            f"{1e3 * _percentile(latencies, 0.50):>8.1f} "
            f"{1e3 * _percentile(latencies, 0.99):>8.1f} "
            f"{stats['dials_total']:>6} {stats['model_reships_total']:>8}"
        )
    record_report("bench_remote", "\n".join(lines))


def test_remote_shed_regime(record_report):
    model = random_qubo(MODEL_SIZE, rng=7)
    solver = make_solver(SOLVER_SPEC)
    burst = 16

    with WorkerServer(max_concurrency=1, max_pending=1) as server:
        # Pass 1: retries disabled — the bounded queue sheds, visibly.
        backend = RemoteBackend(
            workers=[server.address], retries=0, request_timeout=120.0
        )
        outcomes = {"served": 0, "shed": 0}
        lock = threading.Lock()

        def one_call(seed: int) -> None:
            try:
                backend.run(model, solver, NUM_READS, seed)
            except ServiceOverloaded:
                with lock:
                    outcomes["shed"] += 1
            else:
                with lock:
                    outcomes["served"] += 1

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=burst) as pool:
            list(pool.map(one_call, range(burst)))
        no_retry_wall = time.perf_counter() - started
        backend.close()
        no_retry = dict(outcomes)
        worker_sheds = server.stats()["shed_total"]

        # Every call resolved to a typed outcome, and the bound actually bit.
        assert no_retry["served"] + no_retry["shed"] == burst
        assert no_retry["shed"] > 0, "the shed regime never shed"
        assert no_retry["served"] >= 1, "admission starved every single call"
        assert worker_sheds >= no_retry["shed"]

        # Pass 2: the same burst with retries + backoff absorbs the sheds.
        backend = RemoteBackend(
            workers=[server.address],
            retries=8,
            backoff_base=0.05,
            backoff_max=0.5,
            request_timeout=240.0,
        )
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=burst) as pool:
            list(pool.map(lambda seed: backend.run(model, solver, NUM_READS, seed), range(burst)))
        retry_wall = time.perf_counter() - started
        retry_stats = backend.stats()
        backend.close()
        assert retry_stats["served_total"] == burst

    record_report(
        "bench_remote_shed",
        "\n".join(
            [
                f"shed regime — burst of {burst} calls at a 1-worker fleet "
                f"(max_concurrency=1, max_pending=1)",
                "",
                f"retries=0: served {no_retry['served']}, shed "
                f"{no_retry['shed']} (typed ServiceOverloaded), "
                f"worker shed counter {worker_sheds}, wall {no_retry_wall:.2f}s",
                f"retries=8: served {retry_stats['served_total']}/{burst} after "
                f"{retry_stats['overload_retries_total']} overload retries, "
                f"wall {retry_wall:.2f}s",
            ]
        ),
    )
