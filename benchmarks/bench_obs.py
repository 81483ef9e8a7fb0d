"""Benchmark: telemetry overhead — tracing must cost ≤2% of solve throughput.

Two sections:

* **Overhead** — the run *asserts* that tracing adds at most 2% to a
  request: the measured cost of emitting one span (traced minus untraced, a
  best-of micro-benchmark of ``obs.span`` enter/exit) times the spans each
  request emits, divided by the untraced wall time per request.  Both factors
  are stable to well within the budget, so a regression that makes span
  emission expensive fails the benchmark while host jitter cannot.  For
  context the report also shows the end-to-end ratio: the same stream of
  seeded solves pushed through a :class:`SolveService` with tracing off and
  on, ``TRIALS`` interleaved passes per mode, best wall time compared.  That
  ratio moves by ±10% between runs of unchanged code on a shared host, far
  more than the effect it would measure, so it is reported, not asserted.
* **Trace shape** — one traced solve through a loopback remote fleet, with
  the resulting stitched tree rendered by ``python -m repro.obs.report``
  embedded in the report, so the report documents what a trace actually
  looks like.

Run with ``pytest benchmarks/bench_obs.py``; the rendered report lands in
``benchmarks/results/timing/bench_obs.txt``.
"""

from __future__ import annotations

import io
import json
import time

from repro import obs
from repro.obs import report as obs_report
from repro.qubo.model import random_qubo
from repro.service.remote import RemoteBackend, WorkerServer
from repro.service.requests import SolveRequest
from repro.service.service import SolveService

SOLVER_SPEC = "sa?num_sweeps=200"
MODEL_SIZE = 32
NUM_READS = 4
REQUESTS = 24
TRIALS = 3
OVERHEAD_BUDGET = 0.02  # tracing may add at most 2% to a request's wall time
SPAN_PROBES = 2000  # obs.span enter/exit pairs per timing repeat
SPAN_REPEATS = 5


def _drive(model, trace_sink) -> float:
    """One pass of REQUESTS distinct seeded solves; returns the wall time."""
    if trace_sink is None:
        obs.reset_tracing()
    else:
        obs.configure_tracing(trace_sink)
    try:
        with SolveService(max_workers=2) as service:
            started = time.perf_counter()
            futures = [
                service.submit(
                    SolveRequest(
                        solver=SOLVER_SPEC, model=model, num_reads=NUM_READS, seed=seed
                    )
                )
                for seed in range(REQUESTS)
            ]
            for future in futures:
                future.result()
            return time.perf_counter() - started
    finally:
        obs.reset_tracing()


def _span_cost(trace_sink) -> float:
    """Best-of-``SPAN_REPEATS`` seconds per ``obs.span`` enter/exit pair."""
    if trace_sink is None:
        obs.reset_tracing()
    else:
        obs.configure_tracing(trace_sink)
    try:
        best = float("inf")
        for _ in range(SPAN_REPEATS):
            started = time.perf_counter()
            for _ in range(SPAN_PROBES):
                with obs.span("bench.span_probe", solver="sa", num_reads=NUM_READS):
                    pass
            best = min(best, (time.perf_counter() - started) / SPAN_PROBES)
        return best
    finally:
        obs.reset_tracing()


def test_tracing_overhead(record_timing, tmp_path):
    model = random_qubo(MODEL_SIZE, rng=13)
    off_walls, on_walls = [], []
    # Warm-up pass outside the measurement (imports, pool spin-up, JIT-warm
    # caches); then interleave the modes so drift hits both equally.
    _drive(model, None)
    for trial in range(TRIALS):
        off_walls.append(_drive(model, None))
        on_walls.append(_drive(model, tmp_path / f"trace-{trial}.jsonl"))
    best_off, best_on = min(off_walls), min(on_walls)
    ratio = best_on / best_off

    events = [
        json.loads(line)
        for line in open(tmp_path / f"trace-{TRIALS - 1}.jsonl")
    ]
    spans_per_request = len(events) / REQUESTS
    span_on = _span_cost(tmp_path / "span-probe.jsonl")
    span_off = _span_cost(None)
    request_s = best_off / REQUESTS
    overhead = max(span_on - span_off, 0.0) * spans_per_request / request_s

    lines = [
        f"telemetry overhead — {REQUESTS} seeded solves ({SOLVER_SPEC}, "
        f"n={MODEL_SIZE}, num_reads={NUM_READS}), best of {TRIALS} "
        f"interleaved trials per mode",
        "",
        f"{'mode':>12} {'wall s':>8} {'req/s':>8}",
        f"{'tracing off':>12} {best_off:>8.3f} {REQUESTS / best_off:>8.1f}",
        f"{'tracing on':>12} {best_on:>8.3f} {REQUESTS / best_on:>8.1f}",
        "",
        f"wall ratio (reported, not gated): {ratio:.4f}",
        f"span cost: {1e6 * span_on:.1f} us traced, {1e6 * span_off:.2f} us "
        f"untraced (best of {SPAN_REPEATS} x {SPAN_PROBES})",
        f"{spans_per_request:.1f} spans emitted per request, "
        f"{1e3 * request_s:.1f} ms untraced wall time per request",
        f"tracing overhead per request: {100 * overhead:.4f}% "
        f"(budget {100 * OVERHEAD_BUDGET:.0f}%)",
    ]
    record_timing("bench_obs", "\n".join(lines))
    assert overhead <= OVERHEAD_BUDGET, (
        f"tracing adds {100 * overhead:.2f}% per request, over the "
        f"{100 * OVERHEAD_BUDGET:.0f}% budget ({1e6 * span_on:.1f} us per "
        f"traced span x {spans_per_request:.1f} spans / {1e3 * request_s:.1f} ms)"
    )


def test_remote_trace_tree_renders(record_timing, tmp_path):
    sink = tmp_path / "remote-trace.jsonl"
    model = random_qubo(MODEL_SIZE, rng=13)
    obs.configure_tracing(sink)
    try:
        with WorkerServer() as server:
            backend = RemoteBackend(workers=[server.address])
            with obs.span("client"):
                with SolveService(backend=backend, max_workers=1) as service:
                    service.solve(model, solver=SOLVER_SPEC, num_reads=NUM_READS, seed=3)
            backend.close()
    finally:
        obs.reset_tracing()

    events = [json.loads(line) for line in open(sink)]
    assert len({event["trace_id"] for event in events}) == 1, "tree did not stitch"

    rendered = io.StringIO()
    assert obs_report.render_report(str(sink), rendered) == 0
    record_timing(
        "bench_obs_trace",
        "one seeded remote solve, stitched and rendered by "
        "python -m repro.obs.report:\n\n" + rendered.getvalue().rstrip(),
    )
