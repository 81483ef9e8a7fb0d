"""Engine precision benchmark: sweep throughput, float64 vs float32.

The float32 engine path (state, fields and operator values all single
precision; returned energies re-scored exact) must at minimum hold
throughput parity with float64 — float32 halves the kernel memory traffic,
so it must never be a regression.  This benchmark measures SA, DA and PT
sweeps/s on an ``n = 1000`` random QUBO in both dtypes and asserts the
float32/float64 ratio per solver.  The two dtypes are timed in alternating
pairs, so host-speed drift during the run lands on both dtypes alike, and
the gate reads the ratio of the per-dtype minimum times.  Another process
only ever adds time to a call, so each dtype's fastest call is its
least-disturbed one: beside a busy loop on a 2-core host the median of five
per-pair ratios read as low as 0.85x for SA, where the minima of nine read
1.10x or more for every solver.

Collected by the benchmark harness (auto-marked ``slow`` by
``benchmarks/conftest.py``); run with ``pytest benchmarks/bench_compute.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.qubo.model import random_qubo
from repro.service import make_solver

N = 1000
NUM_READS = 8
SEED = 2021
PAIRS = 9
#: float32 must not regress throughput; 0.9 absorbs the timer noise left in
#: the per-dtype minima.
MIN_FLOAT32_RATIO = 0.9

#: (label, spec template, sweeps performed per read) — one entry per batched
#: annealing solver.  A DA "step" evaluates all n flip deltas, the same
#: kernel shape as one SA sweep; PT runs its sweeps on every ladder rung.
WORKLOADS = [
    ("sa", "sa?num_sweeps={sweeps}", 30, lambda s: s * NUM_READS),
    ("da", "da?num_steps={sweeps}", 30, lambda s: s * NUM_READS),
    (
        "pt",
        "pt?num_sweeps={sweeps}&num_replicas=4&swap_interval=5",
        20,
        lambda s: s * NUM_READS * 4,
    ),
]


def _seconds(solver, model) -> float:
    """Wall time of one seeded solver call."""
    started = time.perf_counter()
    solver.sample(model, num_reads=NUM_READS, rng=np.random.default_rng(SEED))
    return time.perf_counter() - started


def _paired_seconds(base_spec: str, model) -> np.ndarray:
    """``(PAIRS, 2)`` wall times: column 0 is float64, column 1 float32.

    Each pair times both dtypes back to back, and the order flips from one
    pair to the next, so neither dtype always runs first.
    """
    solvers = [make_solver(f"{base_spec}&dtype={dtype}") for dtype in ("float64", "float32")]
    for solver in solvers:
        _seconds(solver, model)  # warm-up
    times = np.zeros((PAIRS, 2))
    for pair in range(PAIRS):
        for column in (0, 1) if pair % 2 == 0 else (1, 0):
            times[pair, column] = _seconds(solvers[column], model)
    return times


def test_float32_throughput_holds_parity(record_timing):
    model = random_qubo(N, density=0.5, rng=SEED)
    lines = [
        f"engine sweep throughput at n={N}, {NUM_READS} reads (fastest of {PAIRS} "
        f"alternating float64/float32 pairs, total batched sweeps/s)",
    ]
    ratios = {}
    for label, template, sweeps, total in WORKLOADS:
        base_spec = template.format(sweeps=sweeps)
        lines.append(f"  {label:<5} ({base_spec!r})")
        fastest = _paired_seconds(base_spec, model).min(axis=0)
        for column, dtype in enumerate(("float64", "float32")):
            rate = total(sweeps) / float(fastest[column])
            lines.append(f"    {dtype:<8}: {rate:8.1f} sweeps/s")
        # float32/float64 throughput is float64 time over float32 time.
        ratios[label] = float(fastest[0] / fastest[1])
        lines.append(f"    float32/float64 throughput ratio: {ratios[label]:.2f}x")
    record_timing("bench_compute", "\n".join(lines))

    for label, ratio in ratios.items():
        assert ratio >= MIN_FLOAT32_RATIO, (
            f"{label}: float32 throughput is {ratio:.2f}x float64 — the "
            f"single-precision path must hold parity (>= {MIN_FLOAT32_RATIO}x)"
        )
