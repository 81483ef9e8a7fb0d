"""Compute-layer benchmark: engine sweep throughput, float64 vs float32.

The ``repro.compute`` refactor promises that routing every engine kernel
through the array-backend handle costs nothing on the numpy/float64
reference, and that the end-to-end float32 path (state, fields, operator
values all single-precision; energies re-scored exact) at minimum holds
throughput parity — float32 halves the kernel memory traffic, so it must
never be a regression.  This benchmark measures SA, DA and PT sweeps/s on an
``n = 1000`` random QUBO for each available backend × dtype combination and
asserts the float32/float64 ratio per solver.  The two dtypes are timed in
alternating pairs and the gate reads the median per-pair ratio, so host-speed
drift during the run lands on both dtypes alike.

Torch/CuPy enroll automatically when importable (the containerised run is
numpy-only); the report records exactly which combinations ran.

Collected by the benchmark harness (auto-marked ``slow`` by
``benchmarks/conftest.py``); run with ``pytest benchmarks/bench_compute.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.compute import available_array_backends
from repro.qubo.model import random_qubo
from repro.service import make_solver

N = 1000
NUM_READS = 8
SEED = 2021
PAIRS = 5
#: float32 must not regress throughput; 0.9 absorbs per-pair timer noise.
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


def _paired_seconds(base_spec: str, kind: str, model) -> np.ndarray:
    """``(PAIRS, 2)`` wall times: column 0 is float64, column 1 float32.

    Each pair times both dtypes back to back, and the order flips from one
    pair to the next, so neither dtype always runs first.
    """
    solvers = [
        make_solver(f"{base_spec}&array_backend={kind}&dtype={dtype}")
        for dtype in ("float64", "float32")
    ]
    for solver in solvers:
        _seconds(solver, model)  # warm-up
    times = np.zeros((PAIRS, 2))
    for pair in range(PAIRS):
        for column in (0, 1) if pair % 2 == 0 else (1, 0):
            times[pair, column] = _seconds(solvers[column], model)
    return times


def test_float32_throughput_holds_parity(record_report):
    model = random_qubo(N, density=0.5, rng=SEED)
    backends = available_array_backends()
    lines = [
        f"engine sweep throughput at n={N}, {NUM_READS} reads (median of {PAIRS} "
        f"alternating float64/float32 pairs, total batched sweeps/s)",
        f"  array backends available: {', '.join(backends)}",
    ]
    ratios = {}
    for label, template, sweeps, total in WORKLOADS:
        base_spec = template.format(sweeps=sweeps)
        lines.append(f"  {label:<5} ({base_spec!r})")
        for kind in backends:
            times = _paired_seconds(base_spec, kind, model)
            for column, dtype in enumerate(("float64", "float32")):
                rate = total(sweeps) / float(np.median(times[:, column]))
                lines.append(f"    {kind}/{dtype:<8}: {rate:8.1f} sweeps/s")
            # float32/float64 throughput is float64 time over float32 time.
            ratio = float(np.median(times[:, 0] / times[:, 1]))
            lines.append(f"    {kind} float32/float64 throughput ratio: {ratio:.2f}x")
            if kind == "numpy":
                ratios[label] = ratio
    record_report("bench_compute", "\n".join(lines))

    for label, ratio in ratios.items():
        assert ratio >= MIN_FLOAT32_RATIO, (
            f"{label}: float32 throughput is {ratio:.2f}x float64 — the "
            f"single-precision path must hold parity (>= {MIN_FLOAT32_RATIO}x)"
        )
