"""Encoding-path benchmark: sparse-first COO accumulation.

Records construction wall time and peak RSS for MVC instances at
``n in {1000, 5000}``, checks that the relaxed model is CSR whichever form
its coefficients arrive in, and pins the headline speedup of the accumulator
rewrite: encoding the ``n = 1000`` benchmark instance must be at least 10x
faster than the seed's Python-loop-over-edges encoder (which is
reimplemented below as the reference).

Collected by the benchmark harness (auto-marked ``slow`` by
``benchmarks/conftest.py``); run with ``pytest benchmarks/bench_encoding.py``.
"""

from __future__ import annotations

import resource
import time

import numpy as np
import pytest

from repro.problems.mvc.generator import generate_sparse_mvc_instance
from repro.problems.mvc.qubo import MVCProblem
from repro.qubo.model import QUBOModel

#: (num_vertices, graph edge density) per benchmark case.
CASES = [(1000, 0.01), (5000, 0.004)]


def _peak_rss_mb() -> float:
    """Current peak RSS of the process in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def seed_loop_penalty_encoder(instance) -> QUBOModel:
    """The seed's Python-loop MVC penalty encoder, kept as the speed reference."""
    n = instance.num_vertices
    Q = np.zeros((n, n))
    edges = instance.edges()
    offset = float(edges.shape[0])
    for i, j in edges:
        Q[i, i] -= 1.0
        Q[j, j] -= 1.0
        Q[i, j] += 0.5
        Q[j, i] += 0.5
    return QUBOModel(Q, offset=offset, name="seed-penalty")


def _encode_once(instance):
    problem = MVCProblem(instance)
    started = time.perf_counter()
    encoding = problem.encode()
    relaxed = encoding.relax(1.5 * problem.relaxation_scale())
    elapsed = time.perf_counter() - started
    return relaxed, elapsed


@pytest.fixture(scope="module")
def instances():
    return {
        (n, density): generate_sparse_mvc_instance(n, edge_density=density, rng=2021)
        for n, density in CASES
    }


class TestEncodingConstruction:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"n{c[0]}")
    def test_sparse_vs_dense_construction(self, case, instances, record_timing):
        instance = instances[case]
        # Warm the edge cache so the timing covers the encode alone.
        instance.edges()
        rss_before = _peak_rss_mb()
        relaxed, elapsed = _encode_once(instance)
        rss_after = _peak_rss_mb()
        record_timing(
            f"bench_encoding_n{case[0]}",
            f"MVC n={case[0]} density={case[1]} ({instance.num_edges} edges)\n"
            f"  sparse: construction {elapsed * 1e3:8.2f} ms, "
            f"peak RSS {rss_after:8.1f} MiB (delta {rss_after - rss_before:+7.1f})",
        )
        assert relaxed.storage == "sparse"
        # Dense coefficients of a sparse-regime model still land on CSR.
        from_dense = QUBOModel(relaxed.dense_Q(), offset=relaxed.offset)
        assert from_dense.storage == "sparse"
        assert from_dense.fingerprint() == relaxed.fingerprint()

    def test_accumulator_encoder_at_least_10x_faster_than_seed_loop(self, instances):
        instance = instances[CASES[0]]  # n = 1000
        instance.edges()

        started = time.perf_counter()
        reference = seed_loop_penalty_encoder(instance)
        seed_elapsed = time.perf_counter() - started

        best_new = np.inf
        for _ in range(3):
            problem = MVCProblem(instance)
            started = time.perf_counter()
            encoding = problem.encode()
            best_new = min(best_new, time.perf_counter() - started)
            assert encoding.penalty.fingerprint() == reference.fingerprint()

        speedup = seed_elapsed / best_new
        assert speedup >= 10.0, (
            f"accumulator encoding must be >= 10x faster than the seed loop "
            f"encoder (got {speedup:.1f}x: seed {seed_elapsed * 1e3:.1f} ms, "
            f"accumulator {best_new * 1e3:.1f} ms)"
        )
