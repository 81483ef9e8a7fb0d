"""Tests of the in-process solver-call cache.

:class:`~repro.service.cache.SolverCallCache` holds two stores: the aggregate
evaluation memo the tuning loops pass to ``SolveService.evaluate`` and the
seeded sample-set dedup LRU behind ``SolveService``.  These tests drive the
cache directly (entries, keys, the LRU bound, the lookup counters and
concurrent use) and through a service (a repeated seeded sweep runs no engine
call).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.problems.tsp.generator import generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.model import random_qubo
from repro.qubo.sampleset import SampleSet
from repro.service import (
    SolveRequest,
    SolverCallCache,
    SolveService,
    ThreadExecutionBackend,
    make_solver,
)
from repro.service import cache as cache_module
from repro.service.cache import CachedEvaluation
from repro.solvers.base import QUBOSolver
from repro.solvers.simulated_annealing import (
    SimulatedAnnealingConfig,
    SimulatedAnnealingSolver,
)

HIT = 'qross_cache_lookups_total{cache="call",result="hit"}'
MISS = 'qross_cache_lookups_total{cache="call",result="miss"}'
EVICTED = 'qross_cache_evictions_total{cache="call"}'


def tiny_samples(value: int = 0) -> SampleSet:
    """A one-read, one-variable set whose energy tags it."""
    return SampleSet(np.array([[value % 2]]), np.array([float(value)]))


class MetricDelta:
    """How far registry families moved between construction and :meth:`moved`."""

    def __init__(self) -> None:
        self.before = obs.metrics_snapshot()

    def moved(self, name: str) -> float:
        after = obs.metrics_snapshot()
        return after.get(name, 0) - self.before.get(name, 0)


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


@pytest.fixture
def model():
    return random_qubo(12, rng=3)


# ------------------------------------------------------------------- entries
class TestEntries:
    def test_evaluation_round_trip(self):
        cache = SolverCallCache()
        entry = CachedEvaluation(0.25, -1.5, 0.75, None)
        cache.store("ek", entry)
        assert cache.lookup("ek") == entry
        assert cache.lookup("other") is None
        assert len(cache) == 1

    def test_samples_round_trip(self, model):
        cache = SolverCallCache()
        samples = make_solver("sa?num_sweeps=10").sample(model, 3, rng=np.random.default_rng(1))
        assert cache.lookup_samples("k1") is None
        cache.store_samples("k1", samples)
        assert cache.lookup_samples("k1") is samples
        assert cache.num_sample_entries == 1
        # The sample store does not count as aggregate entries.
        assert len(cache) == 0

    def test_aggregate_and_sample_stores_do_not_cross(self):
        cache = SolverCallCache()
        cache.store("k", CachedEvaluation(1.0, 0.0, 0.0, 3.0))
        cache.store_samples("s", tiny_samples())
        assert cache.lookup_samples("k") is None
        assert cache.lookup("s") is None

    def test_store_replaces_an_entry(self):
        cache = SolverCallCache()
        cache.store("k", CachedEvaluation(0.5, 1.0, 0.0, None))
        newer = CachedEvaluation(1.0, 2.0, 0.5, 4.0)
        cache.store("k", newer)
        assert cache.lookup("k") == newer and len(cache) == 1

    def test_fresh_caches_share_nothing(self):
        # Each cache is its own in-process store: nothing carries over from
        # another instance, however the first was filled.
        first = SolverCallCache()
        first.store("ek", CachedEvaluation(0.5, 1.0, 2.0, None))
        first.store_samples("sk", tiny_samples())
        second = SolverCallCache()
        assert second.lookup("ek") is None
        assert second.lookup_samples("sk") is None
        assert (len(second), second.num_sample_entries) == (0, 0)


# ------------------------------------------------------------------ counters
class TestCounters:
    @pytest.mark.parametrize("kind", ["evaluation", "samples"])
    def test_lookups_count_one_miss_then_one_hit(self, kind):
        cache = SolverCallCache()
        if kind == "evaluation":
            store, lookup = cache.store, cache.lookup
            value = CachedEvaluation(1.0, 0.0, 0.0, None)
        else:
            store, lookup = cache.store_samples, cache.lookup_samples
            value = tiny_samples()
        delta = MetricDelta()
        assert lookup("k") is None
        store("k", value)
        assert lookup("k") is value
        assert (cache.hits, cache.misses) == (1, 1)
        assert delta.moved(HIT) == 1
        assert delta.moved(MISS) == 1

    def test_stores_count_no_lookup(self):
        cache = SolverCallCache()
        delta = MetricDelta()
        cache.store("k", CachedEvaluation(1.0, 0.0, 0.0, None))
        cache.store_samples("k", tiny_samples())
        assert (cache.hits, cache.misses) == (0, 0)
        assert delta.moved(HIT) == 0 and delta.moved(MISS) == 0

    def test_counts_are_per_instance_and_sum_in_the_family(self):
        first, second = SolverCallCache(), SolverCallCache()
        delta = MetricDelta()
        first.lookup("a")
        first.lookup("b")
        second.lookup("c")
        assert (first.misses, second.misses) == (2, 1)
        assert delta.moved(MISS) == 3


# ------------------------------------------------------------ sample-set LRU
class TestSampleLRU:
    def test_default_bound(self):
        assert cache_module.SAMPLE_CACHE_SIZE == 256
        cache = SolverCallCache()
        delta = MetricDelta()
        for index in range(cache_module.SAMPLE_CACHE_SIZE + 1):
            cache.store_samples(f"k{index}", tiny_samples(index))
        assert cache.num_sample_entries == cache_module.SAMPLE_CACHE_SIZE
        assert delta.moved(EVICTED) == 1
        assert cache.lookup_samples("k0") is None
        assert cache.lookup_samples("k1") is not None

    def test_lookup_marks_an_entry_recently_used(self, monkeypatch):
        monkeypatch.setattr(cache_module, "SAMPLE_CACHE_SIZE", 2)
        cache = SolverCallCache()
        a, b, c = tiny_samples(1), tiny_samples(2), tiny_samples(3)
        cache.store_samples("a", a)
        cache.store_samples("b", b)
        assert cache.lookup_samples("a") is a
        delta = MetricDelta()
        cache.store_samples("c", c)  # evicts "b", the least recently used
        assert delta.moved(EVICTED) == 1
        assert cache.lookup_samples("b") is None
        assert cache.lookup_samples("a") is a
        assert cache.lookup_samples("c") is c

    def test_restoring_a_key_refreshes_it_without_eviction(self, monkeypatch):
        monkeypatch.setattr(cache_module, "SAMPLE_CACHE_SIZE", 2)
        cache = SolverCallCache()
        replacement = tiny_samples(5)
        delta = MetricDelta()
        cache.store_samples("a", tiny_samples(1))
        cache.store_samples("b", tiny_samples(2))
        cache.store_samples("a", replacement)
        assert cache.num_sample_entries == 2 and delta.moved(EVICTED) == 0
        cache.store_samples("c", tiny_samples(3))  # "a" is now newer than "b"
        assert cache.lookup_samples("b") is None
        assert cache.lookup_samples("a") is replacement

    def test_aggregate_entries_are_not_bounded(self, monkeypatch):
        # Aggregate entries are four floats each; only sample sets, which hold
        # a full assignment matrix, are evicted.
        monkeypatch.setattr(cache_module, "SAMPLE_CACHE_SIZE", 2)
        cache = SolverCallCache()
        for index in range(5):
            cache.store(f"k{index}", CachedEvaluation(1.0, float(index), 0.0, None))
        assert len(cache) == 5
        assert cache.lookup("k0") == CachedEvaluation(1.0, 0.0, 0.0, None)


# ---------------------------------------------------------------------- keys
class TestKeys:
    @staticmethod
    def _sample_key(field: str = "", model=None):
        model = model if model is not None else random_qubo(12, rng=3)
        solver, reads, seed = make_solver("sa?num_sweeps=10"), 4, 7
        if field == "model":
            model = random_qubo(12, rng=4)
        elif field == "solver_config":
            solver = make_solver("sa?num_sweeps=11")
        elif field == "solver_backend":
            solver = make_solver("tabu")
        elif field == "num_reads":
            reads = 5
        elif field == "seed":
            seed = 8
        return SolverCallCache.sample_key(model, solver, reads, seed)

    @pytest.mark.parametrize(
        "field", ["model", "solver_config", "solver_backend", "num_reads", "seed"]
    )
    def test_sample_key_separates_each_field(self, field):
        assert self._sample_key(field) != self._sample_key()

    def test_sample_key_is_stable_across_equal_objects(self):
        # Two separately built but identical models and solvers name one call.
        assert self._sample_key(model=random_qubo(12, rng=3)) == self._sample_key()

    @staticmethod
    def _evaluation_key(field: str = "", problem=None):
        instance = generate_instance(5, rng=2)
        problem = problem if problem is not None else TSPProblem(instance)
        solver, parameter, reads = make_solver("sa?num_sweeps=10"), 2.5, 4
        if field == "encoding":
            problem = TSPProblem(generate_instance(5, rng=3))
        elif field == "solver_config":
            solver = make_solver("sa?num_sweeps=11")
        elif field == "parameter":
            parameter = 2.75
        elif field == "num_reads":
            reads = 5
        return SolverCallCache.evaluation_key(problem, solver, parameter, reads)

    @pytest.mark.parametrize("field", ["encoding", "solver_config", "parameter", "num_reads"])
    def test_evaluation_key_separates_each_field(self, field):
        assert self._evaluation_key(field) != self._evaluation_key()

    def test_evaluation_key_names_the_encoding_not_the_object(self):
        # A second problem over the same instance relaxes to the same QUBO at
        # every A, so the two share an entry.
        twin = TSPProblem(generate_instance(5, rng=2))
        assert self._evaluation_key(problem=twin) == self._evaluation_key()


# ------------------------------------------------------------ through service
class TestServiceDedup:
    def test_second_seeded_sweep_runs_zero_solver_calls(self, model):
        """A re-run of a seeded sweep through the same cache is served from it."""
        cache = SolverCallCache()

        def run_sweep():
            solver = CountingSolver(num_sweeps=12)
            with SolveService(max_workers=2, cache=cache, backend="thread") as service:
                results = service.map_requests(
                    [
                        SolveRequest(solver=solver, model=model, num_reads=2, seed=seed)
                        for seed in range(5)
                    ]
                )
            return solver.calls, results

        first_calls, first = run_sweep()
        second_calls, second = run_sweep()
        assert (first_calls, second_calls) == (5, 0)
        assert all(result.from_cache for result in second)
        for a, b in zip(first, second):
            assert a.samples.energies.tobytes() == b.samples.energies.tobytes()
            assert a.samples.assignments.tobytes() == b.samples.assignments.tobytes()

    def test_sample_is_a_seeded_submit(self, model):
        """``sample`` draws one seed from ``rng`` and dedups like a seeded request."""
        stream = np.random.default_rng(3)
        seed = int(stream.integers(0, 2**63 - 1))
        expected = ThreadExecutionBackend().run(model, CountingSolver(num_sweeps=12), 4, seed)
        cache = SolverCallCache()
        solver = CountingSolver(num_sweeps=12)
        with SolveService(max_workers=1, cache=cache, backend="thread") as service:
            rng = np.random.default_rng(3)
            first = service.sample(model, solver, 4, rng=rng)
            assert rng.bit_generator.state == stream.bit_generator.state
            again = service.sample(model, solver, 4, rng=np.random.default_rng(3))
        assert solver.calls == 1
        assert (cache.hits, cache.misses) == (1, 1)
        for samples in (first, again):
            for got, want in (
                (samples.assignments, expected.assignments),
                (samples.energies, expected.energies),
                (samples.num_occurrences, expected.num_occurrences),
            ):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_unseeded_requests_bypass_the_cache(self, model):
        cache = SolverCallCache()
        solver = CountingSolver(num_sweeps=12)
        with SolveService(max_workers=1, cache=cache, backend="thread") as service:
            for _ in range(2):
                service.submit(SolveRequest(solver=solver, model=model, num_reads=2)).result()
        assert solver.calls == 2
        assert (cache.hits, cache.misses, cache.num_sample_entries) == (0, 0, 0)


# ---------------------------------------------------------------- concurrency
class TestConcurrency:
    def test_concurrent_sample_traffic_keeps_the_bound(self, monkeypatch):
        monkeypatch.setattr(cache_module, "SAMPLE_CACHE_SIZE", 4)
        cache = SolverCallCache()
        stored = {f"key-{i}": tiny_samples(i) for i in range(12)}
        rounds, errors = 50, []
        delta = MetricDelta()

        def worker(offset):
            try:
                keys = list(stored)[offset::3]
                for _ in range(rounds):
                    for key in keys:
                        got = cache.lookup_samples(key)
                        # A served entry is always the one stored under its key.
                        assert got is None or got is stored[key]
                        cache.store_samples(key, stored[key])
            except BaseException as exc:  # noqa: BLE001 - repack for the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        total = rounds * len(stored)
        assert cache.num_sample_entries == 4
        assert cache.hits + cache.misses == total
        assert delta.moved(HIT) + delta.moved(MISS) == total
        # Each thread owns its keys, so a miss is always followed by a store
        # that adds an entry; a hit's store adds one only if another thread
        # evicted the key in between.  Every added entry is held or evicted.
        held = cache.num_sample_entries
        assert cache.misses - held <= delta.moved(EVICTED) <= total - held

    def test_concurrent_evaluation_lookups_count_exactly(self):
        cache = SolverCallCache()
        entry = CachedEvaluation(0.5, 1.0, 0.0, None)
        cache.store("held", entry)
        rounds, errors = 200, []

        def worker():
            try:
                for _ in range(rounds):
                    assert cache.lookup("held") == entry
                    assert cache.lookup("absent") is None
            except BaseException as exc:  # noqa: BLE001 - repack for the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert (cache.hits, cache.misses) == (4 * rounds, 4 * rounds)
