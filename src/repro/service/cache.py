"""Cache of solver calls: aggregate statistics and seeded sample-set dedup.

Aggregate entries are keyed by (instance, solver, parameter, reads).
Both the surrogate training data collection and the tuning comparison evaluate
many ``(instance, A)`` pairs; repeated evaluations (e.g. two methods proposing
the same parameter, or re-running a figure) can reuse the cached statistics.
The cache stores only aggregate statistics — never raw assignments — so it
stays small and can be persisted to JSON.

The :class:`~repro.service.service.SolveService` additionally dedupes whole
*seeded* solver calls through this class: identical requests (same QUBO
fingerprint, solver fingerprint, reads and seed) execute the engine exactly
once and every duplicate is served the stored :class:`SampleSet`.  Sample-set
entries are deterministic by construction (the seed pins the stream) and live
in memory; they are never part of the JSON persistence — to keep them across
processes and runs, tier the cache onto a
:class:`~repro.service.distributed.sharded_cache.ShardedResultCache` via the
``persistent=`` parameter, which write-throughs sample sets to a
fingerprint-sharded on-disk store and falls back to it on memory misses
(aggregate evaluation entries additionally require the
``persist_evaluations=True`` opt-in — their keys carry no seed).

All mutating paths are lock-protected so the cache can sit behind a
thread-pooled service.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional

from repro import obs
from repro.utils.io import atomic_write_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (distributed imports us)
    from repro.service.distributed.sharded_cache import ShardedResultCache

from repro.problems.base import ConstrainedProblem
from repro.qubo.model import QUBOModel
from repro.qubo.sampleset import SampleSet
from repro.solvers.base import QUBOSolver


@dataclass(frozen=True)
class CachedEvaluation:
    """Aggregate outcome of one solver call."""

    probability_of_feasibility: float
    energy_mean: float
    energy_std: float
    best_fitness: Optional[float]

    @classmethod
    def from_samples(cls, problem: ConstrainedProblem, samples: SampleSet) -> "CachedEvaluation":
        """Aggregate one batch of reads into ``(Pf, Eavg, Estd, best_fitness)``."""
        pf = samples.probability_of_feasibility(problem.is_feasible)
        energy_mean, energy_std = samples.energy_statistics()
        best_fitness: Optional[float] = None
        if pf > 0:
            fitnesses = [
                problem.fitness(assignment)
                for assignment in samples.assignments
                if problem.is_feasible(assignment)
            ]
            if fitnesses:
                best_fitness = float(min(fitnesses))
        return cls(pf, energy_mean, energy_std, best_fitness)

    def to_json_dict(self) -> dict:
        """The JSON shape shared by every persistence path (save files, disk tiers)."""
        return {
            "pf": self.probability_of_feasibility,
            "energy_mean": self.energy_mean,
            "energy_std": self.energy_std,
            "best_fitness": self.best_fitness,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CachedEvaluation":
        return cls(
            probability_of_feasibility=float(payload["pf"]),
            energy_mean=float(payload["energy_mean"]),
            energy_std=float(payload["energy_std"]),
            best_fitness=(
                None if payload["best_fitness"] is None else float(payload["best_fitness"])
            ),
        )


class SolverCallCache:
    """In-memory (optionally JSON-persisted) cache of solver-call statistics.

    ``max_sample_entries`` bounds the sample-set dedup store: unlike the tiny
    aggregate entries, each sample set holds a full ``(reads, n)`` assignment
    matrix, so the store is an LRU — least-recently-used sets are evicted once
    the bound is hit (an evicted seeded request simply re-runs, bitwise
    identically, on its next appearance — or is re-read from the persistent
    tier, which the LRU bound does not apply to).

    ``persistent`` tiers the cache onto an on-disk
    :class:`~repro.service.distributed.sharded_cache.ShardedResultCache`:
    every sample-set store is written through, every memory miss falls back to
    disk (and re-populates memory on a hit), so identical seeded calls hit
    across processes and across runs.  Sample keys include the seed, so a disk
    hit is *exact* — the entry is bit-identical to re-running the call.

    Aggregate evaluation entries are keyed **without** a seed (the historical
    within-run dedup semantics), so persisting them would let one run serve
    statistics produced by another run's random stream.  That is only sound
    when callers treat the statistics as interchangeable estimates, so it is
    opt-in: ``persist_evaluations=True``.
    """

    def __init__(
        self,
        max_sample_entries: int = 256,
        persistent: "Optional[ShardedResultCache]" = None,
        persist_evaluations: bool = False,
    ) -> None:
        if max_sample_entries <= 0:
            raise ValueError("max_sample_entries must be positive")
        if persist_evaluations and persistent is None:
            raise ValueError("persist_evaluations=True requires persistent=")
        self._entries: Dict[str, CachedEvaluation] = {}
        self._samples: "OrderedDict[str, SampleSet]" = OrderedDict()
        self.max_sample_entries = max_sample_entries
        self.persistent = persistent
        self.persist_evaluations = persist_evaluations
        self._lock = threading.Lock()
        self._hits = obs.counter(
            "qross_cache_lookups_total",
            labels={"cache": "call", "result": "hit"},
            help="Solver-call cache lookups by outcome",
        ).child()
        self._misses = obs.counter(
            "qross_cache_lookups_total",
            labels={"cache": "call", "result": "miss"},
            help="Solver-call cache lookups by outcome",
        ).child()
        self._evictions = obs.counter(
            "qross_cache_evictions_total",
            labels={"cache": "call"},
            help="Sample-set entries evicted at the LRU bound",
        ).child()

    # ----------------------------------------------------------------- keying
    @staticmethod
    def evaluation_key(
        problem: ConstrainedProblem, solver: QUBOSolver, parameter: float, num_reads: int
    ) -> str:
        """Cache key of an aggregate (instance, solver, parameter, reads) evaluation.

        Deliberately seed-free: within a run, two evaluations of the same
        tuple are treated as interchangeable estimates.  Every execution
        backend runs the same seeded engine call, so the key needs no backend
        either.  Callers that need stream-exact
        results should key on the sample path (:meth:`sample_key`, which
        includes the seed) or use per-run caches.

        The parameter enters as ``float.hex()``, so two distinct parameters
        never share an entry, however close they are.
        """
        fingerprint = getattr(problem, "instance", problem)
        fingerprint = getattr(fingerprint, "fingerprint", lambda: problem.name)()
        # The solver name alone is ambiguous: two instances of the same backend
        # with different configs (e.g. SA with 100 vs 1000 sweeps) produce very
        # different statistics, so the config fingerprint is part of the key.
        solver_id = f"{solver.name}:{solver.config_fingerprint()}"
        return f"{fingerprint}|{solver_id}|{float(parameter).hex()}|{num_reads}"

    @staticmethod
    def sample_key(model: QUBOModel, solver: QUBOSolver, num_reads: int, seed: int) -> str:
        """Cache key of one full seeded solver call (sample-set dedup)."""
        solver_id = f"{solver.name}:{solver.config_fingerprint()}"
        return f"samples|{model.fingerprint()}|{solver_id}|{num_reads}|{seed}"

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def num_sample_entries(self) -> int:
        return len(self._samples)

    # ----------------------------------------------------------- entry access
    def lookup(self, key: str) -> Optional[CachedEvaluation]:
        """Fetch an aggregate entry (memory, then the opt-in persistent tier)."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is None and self.persist_evaluations:
            # Disk I/O happens outside the lock; a hit re-populates memory.
            entry = self.persistent.lookup_evaluation(key)
            if entry is not None:
                with self._lock:
                    self._entries[key] = entry
        (self._misses if entry is None else self._hits).inc()
        return entry

    def store(self, key: str, entry: CachedEvaluation) -> None:
        with self._lock:
            self._entries[key] = entry
        if self.persist_evaluations:
            self.persistent.store_evaluation(key, entry)

    def lookup_samples(self, key: str) -> Optional[SampleSet]:
        """Fetch a deduped sample set (memory LRU, then the persistent tier)."""
        with self._lock:
            samples = self._samples.get(key)
            if samples is not None:
                self._samples.move_to_end(key)
        if samples is None and self.persistent is not None:
            samples = self.persistent.lookup_samples(key)
            if samples is not None:
                with self._lock:
                    self._store_samples_locked(key, samples)
        (self._misses if samples is None else self._hits).inc()
        return samples

    def store_samples(self, key: str, samples: SampleSet) -> None:
        with self._lock:
            self._store_samples_locked(key, samples)
        if self.persistent is not None:
            self.persistent.store_samples(key, samples)

    def _store_samples_locked(self, key: str, samples: SampleSet) -> None:
        self._samples[key] = samples
        self._samples.move_to_end(key)
        while len(self._samples) > self.max_sample_entries:
            self._samples.popitem(last=False)
            self._evictions.inc()

    # ------------------------------------------------------------ persistence
    def save(self, path: str | Path) -> None:
        """Write the aggregate entries to a JSON file, atomically.

        The payload is written to a temp file in the destination directory and
        moved into place with ``os.replace``, so a *process* crash mid-save
        (or two processes saving concurrently) can never leave a
        truncated/interleaved file behind — a reader sees either the old
        complete file or the new one.  (Power-loss durability is out of
        scope: the write is not fsynced before the rename.)

        Only the aggregate statistics are persisted.  **Sample sets are
        deliberately not included**: each one holds a full ``(reads, n)``
        assignment matrix, which does not belong in a JSON summary file.  To
        persist them — and the aggregate entries — across processes and runs,
        construct the cache with
        ``persistent=ShardedResultCache(directory)``; every entry is then
        write-through to disk as it is created, which supersedes ``save`` for
        everything except producing a single shareable summary file.
        """
        with self._lock:
            payload = {key: entry.to_json_dict() for key, entry in self._entries.items()}
        atomic_write_bytes(path, json.dumps(payload).encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "SolverCallCache":
        """Restore a cache written by :meth:`save`."""
        cache = cls()
        payload = json.loads(Path(path).read_text())
        for key, entry in payload.items():
            cache._entries[key] = CachedEvaluation.from_json_dict(entry)
        return cache
