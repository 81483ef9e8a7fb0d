"""On-disk, fingerprint-sharded result store shared across processes and runs.

:class:`ShardedResultCache` persists the two kinds of entries
:class:`~repro.service.cache.SolverCallCache` holds:

* *sample sets* — full seeded solver calls, stored as wire frames
  (:mod:`~repro.service.distributed.wire`), keyed by the same
  ``(model fingerprint, solver fingerprint, reads, seed)`` key the in-memory
  dedup uses.  Seeded calls are deterministic, so a disk hit is exact — a
  repeated sweep re-run in a new process performs zero solver calls.
* *aggregate evaluations* — the tiny ``(Pf, Eavg, Estd, best_fitness)``
  records the tuning loops consume, stored as JSON.  Their keys carry no
  seed, so a cross-run hit returns statistics produced by another run's
  random stream — which is why :class:`SolverCallCache` only tiers them
  when explicitly asked (``persist_evaluations=True``).

Layout (versioned so future format changes cannot misread old trees)::

    <root>/v1/<shard>/<sha256(key)>.samples   (wire frame)
    <root>/v1/<shard>/<sha256(key)>.eval.json

where ``<shard>`` is the first two hex digits of the key hash — 256 buckets
keep directory listings short at millions of entries and give concurrent
writers (multiple runs, multiple service processes) naturally disjoint paths.

Every write goes through a temp file in the target directory followed by
``os.replace``: readers never observe a partial entry, a crash mid-write
leaves at most a stale temp file, and concurrent writers of the *same* key
(deterministic payloads) last-write-win with either side valid.  Corrupt or
truncated entries read as cache misses and are removed.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple, TypeVar

from repro import obs
from repro.qubo.sampleset import SampleSet
from repro.service.cache import CachedEvaluation
from repro.utils.io import atomic_write_bytes

#: Bump when the on-disk layout or entry encoding changes incompatibly; old
#: trees then simply stop matching (they live under their own ``v<N>/`` dir).
LAYOUT_VERSION = 1

_SAMPLES_SUFFIX = ".samples"
_EVAL_SUFFIX = ".eval.json"

T = TypeVar("T")


class ShardedResultCache:
    """Filesystem-backed result store, safe under concurrent readers/writers.

    Parameters
    ----------
    root:
        Directory of the store (created on demand).  Multiple processes and
        multiple runs may point at the same root concurrently.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root).expanduser()
        self._version_dir = self.root / f"v{LAYOUT_VERSION}"
        self._hits = obs.counter(
            "qross_cache_lookups_total",
            labels={"cache": "sharded", "result": "hit"},
            help="Sharded disk-cache lookups by outcome",
        ).child()
        self._misses = obs.counter(
            "qross_cache_lookups_total",
            labels={"cache": "sharded", "result": "miss"},
            help="Sharded disk-cache lookups by outcome",
        ).child()
        self._corrupt_removed = obs.counter(
            "qross_cache_corrupt_removed_total",
            labels={"cache": "sharded"},
            help="Corrupt/truncated disk entries removed on read",
        ).child()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ShardedResultCache(root={str(self.root)!r})"

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    # ------------------------------------------------------------------ layout
    def _entry_path(self, key: str, suffix: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self._version_dir / digest[:2] / f"{digest}{suffix}"

    def _lookup(self, key: str, suffix: str, decode: Callable[[bytes], T]) -> Optional[T]:
        """Read and decode one entry, counting the lookup once, after decoding.

        A partial/corrupt entry is worth less than a miss: it is removed and
        counted as a miss.
        """
        path = self._entry_path(key, suffix)
        try:
            data = path.read_bytes()
        except OSError:
            self._misses.inc()
            return None
        try:
            value = decode(data)
        except (KeyError, TypeError, ValueError):
            # WireFormatError, UnicodeDecodeError and JSONDecodeError are
            # ValueErrors; TypeError covers e.g. np.dtype() on a bit-flipped
            # dtype string.
            try:
                path.unlink()
            except OSError:
                pass
            self._corrupt_removed.inc()
            self._misses.inc()
            return None
        self._hits.inc()
        return value

    # ------------------------------------------------------------- sample sets
    def lookup_samples(self, key: str) -> Optional[SampleSet]:
        """Fetch a stored seeded solver call, or ``None``."""
        from repro.service.distributed import wire

        return self._lookup(key, _SAMPLES_SUFFIX, wire.decode_sample_set)

    def store_samples(self, key: str, samples: SampleSet) -> None:
        """Persist one seeded solver call atomically."""
        from repro.service.distributed import wire

        atomic_write_bytes(self._entry_path(key, _SAMPLES_SUFFIX), wire.encode_sample_set(samples))

    # ------------------------------------------------------------- evaluations
    def lookup_evaluation(self, key: str) -> Optional[CachedEvaluation]:
        """Fetch a stored aggregate evaluation, or ``None``."""
        return self._lookup(
            key,
            _EVAL_SUFFIX,
            lambda data: CachedEvaluation.from_json_dict(json.loads(data.decode("utf-8"))),
        )

    def store_evaluation(self, key: str, entry: CachedEvaluation) -> None:
        """Persist one aggregate evaluation atomically.

        The key is stored alongside the statistics — hashes are one-way, so
        without it a tree could not be audited or selectively invalidated.
        """
        payload = {"key": key, **entry.to_json_dict()}
        atomic_write_bytes(
            self._entry_path(key, _EVAL_SUFFIX),
            json.dumps(payload, separators=(",", ":")).encode("utf-8"),
        )

    # ------------------------------------------------------------------- misc
    def entry_counts(self) -> dict:
        """``{"samples": n, "evaluations": m}`` — a full-tree scan, for tooling."""
        samples = evaluations = 0
        if self._version_dir.is_dir():
            for shard in self._version_dir.iterdir():
                if not shard.is_dir():
                    continue
                for entry in shard.iterdir():
                    if entry.name.endswith(_EVAL_SUFFIX):
                        evaluations += 1
                    elif entry.name.endswith(_SAMPLES_SUFFIX):
                        samples += 1
        return {"samples": samples, "evaluations": evaluations}

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_tmp_age_s: float = 3600.0,
        max_total_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> dict:
        """Garbage-collect the store by count, byte budget and/or age TTL.

        At least one of ``max_entries`` / ``max_total_bytes`` / ``max_age_s``
        must be given; the criteria compose (an entry survives only if it
        passes all of them):

        * ``max_age_s`` — entries whose modification time is older than this
          many seconds are expired outright (TTL), regardless of the budgets.
        * ``max_entries`` / ``max_total_bytes`` — the surviving entries are
          ranked newest-first and kept while both the entry count and the
          cumulative byte size stay within budget; the cut is strict recency
          (once either budget is exhausted every older entry goes, so the kept
          set is always a newest-prefix — two pruners always agree on it).

        Entries (sample sets and evaluations together) compete in one pool;
        stale ``.tmp-*`` files left by crashed writers are removed once older
        than ``max_tmp_age_s`` (never younger — a live writer's temp file must
        survive until its ``os.replace``).  Deletion is safe under concurrent
        readers and writers: a reader that loses the race simply records a
        miss (and re-runs the deterministic call), a concurrent writer
        re-creates its entry with a fresh mtime.  Files that vanish mid-scan
        (another pruner, a concurrent corrupt-entry removal) are skipped.

        Returns ``{"kept": n, "kept_bytes": b, "removed": m,
        "removed_expired": e, "removed_tmp": t}`` (``removed`` includes the
        expired entries).
        """
        if max_entries is None and max_total_bytes is None and max_age_s is None:
            raise ValueError(
                "prune() needs at least one criterion: max_entries, "
                "max_total_bytes or max_age_s"
            )
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        if max_total_bytes is not None and max_total_bytes < 0:
            raise ValueError("max_total_bytes must be non-negative")
        if max_age_s is not None and max_age_s < 0:
            raise ValueError("max_age_s must be non-negative")
        now = time.time()
        entries: List[Tuple[float, int, Path]] = []
        removed_tmp = 0
        if self._version_dir.is_dir():
            for shard in self._version_dir.iterdir():
                if not shard.is_dir():
                    continue
                for path in shard.iterdir():
                    try:
                        stat = path.stat()
                    except OSError:
                        continue
                    mtime = stat.st_mtime
                    if path.name.endswith((_SAMPLES_SUFFIX, _EVAL_SUFFIX)):
                        entries.append((mtime, int(stat.st_size), path))
                    elif ".tmp-" in path.name and now - mtime > max_tmp_age_s:
                        try:
                            path.unlink()
                            removed_tmp += 1
                        except OSError:
                            pass
        # Newest first; ties broken by name so concurrent pruners agree.
        entries.sort(key=lambda item: (-item[0], item[2].name))
        doomed: List[Path] = []
        survivors: List[Tuple[float, int, Path]] = []
        removed_expired = 0
        for mtime, size, path in entries:
            if max_age_s is not None and now - mtime > max_age_s:
                doomed.append(path)
                removed_expired += 1
            else:
                survivors.append((mtime, size, path))
        kept = 0
        kept_bytes = 0
        over_budget = False
        for _, size, path in survivors:
            if not over_budget and (
                (max_entries is not None and kept + 1 > max_entries)
                or (max_total_bytes is not None and kept_bytes + size > max_total_bytes)
            ):
                over_budget = True
            if over_budget:
                doomed.append(path)
            else:
                kept += 1
                kept_bytes += size
        removed = 0
        for path in doomed:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return {
            "kept": kept,
            "kept_bytes": kept_bytes,
            "removed": removed,
            "removed_expired": removed_expired,
            "removed_tmp": removed_tmp,
        }
