"""The outcome log: what each solver achieved on each instance, durably.

An :class:`OutcomeLog` is an append-only JSONL file (or a purely in-memory
list) of :class:`OutcomeRecord` lines.  Each record pairs an instance's
*model-level* feature vector (:func:`~repro.core.features.model_feature_vector`
— the portfolio sees relaxed QUBOs, not problems) with one solver spec, the
budget it ran under, the best energy it reached and — when a best-energy
trajectory was available — the budget position at which it first reached the
target.  :class:`~repro.portfolio.strategies.ModelingStrategy` fits its
per-spec success model from these records.

Appends are atomic at the line level: each record is one ``os.write`` on an
``O_APPEND`` descriptor, so concurrent appenders (threads or processes
sharing the file) interleave whole lines, never fragments.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.features import model_feature_vector
from repro.portfolio.members import slice_solver, split_member_list
from repro.utils.rng import spawn_rngs

#: Format marker written into every line; bump on incompatible field changes.
RECORD_VERSION = 1


@dataclass(frozen=True)
class OutcomeRecord:
    """One (instance, solver) outcome.

    :func:`harvest_outcomes` produces them from full-budget runs with
    trajectories: the portfolio model's training data.
    """

    instance: str
    features: Tuple[float, ...]
    solver_spec: str
    budget: Optional[float]
    best_energy: Optional[float]
    time_to_target: Optional[float] = None
    target_energy: Optional[float] = None
    num_reads: int = 1
    seed: Optional[int] = None
    relaxation_parameter: Optional[float] = None
    wall_time_s: Optional[float] = None

    def to_json(self) -> str:
        payload = asdict(self)
        payload["features"] = [float(value) for value in self.features]
        payload["version"] = RECORD_VERSION
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "OutcomeRecord":
        payload = json.loads(line)
        if not isinstance(payload, dict):
            raise ValueError(f"outcome record line is not an object: {line!r}")
        payload.pop("version", None)
        known = {f for f in cls.__dataclass_fields__}  # tolerate future fields
        payload = {key: value for key, value in payload.items() if key in known}
        payload["features"] = tuple(float(v) for v in payload.get("features", ()))
        return cls(**payload)


class OutcomeLog:
    """Append-only store of :class:`OutcomeRecord` lines.

    ``path=None`` keeps the log purely in memory; with a path, existing
    records are loaded eagerly and every append is written through with an
    atomic single-``write`` line append.
    """

    def __init__(self, path: "str | os.PathLike | None" = None) -> None:
        self.path = None if path is None else str(path)
        self._lock = threading.Lock()
        self._records: List[OutcomeRecord] = []
        if self.path is not None and os.path.exists(self.path):
            self._records = list(_read_records(self.path))

    # ----------------------------------------------------------------- writing
    def append(self, record: OutcomeRecord) -> None:
        line = record.to_json() + "\n"
        with self._lock:
            if self.path is not None:
                fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
                try:
                    os.write(fd, line.encode("utf-8"))
                finally:
                    os.close(fd)
            self._records.append(record)

    def extend(self, records: Iterable[OutcomeRecord]) -> None:
        for record in records:
            self.append(record)

    # ----------------------------------------------------------------- reading
    @property
    def records(self) -> Tuple[OutcomeRecord, ...]:
        with self._lock:
            return tuple(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[OutcomeRecord]:
        return iter(self.records)

    def instances(self) -> Tuple[str, ...]:
        """Distinct instance names, in first-appearance order."""
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.instance, None)
        return tuple(seen)

    def for_specs(self, specs: Sequence[str]) -> "OutcomeLog":
        """In-memory sub-log keeping only records of the given solver specs."""
        wanted = set(specs)
        out = OutcomeLog()
        out.extend(r for r in self.records if r.solver_spec in wanted)
        return out

    # --------------------------------------------------------------- factories
    @classmethod
    def load(cls, path: "str | os.PathLike") -> "OutcomeLog":
        """Load a JSONL log from disk (missing file -> empty log bound to it)."""
        return cls(path)

    @classmethod
    def merge(cls, *logs: "OutcomeLog") -> "OutcomeLog":
        """In-memory concatenation of several logs, in argument order."""
        out = cls()
        for log in logs:
            out.extend(log.records)
        return out

    def train_test_split(
        self, test_fraction: float = 0.25, seed: int = 0
    ) -> Tuple["OutcomeLog", "OutcomeLog"]:
        """Deterministic split *by instance* (no leakage across the cut).

        Instances are shuffled with ``default_rng(seed)`` and the last
        ``test_fraction`` of them become the test log; all records of one
        instance land on the same side.
        """
        if not 0.0 <= test_fraction <= 1.0:
            raise ValueError("test_fraction must be in [0, 1]")
        names = sorted(self.instances())
        order = np.random.default_rng(seed).permutation(len(names))
        num_test = int(round(test_fraction * len(names)))
        test_names = {names[i] for i in order[len(names) - num_test :]}
        train, test = OutcomeLog(), OutcomeLog()
        for record in self.records:
            (test if record.instance in test_names else train).append(record)
        return train, test


def _read_records(path: str) -> Iterator[OutcomeRecord]:
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield OutcomeRecord.from_json(line)
            except (ValueError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{number}: malformed outcome record: {exc}"
                ) from exc


# ------------------------------------------------------------------ producers
def time_to_target(
    samples, target: float, budget: float, tolerance: float = 1e-9
) -> Optional[float]:
    """Budget units until a batch first reached ``target`` (``None`` = never).

    When the sample set carries a ``best_energy_trajectory`` (one entry per
    sweep/step), the crossing point is located within the run; otherwise a
    successful run is charged its full ``budget``.
    """
    tol = tolerance * max(1.0, abs(float(target)))
    best = float(np.min(samples.energies))
    if best > target + tol:
        return None
    trajectory = samples.info.get("best_energy_trajectory")
    if trajectory:
        for index, energy in enumerate(trajectory):
            if float(energy) <= target + tol:
                return float(index + 1)
    return float(budget)


def harvest_outcomes(
    problems: Sequence,
    members,
    budget: int,
    num_reads: int = 1,
    seed: int = 0,
    relaxation_parameter: Optional[float] = None,
    targets: Optional[Mapping[str, float]] = None,
    tolerance: float = 1e-9,
    log: Optional[OutcomeLog] = None,
    service=None,
) -> OutcomeLog:
    """Run every member at the full budget on every problem and log outcomes.

    This is how a portfolio's training data is produced: each (instance,
    member) pair runs once with a seeded child stream and a trajectory-enabled
    config, and its record carries the best energy plus the time-to-target
    against ``targets[instance]`` (or, by default, the best energy any member
    reached on that instance — the self-relative target).

    ``relaxation_parameter=None`` uses each problem's ``relaxation_scale()``.
    ``service`` optionally routes the solves through a
    :class:`~repro.service.service.SolveService` (thread/process/remote fan
    out); the default runs them inline.  Either way results are seeded and
    deterministic.
    """
    from repro.service.registry import make_solver
    from repro.service.requests import SolveRequest

    specs = split_member_list(members)
    log = log if log is not None else OutcomeLog()
    streams = spawn_rngs(seed, len(problems) * len(specs))
    runs = []
    stream_index = 0
    for problem in problems:
        parameter = (
            float(problem.relaxation_scale())
            if relaxation_parameter is None
            else float(relaxation_parameter)
        )
        model = problem.build_qubo(parameter)
        features = tuple(float(v) for v in model_feature_vector(model))
        for spec in specs:
            solver = slice_solver(make_solver(spec), budget)
            child_seed = int(streams[stream_index].integers(0, 2**63 - 1))
            stream_index += 1
            if service is not None:
                request = SolveRequest(
                    model=model, solver=solver, num_reads=num_reads, seed=child_seed
                )
                samples = service.submit(request).result().samples
            else:
                samples = solver.sample(
                    model, num_reads, rng=np.random.default_rng(child_seed)
                )
            runs.append((problem, parameter, features, spec, child_seed, samples))

    best_seen: Dict[str, float] = {}
    for problem, _, _, _, _, samples in runs:
        best = float(np.min(samples.energies))
        best_seen[problem.name] = min(best_seen.get(problem.name, best), best)

    for problem, parameter, features, spec, child_seed, samples in runs:
        target = (
            float(targets[problem.name])
            if targets is not None and problem.name in targets
            else best_seen[problem.name]
        )
        log.append(
            OutcomeRecord(
                instance=problem.name,
                features=features,
                solver_spec=spec,
                budget=float(budget),
                best_energy=float(np.min(samples.energies)),
                time_to_target=time_to_target(samples, target, budget, tolerance),
                target_energy=target,
                num_reads=num_reads,
                seed=child_seed,
                relaxation_parameter=parameter,
                wall_time_s=samples.info.get("wall_time_s"),
            )
        )
    return log
