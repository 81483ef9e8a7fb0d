"""Containers for batches of solver reads (samples).

A stochastic QUBO solver returns a *batch* of candidate assignments per call.
:class:`SampleSet` stores the assignments together with their QUBO energies and
provides the aggregate statistics QROSS learns from: probability of feasibility,
mean / standard deviation of the feasible objective energies, and the batch
minimum fitness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class SampleRecord:
    """One solver read: a binary assignment, its QUBO energy and occurrence count."""

    assignment: np.ndarray
    energy: float
    num_occurrences: int = 1


class SampleSet:
    """Batch of solver reads with convenience statistics.

    The set keeps energy-sorted, read-only copies of the three arrays; copy
    one (``samples.assignments.copy()``) before editing it.

    Parameters
    ----------
    assignments:
        Binary matrix of shape ``(batch, n)``.
    energies:
        QUBO energies of each row, shape ``(batch,)``.
    num_occurrences:
        Optional per-row multiplicities (defaults to 1).
    solver_name:
        Label of the solver that produced the batch.
    info:
        Free-form metadata (wall-clock time, sweeps, ...).
    """

    def __init__(
        self,
        assignments: np.ndarray,
        energies: np.ndarray,
        num_occurrences: Optional[np.ndarray] = None,
        solver_name: str = "",
        info: Optional[dict] = None,
    ) -> None:
        assignments = np.asarray(assignments, dtype=np.int8)
        energies = np.asarray(energies, dtype=np.float64)
        if assignments.ndim != 2:
            raise ValueError(f"assignments must be 2-D, got shape {assignments.shape}")
        if energies.shape != (assignments.shape[0],):
            raise ValueError(
                f"energies shape {energies.shape} does not match batch size {assignments.shape[0]}"
            )
        if num_occurrences is None:
            num_occurrences = np.ones(assignments.shape[0], dtype=np.int64)
        num_occurrences = np.asarray(num_occurrences, dtype=np.int64)
        if num_occurrences.shape != (assignments.shape[0],):
            raise ValueError("num_occurrences must have one entry per sample")
        if num_occurrences.size and num_occurrences.min() < 1:
            # Zero or negative multiplicities poison every occurrence-weighted
            # statistic (division by zero / NaN means), so reject them here.
            raise ValueError("num_occurrences entries must all be >= 1")
        order = np.argsort(energies, kind="stable")
        self._assignments = assignments[order]
        self._energies = energies[order]
        self._num_occurrences = num_occurrences[order]
        # The sorted copies are the set's own, and the service's dedup cache
        # hands one set to every identical seeded request: freeze them so no
        # caller can edit what the next one receives.
        for array in (self._assignments, self._energies, self._num_occurrences):
            array.flags.writeable = False
        self.solver_name = solver_name
        self.info = dict(info or {})

    # ----------------------------------------------------------------- access
    @property
    def assignments(self) -> np.ndarray:
        return self._assignments

    @property
    def energies(self) -> np.ndarray:
        return self._energies

    @property
    def num_occurrences(self) -> np.ndarray:
        return self._num_occurrences

    @property
    def num_samples(self) -> int:
        return int(self._assignments.shape[0])

    @property
    def num_variables(self) -> int:
        return int(self._assignments.shape[1])

    def __len__(self) -> int:
        return self.num_samples

    def __iter__(self) -> Iterator[SampleRecord]:
        for row, energy, occ in zip(self._assignments, self._energies, self._num_occurrences):
            yield SampleRecord(assignment=row.copy(), energy=float(energy), num_occurrences=int(occ))

    @property
    def best(self) -> SampleRecord:
        """Lowest-energy read in the batch."""
        if self.num_samples == 0:
            raise ValueError("sample set is empty")
        return SampleRecord(
            assignment=self._assignments[0].copy(),
            energy=float(self._energies[0]),
            num_occurrences=int(self._num_occurrences[0]),
        )

    # ------------------------------------------------------------- statistics
    def feasibility_mask(self, is_feasible: Callable[[np.ndarray], bool]) -> np.ndarray:
        """Boolean mask of reads accepted by ``is_feasible``."""
        return np.array([bool(is_feasible(row)) for row in self._assignments], dtype=bool)

    def probability_of_feasibility(self, is_feasible: Callable[[np.ndarray], bool]) -> float:
        """Fraction of reads that are feasible (paper Eq. 1), weighted by occurrences."""
        if self.num_samples == 0:
            return 0.0
        mask = self.feasibility_mask(is_feasible)
        total = float(self._num_occurrences.sum())
        return float(self._num_occurrences[mask].sum()) / total

    def feasible_fitnesses(
        self,
        is_feasible: Callable[[np.ndarray], bool],
        fitness: Callable[[np.ndarray], float],
    ) -> np.ndarray:
        """Original-problem objective values of the feasible reads."""
        mask = self.feasibility_mask(is_feasible)
        return np.array([float(fitness(row)) for row in self._assignments[mask]], dtype=np.float64)

    def energy_statistics(self) -> tuple[float, float]:
        """Occurrence-weighted ``(mean, std)`` of the batch energies."""
        if self.num_samples == 0:
            raise ValueError("sample set is empty")
        weights = self._num_occurrences.astype(np.float64)
        mean = float(np.average(self._energies, weights=weights))
        var = float(np.average((self._energies - mean) ** 2, weights=weights))
        return mean, float(np.sqrt(var))

    # ------------------------------------------------------------------ tools
    def truncated(self, max_samples: int) -> "SampleSet":
        """Return a new set keeping only the ``max_samples`` lowest-energy reads."""
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        k = min(max_samples, self.num_samples)
        return SampleSet(
            self._assignments[:k],
            self._energies[:k],
            self._num_occurrences[:k],
            solver_name=self.solver_name,
            info=dict(self.info),
        )

    def to_wire(self) -> tuple[dict, tuple[np.ndarray, ...]]:
        """Header + raw numpy buffers for the cross-process wire format.

        The three arrays ship verbatim (the set is already energy-sorted, and
        re-sorting on reconstruction is stable, so round-trips are
        byte-identical).  ``info`` travels in the JSON header — values must be
        JSON-representable after the wire module's scalar coercion.
        """
        header = {"solver_name": self.solver_name, "info": self.info}
        return header, (self._assignments, self._energies, self._num_occurrences)

    @classmethod
    def from_wire(cls, header: dict, buffers: Sequence[np.ndarray]) -> "SampleSet":
        """Rebuild a sample set from :meth:`to_wire` output."""
        assignments, energies, num_occurrences = buffers
        return cls(
            assignments,
            energies,
            num_occurrences,
            solver_name=str(header.get("solver_name", "")),
            info=dict(header.get("info") or {}),
        )

    @classmethod
    def concatenate(cls, sample_sets: Sequence["SampleSet"]) -> "SampleSet":
        """Merge several batches (from repeated solver calls) into one.

        Metadata is merged rather than dropped: wall-clock times accumulate
        (the merged batch cost the sum of its parts) while any other key keeps
        the first set's value.
        """
        sets = [s for s in sample_sets if s.num_samples > 0]
        if not sets:
            raise ValueError("nothing to concatenate")
        n = sets[0].num_variables
        if any(s.num_variables != n for s in sets):
            raise ValueError("sample sets must share the same number of variables")
        info: dict = {}
        for s in sets:
            for key, value in s.info.items():
                if key == "wall_time_s":
                    info[key] = info.get(key, 0.0) + float(value)
                elif key not in info:
                    info[key] = value
        return cls(
            np.concatenate([s.assignments for s in sets], axis=0),
            np.concatenate([s.energies for s in sets], axis=0),
            np.concatenate([s.num_occurrences for s in sets], axis=0),
            solver_name=sets[0].solver_name,
            info=info,
        )
