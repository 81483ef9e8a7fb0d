"""Output checks.  A failed check fails the operation it belongs to."""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np


class Checks:
    """Operations attempted and failed, with the first few reasons."""

    MAX_REASONS = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def op(self, label: str, problems: Sequence[str]) -> None:
        """Count one operation; ``problems`` says what was wrong with it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self._note(f"{label}: {'; '.join(problems)}")

    def raised(self, label: str, exc: BaseException) -> None:
        """A step that raised is one failed operation."""
        self.attempted += 1
        self.failed += 1
        self._note(f"{label}: raised {type(exc).__name__}: {exc}")

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for reason in other.reasons:
            self._note(reason)

    def _note(self, reason: str) -> None:
        if len(self.reasons) < self.MAX_REASONS:
            self.reasons.append(reason)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def tsp_tour_length(distances: np.ndarray, assignment: np.ndarray) -> Optional[float]:
    """Length of the tour a one-hot assignment encodes; None if it is no tour."""
    cities = distances.shape[0]
    x = np.asarray(assignment).reshape(cities, cities)
    if not (
        np.all((x == 0) | (x == 1))
        and np.all(x.sum(axis=0) == 1)
        and np.all(x.sum(axis=1) == 1)
    ):
        return None
    tour = np.argmax(x, axis=0)
    return float(distances[tour, np.roll(tour, -1)].sum())


def tsp_feasible_fraction(cities: int, samples) -> float:
    """Occurrence-weighted share of a sample set's reads that encode a tour."""
    x = samples.assignments.reshape(-1, cities, cities)
    tours = np.all(x.sum(axis=1) == 1, axis=1) & np.all(x.sum(axis=2) == 1, axis=1)
    weights = samples.num_occurrences
    return float(weights[tours].sum() / weights.sum())


def mvc_cover_weight(
    edges: np.ndarray, weights: np.ndarray, assignment: np.ndarray
) -> Optional[float]:
    """Weight of the vertex cover an assignment selects; None if it is no cover."""
    x = np.asarray(assignment)
    if not np.all((x == 0) | (x == 1)):
        return None
    chosen = x.astype(bool)
    if edges.size and not np.all(chosen[edges[:, 0]] | chosen[edges[:, 1]]):
        return None
    return float(weights[chosen].sum())


def same_bytes(first, second) -> bool:
    """Whether two sample sets hold byte-identical reads, energies and counts."""
    pairs = (
        (first.assignments, second.assignments),
        (first.energies, second.energies),
        (first.num_occurrences, second.num_occurrences),
    )
    return all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in pairs
    )


def gap_curve_problems(gaps) -> List[str]:
    """A gap curve must lie in [0, 1] and never increase."""
    gaps = np.asarray(gaps, dtype=np.float64)
    problems = []
    if gaps.size == 0:
        problems.append("empty gap curve")
    elif np.any(gaps < 0.0) or np.any(gaps > 1.0):
        problems.append(f"gap outside [0, 1]: {gaps.tolist()}")
    if gaps.size > 1 and np.any(np.diff(gaps) > 0.0):
        problems.append(f"gap curve increases: {gaps.tolist()}")
    return problems


def _key(parameter: float) -> str:
    # The program's evaluation cache keys A to nine significant digits, so a
    # cached answer may come from an A equal to this one at that precision.
    return f"{float(parameter):.9g}"


class FitnessIndex:
    """The fitness answers the program gave for one problem, re-derived here.

    ``objective(assignment)`` is the benchmark's own objective of a feasible
    assignment, or None for an infeasible one.  An answer for an infeasible
    read, or with another value, is bad; good values are indexed by the
    relaxation parameter they were computed at.
    """

    def __init__(self, problem, objective: Callable[[np.ndarray], Optional[float]]) -> None:
        self.answers = len(problem.fitness_answers)
        self.bad: List[str] = []
        self.good: Dict[str, List[float]] = {}
        for answer in problem.fitness_answers:
            expected = objective(answer.assignment)
            if expected is None:
                self.bad.append(f"fitness of an infeasible read at A={answer.parameter!r}")
            elif not close(expected, answer.value):
                self.bad.append(f"fitness {answer.value!r} but objective {expected!r}")
            elif answer.parameter is not None:
                self.good.setdefault(_key(answer.parameter), []).append(answer.value)

    def evaluation_problems(
        self, parameter: float, pf: float, best_fitness: Optional[float]
    ) -> List[str]:
        """What is wrong with one reported ``(Pf, best fitness)`` at ``parameter``."""
        problems = []
        if not 0.0 <= pf <= 1.0:
            problems.append(f"Pf {pf!r} outside [0, 1]")
        if best_fitness is None:
            if pf > 0.0:
                problems.append("feasible reads but no best fitness")
        elif pf <= 0.0:
            problems.append("a best fitness without a feasible read")
        elif not any(close(best_fitness, value) for value in self.good.get(_key(parameter), ())):
            problems.append(
                f"best fitness {best_fitness!r} at A={parameter!r} is not the "
                f"objective of a feasible read"
            )
        return problems
