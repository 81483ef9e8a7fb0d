"""Probes the benchmark hands to the program: timed wrappers and subclasses.

A probe times calls into one layer's public functions with
``time.perf_counter`` and, when tracing is on, opens a ``bench.*`` span around
each call, so the program's own spans (``engine.sample``, ``service.solve``,
``worker.solve``) nest under it.  A probe never changes what the wrapped
object computes or which random numbers it draws.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.problems.mvc.qubo import MVCProblem
from repro.problems.tsp.qubo import TSPProblem


class Timings:
    """Durations per probe name, safe to add to from several threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._samples: Dict[str, List[float]] = defaultdict(list)

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self._samples[name].append(seconds)

    def samples(self, name: str) -> List[float]:
        with self._lock:
            return list(self._samples.get(name, ()))

    def count(self, name: str) -> int:
        return len(self.samples(name))

    def total(self, name: str) -> float:
        return sum(self.samples(name))

    def mean_ms(self, name: str) -> float:
        values = self.samples(name)
        return 1e3 * sum(values) / len(values) if values else 0.0

    def timed(self, name: str, span: str, **attrs) -> "_Timed":
        """A context manager adding the block's duration under ``name``."""
        return _Timed(self, name, obs.span(span, **attrs))


class _Timed:
    __slots__ = ("_timings", "_name", "_span", "_started")

    def __init__(self, timings: Timings, name: str, span) -> None:
        self._timings = timings
        self._name = name
        self._span = span

    def __enter__(self) -> "_Timed":
        self._span.__enter__()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._timings.add(self._name, time.perf_counter() - self._started)
        return self._span.__exit__(*exc_info)


# ------------------------------------------------------------------ problems
@dataclass(frozen=True)
class FitnessAnswer:
    """One fitness value the program computed, kept to be checked later."""

    parameter: Optional[float]
    assignment: np.ndarray
    value: float


class _ProbedProblem:
    """Mixin timing ``build_qubo`` (relax) and keeping every ``fitness`` answer.

    The program asks for the fitness of a read only after the same thread
    relaxed the model that produced it, so each answer is tagged with that
    thread's latest relaxation parameter.
    """

    def _attach(self, timings: Timings) -> None:
        self.timings = timings
        self.fitness_answers: List[FitnessAnswer] = []
        self._relaxed = threading.local()

    def build_qubo(self, relaxation_parameter: float):
        with self.timings.timed("qubo.relax", "bench.problem.relax", n=self.num_qubo_variables):
            model = super().build_qubo(relaxation_parameter)
        self._relaxed.parameter = float(relaxation_parameter)
        return model

    def fitness(self, assignment: np.ndarray) -> float:
        value = super().fitness(assignment)
        self.fitness_answers.append(
            FitnessAnswer(
                getattr(self._relaxed, "parameter", None),
                np.array(assignment, dtype=np.int8),
                float(value),
            )
        )
        return value


class ProbedTSPProblem(_ProbedProblem, TSPProblem):
    """A TSP problem whose reference tour is computed once, in set-up."""

    def __init__(self, instance, timings: Timings) -> None:
        super().__init__(instance)
        self._attach(timings)
        self._reference: Optional[float] = None

    def reference_fitness(self) -> Optional[float]:
        if self._reference is None:
            self._reference = super().reference_fitness()
        return self._reference


class ProbedMVCProblem(_ProbedProblem, MVCProblem):
    def __init__(self, instance, timings: Timings) -> None:
        super().__init__(instance)
        self._attach(timings)


# -------------------------------------------------------------------- tuners
@dataclass
class Loop:
    """One (instance, tuner, solver) tuning loop as its tuner saw it."""

    solver: str
    method: str
    instance: str
    started: float
    trial_ends: List[float] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """From the tuner's construction to the end of its last trial."""
        return self.trial_ends[-1] - self.started if self.trial_ends else 0.0

    @property
    def trial_seconds(self) -> List[float]:
        """Each trial's suggest, evaluate and observe, end to end."""
        starts = [self.started] + self.trial_ends[:-1]
        return [end - start for start, end in zip(starts, self.trial_ends)]


class ProbedTuner:
    """Times ``suggest`` and stamps the end of every trial (``observe``)."""

    def __init__(self, inner, timings: Timings, loop: Loop) -> None:
        self._inner = inner
        self._timings = timings
        self._loop = loop

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def suggest(self, history):
        method = self._loop.method
        with self._timings.timed(f"tuning.suggest.{method}", "bench.tuner.suggest", method=method):
            return self._inner.suggest(history)

    def observe(self, trial, history) -> None:
        self._inner.observe(trial, history)
        self._loop.trial_ends.append(time.perf_counter())


def probed_factories(factories, timings: Timings, loops: List[Loop], solver: str):
    """Wrap tuner factories so that every tuner they build is probed."""

    def wrap(method, factory):
        def make(problem, bounds, rng):
            loop = Loop(solver, method, problem.name, time.perf_counter())
            loops.append(loop)
            return ProbedTuner(factory(problem, bounds, rng), timings, loop)

        return make

    return {method: wrap(method, factory) for method, factory in factories.items()}


class ProbedSurrogate:
    """Times the surrogate's ``predict`` and ``predict_pf``."""

    def __init__(self, inner, timings: Timings) -> None:
        self._inner = inner
        self._timings = timings

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def predict(self, problem, parameters):
        with self._timings.timed("core.predict", "bench.surrogate.predict"):
            return self._inner.predict(problem, parameters)

    def predict_pf(self, problem, parameters):
        with self._timings.timed("core.predict", "bench.surrogate.predict"):
            return self._inner.predict_pf(problem, parameters)


class ProbedService:
    """Times ``SolveService.evaluate``, the aggregate path the tuners use."""

    def __init__(self, inner, timings: Timings) -> None:
        self._inner = inner
        self._timings = timings

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def evaluate(self, problem, solver, parameter, num_reads, rng=None, cache=None):
        with self._timings.timed(
            "service.evaluate", "bench.service.evaluate", n=problem.num_qubo_variables
        ):
            return self._inner.evaluate(
                problem, solver, parameter, num_reads, rng=rng, cache=cache
            )
