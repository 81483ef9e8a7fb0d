"""Solver interface shared by every QUBO backend in the library.

A *solver* takes a :class:`~repro.qubo.model.QUBOModel` and returns a
:class:`~repro.qubo.sampleset.SampleSet` of ``num_reads`` stochastic reads.
Every backend is a drop-in replacement for any other, which is what lets the
experiment harness swap the simulated Digital Annealer for the Qbsolv-style
hybrid (paper Section 5.3) without touching the QROSS code.
"""

from __future__ import annotations

import abc
import hashlib
import time
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.qubo.model import QUBOModel
from repro.qubo.sampleset import SampleSet
from repro.utils.rng import RngLike, ensure_rng


class QUBOSolver(abc.ABC):
    """Abstract base class for stochastic QUBO solvers.

    :meth:`sample` is a template method: it validates ``num_reads``, resolves
    the RNG, times the call and packages the result, then delegates the actual
    search to the backend's :meth:`_sample`.  Centralising the boilerplate
    guarantees every backend validates and seeds identically — a backend can
    no longer forget ``validate_reads`` or accept a raw seed inconsistently.
    """

    #: Human-readable backend name used in sample sets and reports.
    name: str = "solver"

    def sample(
        self,
        model: QUBOModel,
        num_reads: int = 1,
        rng: RngLike = None,
    ) -> SampleSet:
        """Draw ``num_reads`` candidate assignments for ``model``."""
        started_at = time.perf_counter()
        num_reads = validate_reads(num_reads)
        rng = ensure_rng(rng)
        with obs.span("engine.sample", solver=self.name, num_reads=num_reads):
            assignments, extra_info = self._sample(model, num_reads, rng)
        self._observe_latency(started_at)
        return self._finalize(model, assignments, started_at, extra_info=extra_info)

    def _observe_latency(self, started_at: float) -> None:
        obs.histogram(
            "qross_engine_sample_seconds",
            labels={"solver": self.name},
            buckets=obs.LATENCY_BUCKETS,
            help="Wall time of one engine call (sample or sample_many)",
        ).observe(time.perf_counter() - started_at)

    def sample_many(
        self,
        models: Sequence[QUBOModel],
        num_reads: int = 1,
        rngs: Optional[Sequence[RngLike]] = None,
    ) -> list[SampleSet]:
        """Draw ``num_reads`` reads for each of ``models``, model ``k`` from ``rngs[k]``.

        Returns what ``[self.sample(m, num_reads, rng) for m, rng in
        zip(models, rngs)]`` returns, byte for byte.  ``models`` are one
        problem's relaxations and must share one size (``ValueError``
        otherwise).  A solver that :attr:`batches_models` runs them all in one
        kernel call under one ``engine.sample`` span, whose ``num_reads`` is
        the total over the models and ``num_models`` their count; any other
        solver loops :meth:`sample`.
        """
        models = list(models)
        rngs = [None] * len(models) if rngs is None else list(rngs)
        if len(rngs) != len(models):
            raise ValueError(f"need one rng per model, got {len(rngs)} for {len(models)} models")
        sizes = sorted({model.num_variables for model in models})
        if len(sizes) > 1:
            raise ValueError(f"sample_many needs models of one size, got sizes {sizes}")
        if not self.batches_models:
            return [self.sample(model, num_reads, rng) for model, rng in zip(models, rngs)]
        if not models:
            return []
        started_at = time.perf_counter()
        num_reads = validate_reads(num_reads)
        rngs = [ensure_rng(rng) for rng in rngs]
        with obs.span(
            "engine.sample",
            solver=self.name,
            num_reads=num_reads * len(models),
            num_models=len(models),
        ):
            results = self._sample_many(models, num_reads, rngs)
        self._observe_latency(started_at)
        return [
            self._finalize(model, assignments, started_at, extra_info=extra_info)
            for model, (assignments, extra_info) in zip(models, results)
        ]

    @property
    def batches_models(self) -> bool:
        """Whether :meth:`sample_many` runs all its models in one kernel call."""
        return type(self)._sample_many is not QUBOSolver._sample_many

    @abc.abstractmethod
    def _sample(
        self,
        model: QUBOModel,
        num_reads: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, Optional[dict]]:
        """Backend-specific search: return ``(assignments, extra_info)``.

        ``num_reads`` is already validated and ``rng`` is a concrete generator.
        ``assignments`` is a ``(num_reads, n)`` binary matrix; ``extra_info``
        (or ``None``) is merged into the sample set's metadata.  Energies are
        always recomputed against the exact ``model`` by the template, so a
        backend that searched a perturbed model needs no special handling.
        """

    def _sample_many(
        self,
        models: Sequence[QUBOModel],
        num_reads: int,
        rngs: Sequence[np.random.Generator],
    ) -> list[tuple[np.ndarray, Optional[dict]]]:
        """Grouped search: one ``(assignments, extra_info)`` per model.

        Overridden by solvers whose kernel runs many same-size models at once
        (see :attr:`batches_models`); entry ``k`` must equal
        ``_sample(models[k], num_reads, rngs[k])``.  Without an override,
        :meth:`sample_many` loops :meth:`sample` and never calls this.
        """
        raise NotImplementedError

    def config_fingerprint(self) -> str:
        """Stable short hash identifying this solver's configuration.

        Two solver instances of the same class with different configurations
        must fingerprint differently — cache layers key on
        ``(name, config_fingerprint)`` so their statistics never collide.  The
        default hashes the ``repr`` of the solver's ``config`` attribute
        (dataclass reprs are deterministic and cover nested schedule/config
        dataclasses); solvers with non-dataclass state should override this.
        """
        config = getattr(self, "config", None)
        payload = f"{type(self).__qualname__}:{config!r}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    # ------------------------------------------------------------ conveniences
    def sample_best(self, model: QUBOModel, num_reads: int = 1, rng: RngLike = None) -> np.ndarray:
        """Return only the lowest-energy assignment of a batch."""
        return self.sample(model, num_reads=num_reads, rng=rng).best.assignment

    def _finalize(
        self,
        model: QUBOModel,
        assignments: np.ndarray,
        started_at: float,
        rng_used: Optional[np.random.Generator] = None,
        extra_info: Optional[dict] = None,
    ) -> SampleSet:
        """Package raw assignments into a :class:`SampleSet` with energies and metadata."""
        assignments = np.asarray(assignments, dtype=np.int8)
        energies = model.energies(assignments)
        info = {"wall_time_s": time.perf_counter() - started_at, "solver": self.name}
        if extra_info:
            info.update(extra_info)
        return SampleSet(assignments, energies, solver_name=self.name, info=info)

    @staticmethod
    def _random_states(num_reads: int, num_variables: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform random binary starting states of shape ``(num_reads, n)``."""
        return rng.integers(0, 2, size=(num_reads, num_variables), dtype=np.int8)


def validate_reads(num_reads: int) -> int:
    """Validate the requested batch size."""
    num_reads = int(num_reads)
    if num_reads <= 0:
        raise ValueError(f"num_reads must be positive, got {num_reads}")
    return num_reads
