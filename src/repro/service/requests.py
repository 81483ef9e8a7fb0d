"""Request / response types of the solve service.

A :class:`SolveRequest` is everything needed to reproduce one solver call:
the QUBO (given directly, or as a problem plus relaxation parameter), the
solver (a registry spec or an instance), the batch size and an optional seed.
A :class:`SolveResult` pairs the request with the :class:`SampleSet` it
produced plus provenance (solver fingerprint, whether the cache served it).

Both are frozen: a request can be hashed into a cache key, retried, or
shipped to a worker without aliasing surprises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.problems.base import ConstrainedProblem
from repro.qubo.model import QUBOModel
from repro.qubo.sampleset import SampleRecord, SampleSet
from repro.solvers.base import QUBOSolver, validate_reads
from repro.utils.validation import check_positive


@dataclass(frozen=True, eq=False)
class SolveRequest:
    """One solver call: model-or-problem + solver spec + reads + seed.

    Parameters
    ----------
    model:
        The QUBO to solve.  Mutually exclusive with ``problem``.
    problem:
        A constrained problem; the QUBO is built as
        ``problem.build_qubo(relaxation_parameter)``.
    relaxation_parameter:
        Required with ``problem``; the penalty weight ``A`` (finite, > 0).
    solver:
        Registry spec string (``"da"``, ``"tabu?tenure=16"``) or an existing
        :class:`QUBOSolver` instance.
    num_reads:
        Batch size of the call.
    seed:
        ``None`` draws a seed from the service's root generator when the
        request is submitted; a non-negative ``int`` makes the request fully
        deterministic (and thereby cacheable): the result is byte-identical
        to ``solver.sample(model, num_reads, rng=np.random.default_rng(seed))``.
    label:
        Free-form tag carried through to the result (for callers correlating
        batched submissions).
    """

    solver: Union[str, QUBOSolver] = "sa"
    model: Optional[QUBOModel] = None
    problem: Optional[ConstrainedProblem] = None
    relaxation_parameter: Optional[float] = None
    num_reads: int = 1
    seed: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        if (self.model is None) == (self.problem is None):
            raise ValueError("provide exactly one of model= or problem=")
        if self.problem is not None and self.relaxation_parameter is None:
            raise ValueError("relaxation_parameter is required with problem=")
        if self.model is not None and self.relaxation_parameter is not None:
            raise ValueError("relaxation_parameter only applies with problem=")
        if self.problem is not None:
            check_positive(self.relaxation_parameter, "relaxation_parameter")
        validate_reads(self.num_reads)
        if self.seed is not None:
            if not isinstance(self.seed, (int, np.integer)):
                raise ValueError(f"seed must be an int or None, got {self.seed!r}")
            if self.seed < 0:
                raise ValueError(f"seed must be non-negative, got {self.seed}")

    def resolve_model(self) -> QUBOModel:
        """The QUBO this request solves (building it from the problem if needed).

        Problem-based requests materialise through the problem's cached
        :class:`~repro.qubo.expression.RelaxedEncoding`, so concurrent requests
        at the same relaxation parameter share one composed model.
        """
        if self.model is not None:
            return self.model
        return self.problem.build_qubo(float(self.relaxation_parameter))


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of one :class:`SolveRequest`.

    ``from_cache`` marks a seeded result served from the service's cache
    without running the solver.
    """

    request: SolveRequest
    samples: SampleSet
    solver_name: str
    solver_fingerprint: str
    from_cache: bool = False

    # --------------------------------------------------------------- shortcuts
    @property
    def best(self) -> SampleRecord:
        """Lowest-energy read of the batch."""
        return self.samples.best

    @property
    def best_energy(self) -> float:
        return float(self.samples.best.energy)

    @property
    def best_assignment(self) -> np.ndarray:
        return self.samples.best.assignment

    @property
    def energies(self) -> np.ndarray:
        return self.samples.energies

    @property
    def num_samples(self) -> int:
        return self.samples.num_samples
