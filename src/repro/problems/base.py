"""Interface every penalty-relaxed problem exposes to solvers and to QROSS.

A :class:`ConstrainedProblem` bundles three things:

* how to *encode* itself as a frozen :class:`~repro.qubo.expression.RelaxedEncoding`
  (the pair ``H_B``, ``H_A``) from which the relaxed QUBO ``H_B + A * H_A`` is
  composed lazily for any relaxation parameter ``A``,
* how to check feasibility of a raw binary assignment returned by a solver, and
* how to score a feasible assignment with the *original* objective ("fitness").

QROSS, the baseline tuners and the experiment harness only talk to this
interface, so adding a new problem class (the paper mentions QAP, vehicle
routing, resource allocation) only requires implementing it.  Subclasses
implement :meth:`_encode`, building the objective and penalty through a
:class:`~repro.qubo.expression.QUBOAccumulator` so large sparse instances
never densify.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.qubo.expression import RelaxedEncoding
from repro.qubo.model import QUBOModel


class ConstrainedProblem(abc.ABC):
    """A constrained combinatorial problem with a penalty-based QUBO relaxation."""

    #: Human-readable instance name used in datasets and reports.
    name: str = "problem"

    # ------------------------------------------------------------------ QUBO
    @property
    @abc.abstractmethod
    def num_qubo_variables(self) -> int:
        """Number of binary variables of the relaxed QUBO."""

    def encode(self) -> RelaxedEncoding:
        """The cached ``(H_B, H_A)`` encoding of this instance.

        Built once on first use via :meth:`_encode`; every relaxation, solver
        call and feature extraction shares the same encoding, and the
        evaluation cache keys on its fingerprint without materialising any
        relaxed model.
        """
        cached = getattr(self, "_cached_encoding", None)
        if cached is None:
            cached = self._encode()
            self._cached_encoding = cached
        return cached

    @abc.abstractmethod
    def _encode(self) -> RelaxedEncoding:
        """Build the ``(H_B, H_A)`` encoding (called once, by :meth:`encode`)."""

    def build_qubo(self, relaxation_parameter: float) -> QUBOModel:
        """Relaxed QUBO ``H_B + A * H_A`` for the given parameter (lazily cached)."""
        return self.encode().relax(relaxation_parameter)

    # ------------------------------------------------------------- solutions
    @abc.abstractmethod
    def is_feasible(self, assignment: np.ndarray) -> bool:
        """Whether a binary assignment encodes a feasible solution."""

    @abc.abstractmethod
    def fitness(self, assignment: np.ndarray) -> float:
        """Original objective value of a *feasible* assignment (lower is better)."""

    # -------------------------------------------------------------- metadata
    @abc.abstractmethod
    def relaxation_scale(self) -> float:
        """Natural magnitude of the relaxation parameter for this instance.

        Used to normalise ``A`` across instances before it is fed to the
        surrogate (paper Section 3.3, "shifting or scaling moves A of different
        problems to the same order of magnitude").
        """

    def reference_fitness(self) -> Optional[float]:
        """Best-known objective value, if available (used for optimality gaps)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r}, n={self.num_qubo_variables})"
