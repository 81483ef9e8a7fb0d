"""QUBO relaxation of weighted Minimum Vertex Cover (paper Appendix B).

The relaxation is ``sum_i w_i x_i + sigma * sum_{(i,j) in E} (1 - x_i - x_j + x_i x_j)``
where ``sigma`` is the penalty weight.  Any ``sigma > max_i w_i`` makes every
optimal QUBO solution a feasible cover in exact arithmetic; Appendix B shows
that on real (noisy / finite-precision) solvers, pushing ``sigma`` far beyond
that threshold degrades solution quality — which is what Fig. 6 measures.

Both the objective and the penalty are accumulated as COO triplets (one
vectorised append per term family, no Python loop over edges) and each model
picks its storage from its coefficients, so a large sparse graph encodes
straight to CSR without ever allocating a dense ``n x n`` array.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.problems.base import ConstrainedProblem
from repro.problems.mvc.instance import MVCInstance
from repro.qubo.expression import QUBOAccumulator, RelaxedEncoding


class MVCProblem(ConstrainedProblem):
    """Penalty-relaxed QUBO view of a weighted MVC instance.

    Parameters
    ----------
    instance:
        The MVC instance to relax.

    Each encoded QUBO picks its own storage (see
    :class:`~repro.qubo.model.QUBOModel`): from 512 vertices on, the diagonal
    objective is CSR, and so are the penalty and relaxed models of graphs with
    edge density below about 0.10.
    """

    def __init__(self, instance: MVCInstance) -> None:
        self.instance = instance
        self.name = instance.name

    # ------------------------------------------------------------------ QUBO
    @property
    def num_qubo_variables(self) -> int:
        return self.instance.num_vertices

    def _encode(self) -> RelaxedEncoding:
        n = self.instance.num_vertices
        weights = np.asarray(self.instance.weights, dtype=np.float64)
        edges = self.instance.edges()

        # Objective ``sum_i w_i x_i`` on the diagonal.
        objective = (
            QUBOAccumulator(n)
            .add_linear(np.arange(n), weights)
            .build(name=f"{self.name}-objective")
        )

        # Penalty ``sum_{(i,j) in E} (1 - x_i - x_j + x_i x_j)``: zero iff
        # every edge is covered.  One vectorised append per term family.
        accumulator = QUBOAccumulator(n)
        if edges.size:
            accumulator.add_linear(edges[:, 0], -1.0)
            accumulator.add_linear(edges[:, 1], -1.0)
            accumulator.add_quadratic(edges[:, 0], edges[:, 1], 1.0)
        penalty = accumulator.build(offset=float(edges.shape[0]), name=f"{self.name}-penalty")
        return RelaxedEncoding(objective=objective, penalty=penalty, name=self.name)

    # ------------------------------------------------------------- solutions
    def is_feasible(self, assignment: np.ndarray) -> bool:
        return self.instance.is_vertex_cover(assignment)

    def fitness(self, assignment: np.ndarray) -> float:
        if not self.is_feasible(assignment):
            raise ValueError("assignment is not a vertex cover")
        return self.instance.cover_weight(assignment)

    # -------------------------------------------------------------- metadata
    def relaxation_scale(self) -> float:
        """The feasibility threshold ``max_i w_i`` (Appendix B)."""
        return float(self.instance.weights.max())

    def reference_fitness(self) -> Optional[float]:
        from repro.problems.mvc.heuristics import best_known_cover_weight

        return best_known_cover_weight(self.instance)
