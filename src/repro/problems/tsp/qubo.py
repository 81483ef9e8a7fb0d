"""QUBO relaxation of the TSP (Lucas 2014 formulation, paper Eqs. 4-6).

An ``n``-city instance uses ``n^2`` binary variables ``x[v, j]`` ("city ``v``
is visited at position ``j``").  The relaxed QUBO is ``H_B + A * H_A`` with

* ``H_B = sum_{u != v} d_uv sum_j x[u, j] x[v, j+1]`` — the tour length, and
* ``H_A = sum_v (1 - sum_j x[v, j])^2 + sum_j (1 - sum_v x[v, j])^2`` — the
  permutation constraints,

where position indices wrap around (``j + 1`` is taken modulo ``n``).
Variable ``x[v, j]`` is flattened to index ``v * n + j``.

``H_B`` is accumulated as COO triplets (no ``n^2 x n^2`` Kronecker product)
and the permutation constraints are built as a sparse ``C`` whose penalty
``C^T C`` is computed sparsely — a TSP instance encodes in ``O(n^3)`` memory
instead of ``O(n^4)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse

from repro.problems.base import ConstrainedProblem
from repro.problems.tsp.instance import TSPInstance
from repro.problems.tsp.preprocessing import MVODMResult, minimise_distance_variance
from repro.qubo.builder import LinearConstraints
from repro.qubo.expression import QUBOAccumulator, RelaxedEncoding
from repro.qubo.model import QUBOModel


def decode_assignment(assignment: np.ndarray, num_cities: int) -> Optional[np.ndarray]:
    """Decode a flat binary assignment into a tour, or ``None`` if infeasible.

    The assignment is feasible when every city occupies exactly one position
    and every position holds exactly one city (a permutation matrix).  Raises
    ``ValueError`` on a wrong-length or non-binary assignment.
    """
    assignment = np.asarray(assignment)
    expected = num_cities * num_cities
    if assignment.size != expected:
        raise ValueError(
            f"assignment must have num_cities**2 = {expected} entries "
            f"(one per city/position pair), got {assignment.size}"
        )
    x = assignment.reshape(num_cities, num_cities)
    if not np.all((x == 0) | (x == 1)):
        raise ValueError("assignment must be binary")
    if not np.all(x.sum(axis=0) == 1) or not np.all(x.sum(axis=1) == 1):
        return None
    # Column j holds exactly one 1; its row index is the city visited at j.
    return np.argmax(x, axis=0).astype(np.int64)


def assignment_from_tour(tour: np.ndarray, num_cities: int) -> np.ndarray:
    """Inverse of :func:`decode_assignment`: one-hot encode a tour."""
    tour = np.asarray(tour, dtype=np.int64)
    if sorted(tour.tolist()) != list(range(num_cities)):
        raise ValueError("tour must be a permutation of all cities")
    x = np.zeros((num_cities, num_cities), dtype=np.int8)
    x[tour, np.arange(num_cities)] = 1
    return x.reshape(-1)


class TSPProblem(ConstrainedProblem):
    """Penalty-relaxed QUBO view of a :class:`TSPInstance`.

    Parameters
    ----------
    instance:
        The TSP instance to relax.
    use_mvodm_preprocessing:
        Apply Minimising-the-Variance-Of-the-Distance-Matrix preprocessing
        (paper Appendix E) before building ``H_B``.  Fitness values are always
        reported against the *original* distances.

    The encoded QUBOs pick their own storage (see :class:`QUBOModel`): up to
    22 cities all are dense; from 23 cities ``H_B`` and ``H_A`` are CSR, and
    from 40 cities so is their relaxed sum.
    """

    def __init__(self, instance: TSPInstance, use_mvodm_preprocessing: bool = False) -> None:
        self.instance = instance
        self.name = instance.name
        self.use_mvodm_preprocessing = use_mvodm_preprocessing
        self._mvodm: Optional[MVODMResult] = None
        working = instance
        if use_mvodm_preprocessing:
            self._mvodm = minimise_distance_variance(instance)
            working = self._mvodm.transformed_instance
        self._working_instance = working

    # ------------------------------------------------------------------ QUBO
    @property
    def num_cities(self) -> int:
        return self.instance.num_cities

    @property
    def num_qubo_variables(self) -> int:
        return self.num_cities**2

    def _encode(self) -> RelaxedEncoding:
        objective = self._objective_qubo()
        penalty = self._constraints().penalty_qubo()
        return RelaxedEncoding(objective=objective, penalty=penalty, name=self.name)

    def _objective_qubo(self) -> QUBOModel:
        """``H_B``: one COO triplet per ``(u, v, position)``, no Kronecker product."""
        n = self.num_cities
        distances = np.asarray(self._working_instance.distances, dtype=np.float64)
        u, v = np.nonzero(distances)
        positions = np.arange(n, dtype=np.int64)
        rows = (u[:, None] * n + positions[None, :]).ravel()
        cols = (v[:, None] * n + (positions[None, :] + 1) % n).ravel()
        vals = np.repeat(distances[u, v], n)
        accumulator = QUBOAccumulator(n * n).add_quadratic(rows, cols, vals)
        return accumulator.build(name=f"{self.name}-objective")

    def _constraints(self) -> LinearConstraints:
        """Permutation constraints: each city once, each position once.

        Built directly in sparse COO form — ``C`` is ``2n x n^2`` with
        ``2 n^2`` ones (each variable appears in exactly two constraints).
        """
        n = self.num_cities
        variables = np.arange(n * n, dtype=np.int64)
        city_rows = variables // n  # constraint row v covers x[v, :]
        position_rows = n + variables % n  # constraint row n + j covers x[:, j]
        rows = np.concatenate([city_rows, position_rows])
        cols = np.concatenate([variables, variables])
        data = np.ones(rows.shape[0], dtype=np.float64)
        C = sparse.coo_array((data, (rows, cols)), shape=(2 * n, n * n)).tocsr()
        return LinearConstraints(C=C, d=np.ones(2 * n))

    # ------------------------------------------------------------- solutions
    def decode(self, assignment: np.ndarray) -> Optional[np.ndarray]:
        """Tour encoded by ``assignment`` or ``None`` when infeasible."""
        return decode_assignment(assignment, self.num_cities)

    def is_feasible(self, assignment: np.ndarray) -> bool:
        return self.decode(assignment) is not None

    def fitness(self, assignment: np.ndarray) -> float:
        """Tour length *under the original distances* of a feasible assignment."""
        tour = self.decode(assignment)
        if tour is None:
            raise ValueError("assignment does not encode a feasible tour")
        return self.instance.tour_length(tour)

    # -------------------------------------------------------------- metadata
    def relaxation_scale(self) -> float:
        """Largest working distance — the order of magnitude where ``Pf`` transitions."""
        return float(np.max(self._working_instance.distances))

    def reference_fitness(self) -> Optional[float]:
        from repro.problems.tsp.heuristics import reference_tour_length

        return reference_tour_length(self.instance, rng=0)

    @property
    def mvodm_result(self) -> Optional[MVODMResult]:
        """Details of the MVODM preprocessing, when enabled."""
        return self._mvodm
