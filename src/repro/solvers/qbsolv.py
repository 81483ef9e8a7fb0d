"""Qbsolv-style decomposing hybrid solver.

D-Wave's qbsolv (Booth, Reinhardt, Roy 2017) solves large QUBOs by repeatedly

1. selecting a *sub-problem*: a window of variables chosen by their impact on
   the current solution,
2. clamping every variable outside the window and folding its contribution into
   the sub-problem's linear terms,
3. optimising the sub-problem with a tabu-search sub-solver, and
4. accepting the sub-solution when it improves the global energy,

until a full pass over all windows yields no improvement.  The paper used
qbsolv's classical simulator backend; this module implements the same
decomposition loop on top of :class:`~repro.solvers.tabu.TabuSearchSolver`.

Reads are independent runs of the whole decomposition, and a call runs all
of them in lock step: every read visits the same window positions, so the
windows of the reads still improving stack into one ``(R, w, w)`` array that
:meth:`~repro.solvers.tabu.TabuSearchSolver.refine_many` searches in one
batched loop.  The per-read host work (initial draw, window order, clamping,
acceptance) stays per read, and each read draws only from its own child RNG
stream spawned from the call's generator.  A read therefore returns exactly
what it would return if it were solved on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.qubo.model import QUBOModel
from repro.solvers.base import QUBOSolver
from repro.solvers.engine import validate_engine_dtype
from repro.solvers.tabu import TabuSearchConfig, TabuSearchSolver
from repro.utils.rng import spawn_rngs


@dataclass(frozen=True)
class QbsolvConfig:
    """Configuration of :class:`QbsolvSolver`.

    Parameters
    ----------
    subproblem_size:
        Number of variables clamped into each sub-problem window.
    max_rounds:
        Maximum number of full decomposition passes per read.
    num_restarts:
        Independent random restarts per read; the best result is returned.
    subsolver_config:
        Tabu-search configuration used for each sub-problem.
    dtype:
        Engine float precision forwarded to the tabu sub-solver (unless the
        ``subsolver_config`` pins its own).  The decomposition loop itself
        always runs in float64.
    """

    subproblem_size: int = 48
    max_rounds: int = 8
    num_restarts: int = 1
    subsolver_config: TabuSearchConfig = field(
        default_factory=lambda: TabuSearchConfig(num_steps=200, restart_after=60)
    )
    dtype: Optional[str] = None

    def __post_init__(self) -> None:
        if self.subproblem_size <= 1:
            raise ValueError("subproblem_size must be at least 2")
        if self.max_rounds <= 0:
            raise ValueError("max_rounds must be positive")
        if self.num_restarts <= 0:
            raise ValueError("num_restarts must be positive")
        validate_engine_dtype(self.dtype)


class QbsolvSolver(QUBOSolver):
    """Decomposition-based hybrid QUBO solver in the style of D-Wave qbsolv."""

    name = "qbsolv"

    def __init__(self, config: QbsolvConfig | None = None) -> None:
        self.config = config or QbsolvConfig()
        sub = self.config.subsolver_config
        if self.config.dtype is not None and sub.dtype is None:
            sub = replace(sub, dtype=self.config.dtype)
        self._subsolver = TabuSearchSolver(sub)

    def _sample(
        self, model: QUBOModel, num_reads: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, Optional[dict]]:
        # One child stream per read, each consumed in the order a read solved
        # on its own would consume it: seeded results do not depend on which
        # reads share a batch.
        streams = spawn_rngs(rng, num_reads)
        best_x = [None] * num_reads
        best_energy = [np.inf] * num_reads
        for _ in range(self.config.num_restarts):
            for r, x in enumerate(self._decompose(model, streams)):
                energy = model.energy(x)
                if energy < best_energy[r]:
                    best_energy[r] = energy
                    best_x[r] = x
        return np.array(best_x), None

    # ------------------------------------------------------------------ internals
    def _decompose(
        self, model: QUBOModel, streams: list[np.random.Generator]
    ) -> list[np.ndarray]:
        """One full decomposition run per stream, all runs in lock step.

        Every read walks the same window positions, so the windows of all
        active reads stack into one ``(R, w, w)`` array for a single
        :meth:`~repro.solvers.tabu.TabuSearchSolver.refine_many` call.  A read
        leaves the active set after a round without improvement.
        """
        n = model.num_variables
        window = min(self.config.subproblem_size, n)
        # The model's storage is a function of its coefficients, so the seeded
        # trajectory is one per fingerprint (the key of cache lookups and
        # request grouping), whatever form the model was built from.
        if model.is_sparse:
            op = model.operator()
            # CSR path: steer window selection and clamping through the sparse
            # operator (float32 coefficients, like the annealing engine) — the
            # model is never densified.  Candidate acceptance and the clamped
            # part's energy are always evaluated against the exact model.
            diag = np.asarray(op.diag, dtype=np.float64)

            def full_field(x: np.ndarray) -> np.ndarray:
                return op.right_multiply(x[None, :])[0]

            def clamp(x: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, float]:
                clamped = x.copy()
                clamped[block] = 0.0
                clamped_energy = model.energy(clamped) - model.offset
                return self._clamp_rows(model, op.rows(block), x, block, clamped_energy)

        else:
            Q = np.asarray(model.Q)
            diag = np.diag(Q).copy()

            def full_field(x: np.ndarray) -> np.ndarray:
                return Q @ x

            def clamp(x: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, float]:
                return self._clamp_dense(model, Q, x, block)

        X = [rng.integers(0, 2, size=n).astype(np.float64) for rng in streams]
        energies = [model.energy(x) for x in X]
        active = list(range(len(streams)))

        for _ in range(self.config.max_rounds):
            orders = [
                self._impact_order(full_field(X[r]), diag, X[r], streams[r]) for r in active
            ]
            improved = set()
            for start in range(0, n, window):
                blocks = [order[start : start + window] for order in orders]
                if blocks[0].size < 2:
                    continue
                windows = [clamp(X[r], block) for r, block in zip(active, blocks)]
                refined = self._subsolver.refine_many(
                    np.stack([sub_Q for sub_Q, _ in windows]),
                    [offset for _, offset in windows],
                    np.stack([X[r][block] for r, block in zip(active, blocks)]),
                    [streams[r] for r in active],
                )
                for r, block, sub_x in zip(active, blocks, refined):
                    candidate = X[r].copy()
                    candidate[block] = sub_x
                    candidate_energy = model.energy(candidate)
                    if candidate_energy < energies[r] - 1e-12:
                        X[r] = candidate
                        energies[r] = candidate_energy
                        improved.add(r)
            active = [r for r in active if r in improved]
            if not active:
                break

        return [x.astype(np.int8) for x in X]

    @staticmethod
    def _impact_order(
        h: np.ndarray, diag: np.ndarray, x: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Variables ordered by decreasing |single-flip energy change| with noise.

        ``h`` is the local field ``Q @ x``.  Sorting by impact concentrates the
        sub-problem windows on the variables that matter most to the current
        solution (as qbsolv does); a small random tie-breaker keeps successive
        rounds from using identical windows.
        """
        delta = (1.0 - 2.0 * x) * (diag + 2.0 * h - 2.0 * diag * x)
        noise = rng.random(x.shape[0]) * 1e-9
        return np.argsort(-(np.abs(delta) + noise), kind="stable")

    @staticmethod
    def _clamp_dense(
        model: QUBOModel,
        Q: np.ndarray,
        x: np.ndarray,
        block: np.ndarray,
    ) -> tuple[np.ndarray, float]:
        """Sub-QUBO ``(Q, offset)`` over ``block``, other variables clamped at ``x``.

        Operates on the full dense ``Q`` with the exact historical submatrix
        gathers — seeded dense-model results are bit-for-bit stable (the
        row-based variant below computes the same values through differently
        laid-out arrays, which perturbs BLAS results in the last ulp).
        """
        outside = np.ones(x.shape[0], dtype=bool)
        outside[block] = False
        sub_Q = Q[np.ix_(block, block)].copy()
        # Interaction with clamped variables becomes a linear (diagonal) term.
        cross = 2.0 * Q[np.ix_(block, np.where(outside)[0])] @ x[outside]
        sub_Q[np.diag_indices_from(sub_Q)] += cross
        clamped_energy = float(
            x[outside] @ Q[np.ix_(np.where(outside)[0], np.where(outside)[0])] @ x[outside]
        )
        return sub_Q, model.offset + clamped_energy

    @staticmethod
    def _clamp_rows(
        model: QUBOModel,
        rows: np.ndarray,
        x: np.ndarray,
        block: np.ndarray,
        clamped_energy: float,
    ) -> tuple[np.ndarray, float]:
        """Sub-QUBO ``(Q, offset)`` over ``block`` from a dense row gather (sparse path).

        ``rows`` is ``Q[block]`` gathered from the CSR operator and
        ``clamped_energy`` the quadratic energy of the clamped (outside) part,
        evaluated against the exact model by the caller.
        """
        outside = np.ones(x.shape[0], dtype=bool)
        outside[block] = False
        sub_Q = rows[:, block].copy()
        # Interaction with clamped variables becomes a linear (diagonal) term.
        cross = 2.0 * rows[:, outside] @ x[outside]
        sub_Q[np.diag_indices_from(sub_Q)] += cross
        return sub_Q, model.offset + float(clamped_energy)
