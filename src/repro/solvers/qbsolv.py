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

The loop reads each model through its coefficient operator
(:meth:`~repro.qubo.model.QUBOModel.operator`), whatever the model's storage:
the local fields and diagonal that rank the variables and the rows clamped
into each window come from it (float32-rounded coefficients on a CSR model,
where they only steer the search), while the clamped part's energy and every
candidate's acceptance are evaluated against the exact model.

Reads are independent runs of the whole decomposition, and a call runs all
of them in lock step: every read visits the same window positions, so the
windows of the reads still improving stack into one ``(R, w, w)`` array that
:meth:`~repro.solvers.tabu.TabuSearchSolver.refine_many` searches in one
batched loop.  The per-read host work (initial draw, window order, clamping,
acceptance) stays per read, and each read draws only from its own child RNG
stream spawned from its model's generator.  :meth:`QbsolvSolver.sample_many`
puts the reads of several same-size models (one problem's relaxations) in
the same lock step, each read with its own model.  A read therefore returns
exactly what it would return if it were solved on its own, for any mix of
models in the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

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
    subsolver_config:
        Tabu-search configuration used for each sub-problem.
    dtype:
        Engine float precision forwarded to the tabu sub-solver (unless the
        ``subsolver_config`` pins its own).  The decomposition loop itself
        always runs in float64.
    """

    subproblem_size: int = 48
    max_rounds: int = 8
    subsolver_config: TabuSearchConfig = field(
        default_factory=lambda: TabuSearchConfig(num_steps=200, restart_after=60)
    )
    dtype: Optional[str] = None

    def __post_init__(self) -> None:
        if self.subproblem_size <= 1:
            raise ValueError("subproblem_size must be at least 2")
        if self.max_rounds <= 0:
            raise ValueError("max_rounds must be positive")
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
        return self._sample_many([model], num_reads, [rng])[0]

    def _sample_many(
        self, models: Sequence[QUBOModel], num_reads: int, rngs: Sequence[np.random.Generator]
    ) -> list[tuple[np.ndarray, Optional[dict]]]:
        # One child stream per read, spawned from its model's generator and
        # consumed in the order a read solved on its own would consume it:
        # seeded results do not depend on which reads, of which models, share
        # a batch.
        streams = [stream for rng in rngs for stream in spawn_rngs(rng, num_reads)]
        read_models = [model for model in models for _ in range(num_reads)]
        X = self._decompose(read_models, streams)
        return [
            (np.array(X[k * num_reads : (k + 1) * num_reads]), None)
            for k in range(len(models))
        ]

    # ------------------------------------------------------------------ internals
    def _decompose(
        self, models: Sequence[QUBOModel], streams: list[np.random.Generator]
    ) -> list[np.ndarray]:
        """One full decomposition run per stream, all runs in lock step.

        Run ``r`` solves ``models[r]``; the models share one size.  Every run
        walks the same window positions, so the windows of all active runs
        stack into one ``(R, w, w)`` array for a single
        :meth:`~repro.solvers.tabu.TabuSearchSolver.refine_many` call.  A run
        leaves the active set after a round without improvement.
        """
        n = models[0].num_variables
        window = min(self.config.subproblem_size, n)
        ops = [model.operator() for model in models]

        X = [rng.integers(0, 2, size=n).astype(np.float64) for rng in streams]
        energies = [model.energy(x) for model, x in zip(models, X)]
        active = list(range(len(streams)))

        for _ in range(self.config.max_rounds):
            orders = [
                self._impact_order(
                    ops[r].right_multiply(X[r][None, :])[0], ops[r].diag, X[r], streams[r]
                )
                for r in active
            ]
            improved = set()
            for start in range(0, n, window):
                blocks = [order[start : start + window] for order in orders]
                if blocks[0].size < 2:
                    continue
                windows = [
                    self._clamp(models[r], ops[r].rows(block), X[r], block)
                    for r, block in zip(active, blocks)
                ]
                refined = self._subsolver.refine_many(
                    np.stack([sub_Q for sub_Q, _ in windows]),
                    [offset for _, offset in windows],
                    np.stack([X[r][block] for r, block in zip(active, blocks)]),
                    [streams[r] for r in active],
                )
                for r, block, sub_x in zip(active, blocks, refined):
                    candidate = X[r].copy()
                    candidate[block] = sub_x
                    candidate_energy = models[r].energy(candidate)
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
    def _clamp(
        model: QUBOModel, rows: np.ndarray, x: np.ndarray, block: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Sub-QUBO ``(Q, offset)`` over ``block``, other variables clamped at ``x``.

        ``rows`` is ``Q[block]`` as the model's operator gathers it; on a CSR
        model its coefficients are rounded to float32, which only steers the
        search.  The offset is the exact energy of ``x`` with the block
        zeroed, so for binary ``y``, ``y @ sub_Q @ y + offset`` is the
        model's energy of ``x`` with ``x[block] = y``, up to that rounding.
        """
        outside = np.ones(x.shape[0], dtype=bool)
        outside[block] = False
        sub_Q = rows[:, block]
        # Interaction with clamped variables becomes a linear (diagonal) term.
        sub_Q[np.diag_indices_from(sub_Q)] += 2.0 * rows[:, outside] @ x[outside]
        clamped = x.copy()
        clamped[block] = 0.0
        return sub_Q, model.energy(clamped)
