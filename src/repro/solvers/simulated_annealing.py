"""Simulated annealing on CPU, vectorised over replicas *and* variable blocks.

This is the "Simulated Annealing on CPU" solver used throughout the paper
(lower rows of Fig. 1, QAPLIB experiments).  Each read is an independent
replica; one *sweep* visits every variable once in a shuffled order and applies
Metropolis single-flip updates at the sweep's temperature.

The sweep is *blocked*: the shuffled variable order is chunked into blocks and
each block's flips are proposed against the state at the start of the block,
then applied together by one
:meth:`~repro.solvers.engine.AnnealingState.metropolis_block` call on the
shared :class:`~repro.solvers.engine.AnnealingState`.  That step gathers the
block's states once and reuses them and their flip signs for the update, and
returns the accepted count the block-size controller reads.  This cuts the
pure-Python work per sweep from ``O(n)`` iterations to ``O(n / block)``
while the heavy local-field updates run as batched BLAS/CSR products.
Within-block flips are an approximation of sequential Metropolis
(interacting variables flipped in the same block do not see each other's
move), which blocked Gibbs/Metropolis samplers routinely accept; the solver
additionally tracks the best state seen at every sweep boundary, so the
returned assignment is never worse than the final state of the walk.

The block size is *adaptive* by default: an
:class:`~repro.solvers.engine.AdaptiveBlockSizer` grows the block while the
measured acceptance rate says simultaneous flips are rare (cold sweeps — pure
speed) and shrinks it toward the exact sequential sweep while acceptance is
high (hot sweeps — fidelity).  The controller reads only accepted-flip
counts, so it never consumes random draws; pass an explicit ``block_size``
to pin the historical fixed-block behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.qubo.model import QUBOModel
from repro.solvers.base import QUBOSolver
from repro.solvers.engine import AdaptiveBlockSizer, AnnealingState, validate_engine_dtype
from repro.solvers.schedules import TemperatureSchedule, resolve_schedule


@dataclass(frozen=True)
class SimulatedAnnealingConfig:
    """Configuration of :class:`SimulatedAnnealingSolver`.

    Parameters
    ----------
    num_sweeps:
        Number of full passes over the variables per read.
    schedule:
        Temperature schedule; ``None`` selects a geometric schedule whose range
        is derived from the QUBO coefficients.
    block_size:
        Number of variables proposed together within a sweep.  ``None`` (the
        default) adapts the block to the measured acceptance rate via
        :class:`~repro.solvers.engine.AdaptiveBlockSizer`; an integer pins a
        fixed block, with ``1`` recovering the exact sequential single-flip
        sweep.
    track_trajectory:
        Record the batch-best energy after every sweep in the sample-set info
        (``best_energy_trajectory``) — time-to-target instrumentation for the
        benchmarks.  Never changes the random stream.
    dtype:
        Engine float precision, ``"float64"`` or ``"float32"``.  ``None``
        defers to ``QROSS_ENGINE_DTYPE``, then float64.  Returned energies
        are always re-scored against the exact float64 model.
    """

    num_sweeps: int = 100
    schedule: Optional[TemperatureSchedule] = None
    block_size: Optional[int] = None
    track_trajectory: bool = False
    dtype: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_sweeps <= 0:
            raise ValueError("num_sweeps must be positive")
        if self.block_size is not None and self.block_size <= 0:
            raise ValueError("block_size must be positive")
        validate_engine_dtype(self.dtype)


class SimulatedAnnealingSolver(QUBOSolver):
    """Batched blocked single-flip Metropolis simulated annealing."""

    name = "simulated-annealing"

    def __init__(self, config: SimulatedAnnealingConfig | None = None) -> None:
        self.config = config or SimulatedAnnealingConfig()

    def _sample(
        self, model: QUBOModel, num_reads: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, Optional[dict]]:
        n = model.num_variables
        schedule = resolve_schedule(model, self.config.schedule)
        temperatures = schedule(self.config.num_sweeps)
        sizer = None
        if self.config.block_size is not None:
            block = self.config.block_size
        else:
            sizer = AdaptiveBlockSizer(n)
            block = sizer.block

        state = AnnealingState(model, num_reads, rng=rng, dtype=self.config.dtype)
        trajectory = [] if self.config.track_trajectory else None
        ran_block = block
        for temperature in temperatures:
            ran_block = block
            order = rng.permutation(n)
            uniforms = state.uniforms(rng, (num_reads, n))
            accepted = 0
            for start in range(0, n, block):
                accepted += state.metropolis_block(
                    order[start : start + block], temperature, uniforms[:, start : start + block]
                )
            state.refresh_energies()
            state.update_best()
            if trajectory is not None:
                trajectory.append(float(state.best_energies.min()))
            if sizer is not None:
                block = sizer.update(accepted / (num_reads * n))

        info = {
            "num_sweeps": self.config.num_sweeps,
            "block_size": self.config.block_size if sizer is None else "adaptive",
            # The block the final sweep actually ran with (the sizer's
            # post-final update proposes a block no sweep ever uses).
            "final_block_size": ran_block,
        }
        if trajectory is not None:
            info["best_energy_trajectory"] = trajectory
        return state.best_X, info
