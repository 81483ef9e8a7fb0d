"""Replica-exchange (parallel tempering) Monte Carlo on the shared engine.

Plain simulated annealing commits every replica to one cooling trajectory: a
replica trapped in a deep local minimum late in the schedule has no
temperature left to climb out with.  Parallel tempering (Swendsen & Wang 1986;
the variant discussed for Digital-Annealer-class hardware by Aramon et al.,
Frontiers in Physics 2019) removes the schedule entirely: a *ladder* of
replicas runs at fixed temperatures spanning hot (free exploration) to cold
(greedy refinement), and neighbouring rungs periodically propose to swap
configurations with the detailed-balance acceptance
``min(1, exp((beta_i - beta_j) (E_i - E_j)))``.  Low-energy states found by
hot rungs percolate down the ladder; stuck cold rungs hand their basin back
up — the walk mixes across temperatures instead of through time.

Implementation notes
--------------------
Every requested read owns an independent ladder of ``num_replicas`` rungs and
*all* rungs of *all* reads live in one :class:`~repro.solvers.engine.
AnnealingState` batch of ``num_reads * num_replicas`` rows (read-major, rung
``j`` of read ``k`` at row ``k * num_replicas + j``).  Sweeps reuse the same
blocked single-flip kernel as simulated annealing
(:meth:`~repro.solvers.engine.AnnealingState.metropolis_block`), with the
per-row temperature form of :func:`~repro.solvers.engine.metropolis_accept`; swap
rounds exchange full state rows (``X``/``H``/energies) so the row ->
temperature mapping stays static.  Exchanging rows rather than temperatures
costs ``O(n)`` per accepted swap but keeps every kernel oblivious to the
ladder — the engine sees just another replica batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import obs
from repro.qubo.model import QUBOModel
from repro.solvers.base import QUBOSolver
from repro.solvers.engine import (
    AnnealingState,
    default_block_size,
    propose_ladder_swaps,
    validate_engine_dtype,
)
from repro.solvers.schedules import default_temperature_range


@dataclass(frozen=True)
class ParallelTemperingConfig:
    """Configuration of :class:`ParallelTemperingSolver`.

    Parameters
    ----------
    num_sweeps:
        Full single-flip passes over the variables per rung.
    num_replicas:
        Rungs in each read's temperature ladder.
    swap_interval:
        Sweeps between neighbour-swap rounds (pairings alternate even/odd
        between rounds, so every neighbouring pair is proposed every two
        rounds).
    t_hot / t_cold:
        Ladder endpoints.  ``None`` derives them from the model's coefficient
        scale (:func:`~repro.solvers.schedules.default_temperature_range`);
        the rungs are geometrically spaced between the endpoints.
    block_size:
        Variables proposed together within a sweep (``None`` selects
        :func:`~repro.solvers.engine.default_block_size`, ``1`` the exact
        sequential sweep).
    track_trajectory:
        Record the batch-best energy after every sweep in the sample-set info
        (``best_energy_trajectory``) — the time-to-target instrumentation used
        by ``benchmarks/bench_pt.py``.  Never changes the random stream.
    dtype:
        Engine float precision (``"float64"`` / ``"float32"``; ``None``
        defers to ``QROSS_ENGINE_DTYPE``, then float64).
    """

    num_sweeps: int = 100
    num_replicas: int = 8
    swap_interval: int = 5
    t_hot: Optional[float] = None
    t_cold: Optional[float] = None
    block_size: Optional[int] = None
    track_trajectory: bool = False
    dtype: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_sweeps <= 0:
            raise ValueError("num_sweeps must be positive")
        if self.num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if self.swap_interval <= 0:
            raise ValueError("swap_interval must be positive")
        for name in ("t_hot", "t_cold"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.t_hot is not None and self.t_cold is not None and self.t_cold > self.t_hot:
            raise ValueError("t_cold must not exceed t_hot")
        if self.block_size is not None and self.block_size <= 0:
            raise ValueError("block_size must be positive")
        validate_engine_dtype(self.dtype)


class ParallelTemperingSolver(QUBOSolver):
    """Replica-exchange Monte Carlo over a geometric temperature ladder."""

    name = "parallel-tempering"

    def __init__(self, config: ParallelTemperingConfig | None = None) -> None:
        self.config = config or ParallelTemperingConfig()

    def _ladder(self, model: QUBOModel) -> np.ndarray:
        """Geometric rung temperatures, hottest first (rung 0 = ``t_hot``)."""
        t_hot, t_cold = self.config.t_hot, self.config.t_cold
        if t_hot is None or t_cold is None:
            auto_hot, auto_cold = default_temperature_range(model)
            t_hot = auto_hot if t_hot is None else t_hot
            t_cold = auto_cold if t_cold is None else t_cold
        if t_cold > t_hot:
            # One endpoint was explicit, the other auto-derived from this
            # model's coefficient scale, and they inverted — same error the
            # all-explicit config raises, just only detectable per model.
            raise ValueError(
                f"ladder endpoints inverted for model {model.name!r}: "
                f"t_cold={t_cold:.6g} exceeds t_hot={t_hot:.6g}; set both "
                f"endpoints explicitly (or neither)"
            )
        m = self.config.num_replicas
        if m == 1:
            return np.array([t_cold])
        ratio = (t_cold / t_hot) ** (1.0 / (m - 1))
        return t_hot * ratio ** np.arange(m)

    def _sample(
        self, model: QUBOModel, num_reads: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, Optional[dict]]:
        cfg = self.config
        n = model.num_variables
        m = cfg.num_replicas
        ladder = self._ladder(model)
        block = cfg.block_size or default_block_size(n)

        state = AnnealingState(model, num_reads * m, rng=rng, dtype=cfg.dtype)
        # Row r runs at the fixed temperature of rung r % m.
        row_temps = np.tile(ladder, num_reads).astype(state.dtype)
        betas = (1.0 / ladder).astype(state.dtype)
        state.profiler = obs.engine_profiler(self.name)
        read_base = np.arange(num_reads)[:, None] * m

        swaps_proposed = swaps_accepted = 0
        trajectory = [] if cfg.track_trajectory else None
        for sweep in range(cfg.num_sweeps):
            order = rng.permutation(n)
            uniforms = state.uniforms(rng, (num_reads * m, n))
            for start in range(0, n, block):
                state.metropolis_block(
                    order[start : start + block], row_temps, uniforms[:, start : start + block]
                )
            state.refresh_energies()
            state.update_best()
            if state.profiler is not None:
                state.profiler.end_sweep()

            if m > 1 and (sweep + 1) % cfg.swap_interval == 0:
                offset = (sweep // cfg.swap_interval) % 2
                rungs = np.arange(offset, m - 1, 2)
                energies = state.current_energies.reshape(num_reads, m)
                accept = propose_ladder_swaps(
                    energies, betas, offset, state.uniforms(rng, (num_reads, rungs.size))
                )
                swaps_proposed += accept.size
                swaps_accepted += int(accept.sum())
                if state.profiler is not None:
                    state.profiler.record_swap_round(int(accept.size), int(accept.sum()))
                if accept.any():
                    reads, pairs = np.nonzero(accept)
                    rows_i = (read_base[reads, 0] + rungs[pairs]).ravel()
                    state.swap_rows(rows_i, rows_i + 1)
            if trajectory is not None:
                trajectory.append(float(state.best_energies.min()))

        # Per read: the best state any of its rungs ever visited.
        best_energies = state.best_energies.reshape(num_reads, m)
        winner = best_energies.argmin(axis=1)
        assignments = state.best_X.reshape(num_reads, m, n)[np.arange(num_reads), winner]
        info = {
            "num_sweeps": cfg.num_sweeps,
            "num_replicas": m,
            "swap_interval": cfg.swap_interval,
            "swaps_proposed": swaps_proposed,
            "swaps_accepted": swaps_accepted,
            "block_size": block,
        }
        if trajectory is not None:
            info["best_energy_trajectory"] = trajectory
        if state.profiler is not None:
            info["engine_profile"] = state.profiler.finish()
        return assignments, info
