"""Digital-Annealer-style parallel-trial annealer (simulated Fujitsu DA).

The Fujitsu Digital Annealer is proprietary hardware; this module implements
the published algorithm it runs (Aramon et al., *Physics-inspired optimization
for QUBO problems using a digital annealer*, Frontiers in Physics 2019) so the
paper's DA experiments can be reproduced on a CPU:

* at every Monte-Carlo step **all** variables are evaluated in parallel and
  each flip is accepted with Metropolis probability;
* exactly one accepted flip (chosen uniformly at random) is applied per step;
* a *dynamic offset* is added to the acceptance threshold whenever no flip is
  accepted, which lets the solver escape local minima much faster than plain
  simulated annealing — this is why the energy-vs-A "dipper" in Fig. 1 is much
  sharper for DA than for SA.

All replicas (reads) are propagated together with numpy, and
:meth:`DigitalAnnealerSolver.sample_many` anneals several same-size models
(one problem's relaxations) in the same kernel call, one row group of
replicas per model, each group byte-identical to its model's lone call.
Each step applies its one flip per replica through
:meth:`~repro.solvers.engine.AnnealingState.apply_single_flips`, so the
tracked energies stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.qubo.model import QUBOModel
from repro.solvers.base import QUBOSolver
from repro.solvers.engine import AnnealingState, metropolis_accept, validate_engine_dtype
from repro.solvers.schedules import TemperatureSchedule, resolve_schedule


@dataclass(frozen=True)
class DigitalAnnealerConfig:
    """Configuration of :class:`DigitalAnnealerSolver`.

    Parameters
    ----------
    num_steps:
        Number of Monte-Carlo steps.  ``None`` selects ``steps_per_variable * n``.
    steps_per_variable:
        Steps per variable used when ``num_steps`` is ``None``.
    offset_increase_rate:
        Amount (as a fraction of the typical coefficient scale) added to the
        dynamic offset each time a step accepts no flip.
    schedule:
        Temperature schedule; ``None`` selects an automatic geometric schedule.
    dtype:
        Engine float precision (``"float64"`` / ``"float32"``; ``None``
        defers to ``QROSS_ENGINE_DTYPE``, then float64).
    """

    num_steps: Optional[int] = None
    steps_per_variable: int = 25
    offset_increase_rate: float = 0.3
    schedule: Optional[TemperatureSchedule] = None
    dtype: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_steps is not None and self.num_steps <= 0:
            raise ValueError("num_steps must be positive")
        if self.steps_per_variable <= 0:
            raise ValueError("steps_per_variable must be positive")
        if self.offset_increase_rate < 0:
            raise ValueError("offset_increase_rate must be non-negative")
        validate_engine_dtype(self.dtype)


class DigitalAnnealerSolver(QUBOSolver):
    """Parallel-trial single-flip annealer with dynamic offset escape."""

    name = "digital-annealer"

    def __init__(self, config: DigitalAnnealerConfig | None = None) -> None:
        self.config = config or DigitalAnnealerConfig()

    def _num_steps(self, num_variables: int) -> int:
        if self.config.num_steps is not None:
            return self.config.num_steps
        return self.config.steps_per_variable * num_variables

    def _sample(
        self, model: QUBOModel, num_reads: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, Optional[dict]]:
        return self._sample_many([model], num_reads, [rng])[0]

    def _sample_many(
        self, models: Sequence[QUBOModel], num_reads: int, rngs: Sequence[np.random.Generator]
    ) -> list[tuple[np.ndarray, Optional[dict]]]:
        """All models in one kernel: one row group of replicas per model.

        Group ``k`` draws its initial states, its Metropolis uniforms and its
        scoring uniforms from ``rngs[k]`` alone, and makes the scoring draw
        only at steps where one of its replicas accepted a flip, as a lone
        call does.  Its temperatures, dynamic-offset step, diagonal and
        constant offset are its own model's, so it returns what
        ``_sample(models[k], num_reads, rngs[k])`` returns, byte for byte.
        """
        n = models[0].num_variables
        num_steps = self._num_steps(n)
        state = AnnealingState(models, num_reads, rng=rngs, dtype=self.config.dtype)
        schedules = [resolve_schedule(m, self.config.schedule)(num_steps) for m in models]
        # One model anneals on the scalar-temperature path; a group's rows
        # carry its own temperatures.  Per-row constants are in the state
        # dtype (AnnealingState.per_row).
        temperatures = schedules[0] if len(models) == 1 else state.per_row(np.stack(schedules, axis=1))
        offset_step = state.per_row(
            [self.config.offset_increase_rate * max(m.max_abs_coefficient(), 1e-12) for m in models]
        )
        offsets = np.zeros(state.num_reads, dtype=state.dtype)
        zero = state.dtype.type(0.0)
        unchosen = state.dtype.type(-1.0)
        replica_rows = np.arange(state.num_reads)

        for step in range(num_steps):
            # Energy change of flipping each variable of each replica.
            delta = state.flip_deltas()
            effective = delta - offsets[:, None]
            accept = metropolis_accept(
                effective, temperatures[step], state.group_uniforms(rngs)
            )

            any_accepted = accept.any(axis=1)
            # Replicas with no accepted candidate raise their dynamic offset.
            offsets = np.where(any_accepted, zero, offsets + offset_step)
            if not any_accepted.any():
                continue
            # A group with no accepted candidate skips the step, as a lone
            # call does: it draws no scores.
            scores = np.where(accept, state.group_uniforms(rngs, any_accepted), unchosen)
            # Pick one accepted flip per replica uniformly at random.
            rows = replica_rows[any_accepted]
            cols = scores.argmax(axis=1)[any_accepted]
            state.apply_single_flips(rows, cols, delta[rows, cols])
            state.update_best()

        info = {"num_steps": num_steps}
        return [
            (state.best_X[k * num_reads : (k + 1) * num_reads], dict(info))
            for k in range(len(models))
        ]
