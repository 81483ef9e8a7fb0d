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

All replicas (reads) are propagated together with numpy.

``max_parallel_flips`` enables the *multi-flip* DA variant: instead of one
accepted flip per step, up to that many accepted flips (chosen by the same
uniform scoring that picks the single flip) are applied simultaneously through
:meth:`~repro.solvers.engine.AnnealingState.apply_block_flips`.  Flips applied
together do not see each other's move — the standard blocked-update
approximation — which trades a little acceptance fidelity for covering the
hardware's parallel-update behaviour and much faster descent on large
instances.  ``max_parallel_flips=1`` (the default) is exactly the published
single-flip algorithm, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    max_parallel_flips:
        Accepted flips applied per step.  ``1`` (default) reproduces the
        published single-flip algorithm exactly; larger values apply the
        top-scoring accepted flips as one simultaneous block update.
    dtype:
        Engine float precision (``"float64"`` / ``"float32"``; ``None``
        defers to ``QROSS_ENGINE_DTYPE``, then float64).
    """

    num_steps: Optional[int] = None
    steps_per_variable: int = 25
    offset_increase_rate: float = 0.3
    schedule: Optional[TemperatureSchedule] = None
    max_parallel_flips: int = 1
    dtype: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_steps is not None and self.num_steps <= 0:
            raise ValueError("num_steps must be positive")
        if self.steps_per_variable <= 0:
            raise ValueError("steps_per_variable must be positive")
        if self.offset_increase_rate < 0:
            raise ValueError("offset_increase_rate must be non-negative")
        if self.max_parallel_flips < 1:
            raise ValueError("max_parallel_flips must be at least 1")
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
        n = model.num_variables
        num_steps = self._num_steps(n)
        schedule = resolve_schedule(model, self.config.schedule)
        temperatures = schedule(num_steps)

        offset_step = self.config.offset_increase_rate * max(model.max_abs_coefficient(), 1e-12)

        state = AnnealingState(model, num_reads, rng=rng, dtype=self.config.dtype)
        offsets = np.zeros(num_reads, dtype=state.dtype)
        zero = state.dtype.type(0.0)
        unchosen = state.dtype.type(-1.0)
        replica_rows = np.arange(num_reads)
        max_flips = min(self.config.max_parallel_flips, n)
        all_cols = np.arange(n)

        for step in range(num_steps):
            temperature = temperatures[step]
            # Energy change of flipping each variable of each replica.
            delta = state.flip_deltas()
            effective = delta - offsets[:, None]
            accept = metropolis_accept(
                effective, temperature, state.uniforms(rng, (num_reads, n))
            )

            any_accepted = accept.any(axis=1)
            # Replicas with no accepted candidate raise their dynamic offset.
            offsets = np.where(any_accepted, zero, offsets + offset_step)
            if not any_accepted.any():
                continue

            if max_flips == 1:
                # Pick one accepted flip per replica uniformly at random.
                scores = np.where(accept, state.uniforms(rng, (num_reads, n)), unchosen)
                chosen = scores.argmax(axis=1)
                rows = replica_rows[any_accepted]
                cols = chosen[any_accepted]
                state.apply_single_flips(rows, cols, delta[rows, cols])
            else:
                # Multi-flip variant: the same uniform scoring, but the top
                # ``max_flips`` accepted candidates of each replica are
                # applied together as one block update.
                scores = np.where(accept, state.uniforms(rng, (num_reads, n)), unchosen)
                chosen = accept
                if max_flips < n:
                    top = np.argpartition(-scores, max_flips - 1, axis=1)[:, :max_flips]
                    chosen = np.zeros_like(accept)
                    np.put_along_axis(chosen, top, True, axis=1)
                    chosen = chosen & accept
                state.apply_block_flips(all_cols, chosen)
                state.refresh_energies()
            state.update_best()

        info = {"num_steps": num_steps}
        if max_flips > 1:
            info["max_parallel_flips"] = max_flips
        return state.best_X, info
