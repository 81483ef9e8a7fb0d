""":class:`PortfolioSolver` — the ``portfolio`` registry backend.

One solver that *schedules* other solvers: ``_sample`` runs the configured
:class:`~repro.portfolio.strategies.Strategy` loop, fanning each round's
(member, budget) slices out through a :class:`~repro.service.service.SolveService`
as seeded :class:`~repro.service.requests.SolveRequest` objects, so the
member solves transparently run on the thread, process, or remote-fleet
execution backends.  Between rounds the strategy observes per-slice outcomes
and replans; members it cancels receive no further budget.

Determinism contract (matching every other registry backend): a seeded
portfolio solve is byte-identical across pool widths and execution backends.
The ingredients —

* per-member child RNG streams and the strategy stream are spawned from the
  caller's generator in fixed member order *before* any solving;
* every slice runs as a *seeded* request (seed drawn from its member's
  stream), so the service's execution backend cannot perturb it;
* slice results are collected and merged in fixed (round, action) submission
  order, never completion order;
* budgets are sweeps/steps, not wall-clock.  ``wall_clock_budget_s`` is the
  opt-in exception: it stops *between* rounds once the deadline passed, which
  couples the schedule to machine speed and is therefore documented as
  nondeterministic (each completed round remains byte-reproducible).

The fan-out uses a private, unbounded, module-level service — never the
process-default one — so a portfolio running *on* a service pool thread
cannot deadlock waiting for its own members, and member slices are never
shed by the default service's admission gate.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.portfolio.members import (
    budget_field,
    join_member_list,
    slice_solver,
    split_member_list,
)
from repro.portfolio.strategies import PortfolioModel, SliceOutcome, make_strategy
from repro.qubo.model import QUBOModel
from repro.qubo.sampleset import SampleSet
from repro.solvers.base import QUBOSolver

_STRATEGIES = ("fixed", "sequence", "ucb", "epsilon")

#: Private fan-out services, one per execution-backend spec.  Unbounded
#: admission and separate from :func:`repro.service.service.default_service`
#: by design (see module docstring).
_FANOUT_SERVICES: Dict[str, "SolveService"] = {}
_FANOUT_LOCK = threading.Lock()


def _fanout_service(backend: Optional[str]):
    from repro.service.service import SolveService

    key = backend or "thread"
    with _FANOUT_LOCK:
        service = _FANOUT_SERVICES.get(key)
        if service is None:
            service = SolveService(backend=key, max_pending=None)
            _FANOUT_SERVICES[key] = service
        return service


@dataclass(frozen=True)
class PortfolioConfig:
    """Configuration of :class:`PortfolioSolver`.

    Parameters
    ----------
    members:
        Comma-joined member registry specs (``"sa,pt?num_replicas=8"``).
        Inside a parent ``portfolio?members=...`` spec string, member specs
        containing ``?``/``=``/``&`` must be URL-escaped; the registry
        grammar unquotes them on parse.
    strategy:
        ``"fixed"`` | ``"sequence"`` | ``"ucb"`` | ``"epsilon"``.
    sweep_budget:
        Total budget in the members' own budget units (sweeps for the
        annealers, steps for the local searches).
    round_sweeps:
        Slice size per round for the modeling strategies (default:
        ``sweep_budget // 8``).
    width:
        How many members a modeling round runs concurrently.
    member_reads:
        Reads per member slice (default: the caller's ``num_reads``).
    outcome_log:
        Path to an :class:`~repro.portfolio.outcomes.OutcomeLog` JSONL file;
        when set, the modeling strategies fit a feature-conditioned
        :class:`~repro.portfolio.strategies.PortfolioModel` from it.
    knn:
        Neighbourhood size of that model.
    track_trajectory:
        Record ``portfolio_trajectory`` ([cumulative_budget, best_energy]
        pairs) in the sample-set info.
    execution_backend:
        Execution backend spec for the member fan-out (``"thread"``,
        ``"process"``, ...).  ``None`` pins the in-process thread backend —
        deliberately *not* the ``QROSS_EXECUTION_BACKEND`` default, so a
        portfolio running inside a process worker never nests pools
        accidentally.
    wall_clock_budget_s:
        Opt-in wall-clock stop, checked between rounds.  NONDETERMINISTIC:
        how many rounds fit depends on machine speed.
    """

    members: str = "sa,tabu"
    strategy: str = "ucb"
    sweep_budget: int = 400
    round_sweeps: Optional[int] = None
    width: int = 2
    epsilon: float = 0.1
    exploration: float = 0.5
    member_reads: Optional[int] = None
    outcome_log: Optional[str] = None
    knn: int = 4
    track_trajectory: bool = False
    execution_backend: Optional[str] = None
    wall_clock_budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", join_member_list(self.members))
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"strategy must be one of {_STRATEGIES}, got {self.strategy!r}"
            )
        if self.sweep_budget <= 0:
            raise ValueError("sweep_budget must be positive")
        if self.round_sweeps is not None and self.round_sweeps <= 0:
            raise ValueError("round_sweeps must be positive")
        if self.width <= 0:
            raise ValueError("width must be positive")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.member_reads is not None and self.member_reads <= 0:
            raise ValueError("member_reads must be positive")
        if self.knn <= 0:
            raise ValueError("knn must be positive")
        if self.wall_clock_budget_s is not None and self.wall_clock_budget_s <= 0:
            raise ValueError("wall_clock_budget_s must be positive")

    @property
    def member_specs(self) -> Tuple[str, ...]:
        return split_member_list(self.members)


class PortfolioSolver(QUBOSolver):
    """Budget-aware scheduling over the registry's solver families."""

    name = "portfolio"

    def __init__(self, config: Optional[PortfolioConfig] = None) -> None:
        self.config = config or PortfolioConfig()
        self._model_lock = threading.Lock()
        self._model: Optional[PortfolioModel] = None
        self._model_loaded = False

    # ----------------------------------------------------------------- pieces
    def _portfolio_model(self) -> Optional[PortfolioModel]:
        """The outcome-log-fitted success model, loaded once per instance."""
        if self.config.outcome_log is None:
            return None
        with self._model_lock:
            if not self._model_loaded:
                from repro.portfolio.outcomes import OutcomeLog

                log = OutcomeLog.load(self.config.outcome_log)
                self._model = PortfolioModel(knn=self.config.knn).fit(
                    log, self.config.member_specs
                )
                self._model_loaded = True
            return self._model

    def _make_strategy(self):
        return make_strategy(
            self.config.strategy,
            self.config.member_specs,
            model=self._portfolio_model(),
            round_budget=self.config.round_sweeps,
            width=self.config.width,
            epsilon=self.config.epsilon,
            exploration=self.config.exploration,
        )

    # ------------------------------------------------------------------ solve
    def _sample(
        self, model: QUBOModel, num_reads: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, Optional[dict]]:
        # ``repro.core`` is imported here, not at module top: the registry
        # imports this module, and a spawned worker must not pay for
        # ``repro.core``'s scipy.stats/optimize imports.
        from repro.core.features import model_feature_vector
        from repro.service.registry import make_solver
        from repro.service.requests import SolveRequest

        cfg = self.config
        specs = cfg.member_specs
        members = {spec: make_solver(spec) for spec in specs}
        for solver in members.values():
            budget_field(solver)  # fail fast on budget-less members

        # All randomness is drawn here, in fixed member order, before any
        # solving: backends and completion order cannot perturb the streams.
        member_streams = {
            spec: np.random.default_rng(int(rng.integers(0, 2**63 - 1)))
            for spec in specs
        }
        strategy_rng = np.random.default_rng(int(rng.integers(0, 2**63 - 1)))

        strategy = self._make_strategy()
        strategy.begin(
            specs, float(cfg.sweep_budget), features=model_feature_vector(model)
        )
        service = _fanout_service(cfg.execution_backend)
        reads = cfg.member_reads if cfg.member_reads is not None else num_reads
        deadline = (
            None
            if cfg.wall_clock_budget_s is None
            else time.monotonic() + cfg.wall_clock_budget_s
        )

        remaining = float(cfg.sweep_budget)
        spent = 0.0
        incumbent = float("inf")
        rounds = 0
        num_slices = 0
        member_budget = {spec: 0.0 for spec in specs}
        sample_sets: List[SampleSet] = []
        trajectory: List[List[float]] = []

        while remaining > 0:
            actions = strategy.allocate(remaining, strategy_rng)
            if not actions:
                break
            # Clip the round to the remaining budget, in action order.
            committed = 0.0
            clipped: List[Tuple[str, int]] = []
            for spec, budget in actions:
                slice_budget = int(min(budget, remaining - committed))
                if slice_budget <= 0:
                    continue
                committed += slice_budget
                clipped.append((spec, slice_budget))
            if not clipped:
                break

            # The round span wraps submission, so the member slices' own
            # service.solve spans (captured at submit time) nest under it.
            with obs.span(
                "portfolio.round",
                strategy=cfg.strategy,
                round=rounds,
                allocation=",".join(f"{spec}:{budget}" for spec, budget in clipped),
            ) as round_span:
                submitted = []
                for spec, slice_budget in clipped:
                    seed = int(member_streams[spec].integers(0, 2**63 - 1))
                    request = SolveRequest(
                        solver=slice_solver(members[spec], slice_budget),
                        model=model,
                        num_reads=reads,
                        seed=seed,
                        label=f"portfolio:{spec}",
                    )
                    submitted.append((spec, slice_budget, service.submit(request)))

                outcomes: List[SliceOutcome] = []
                for spec, slice_budget, future in submitted:  # fixed order, not completion
                    with obs.span(
                        "portfolio.slice", member=spec, budget=slice_budget
                    ) as slice_span:
                        samples = future.result().samples
                        best = float(np.min(samples.energies))
                        slice_span.set(best_energy=best, improved=best < incumbent)
                    start = spent
                    spent += slice_budget
                    remaining -= slice_budget
                    member_budget[spec] += slice_budget
                    num_slices += 1
                    obs.counter(
                        "qross_portfolio_slices_total",
                        labels={"member": spec},
                        help="Member slices the portfolio scheduler dispatched",
                    ).inc()
                    improved = best < incumbent
                    if improved:
                        slice_traj = samples.info.get("best_energy_trajectory")
                        if slice_traj:
                            for index, energy in enumerate(slice_traj):
                                energy = float(energy)
                                if energy < incumbent:
                                    incumbent = energy
                                    trajectory.append([start + index + 1, energy])
                        # Members without trajectories charge the whole slice.
                        if best < incumbent:
                            incumbent = best
                            trajectory.append([start + slice_budget, best])
                    sample_sets.append(samples)
                    outcomes.append(
                        SliceOutcome(
                            spec=spec,
                            budget=float(slice_budget),
                            best_energy=best,
                            improved=improved,
                            round_index=rounds,
                            cumulative_budget=spent,
                        )
                    )
                strategy.observe_round(outcomes)
                round_span.set(budget_spent=spent, best_energy=incumbent)
            obs.counter(
                "qross_portfolio_rounds_total",
                labels={"strategy": cfg.strategy},
                help="Strategy rounds the portfolio scheduler completed",
            ).inc()
            rounds += 1
            if deadline is not None and time.monotonic() >= deadline:
                break

        merged = SampleSet.concatenate(sample_sets)
        assignments = merged.truncated(num_reads).assignments
        if assignments.shape[0] < num_reads:
            # Fewer reads than asked for (member_reads < num_reads with few
            # slices): tile the best rows cyclically to honour the contract.
            tiles = -(-num_reads // assignments.shape[0])
            assignments = np.tile(assignments, (tiles, 1))[:num_reads]

        info: dict = {
            "portfolio_members": list(specs),
            "portfolio_strategy": cfg.strategy,
            "portfolio_budget": float(cfg.sweep_budget),
            "portfolio_budget_spent": spent,
            "portfolio_rounds": rounds,
            "portfolio_slices": num_slices,
            "portfolio_member_budget": {k: float(v) for k, v in member_budget.items()},
            "portfolio_best_energy": incumbent,
        }
        cancelled = getattr(strategy, "cancelled", ())
        if cancelled:
            info["portfolio_cancelled"] = list(cancelled)
            obs.counter(
                "qross_portfolio_cancellations_total",
                labels={"strategy": cfg.strategy},
                help="Members cancelled by the portfolio strategy",
            ).inc(len(cancelled))
        if cfg.track_trajectory:
            info["portfolio_trajectory"] = [
                [float(b), float(e)] for b, e in trajectory
            ]
        return assignments, info
