"""Experiment profiles: how large each reproduction run is.

The paper's experiments use 300 synthetic instances of 20-30 cities, 128 reads
per solver call and 20 tuning trials per instance.  Re-running that verbatim on
a laptop-scale pure-Python annealer takes hours, so every experiment accepts a
profile and three presets are provided:

* ``SMOKE``  — minutes-scale; used by the benchmark suite and CI.
* ``SMALL``  — tens of minutes; closer to the paper's shapes.
* ``PAPER``  — the paper's sizes (run only when you have the time budget).

Select a profile by name with :func:`resolve_profile`; the benchmark harness
reads the ``QROSS_PROFILE`` environment variable (default ``smoke``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.solvers.digital_annealer import DigitalAnnealerConfig
from repro.solvers.parallel_tempering import ParallelTemperingConfig
from repro.solvers.qbsolv import QbsolvConfig
from repro.solvers.quantum_annealer import QuantumAnnealerConfig
from repro.solvers.simulated_annealing import SimulatedAnnealingConfig
from repro.solvers.tabu import TabuSearchConfig


@dataclass(frozen=True)
class ExperimentProfile:
    """All knobs that control the size of a reproduction run."""

    name: str
    # Dataset sizes.
    num_train_instances: int
    num_test_instances: int
    min_cities: int
    max_cities: int
    tsplib_max_cities: int
    # Solver effort.
    num_reads: int
    da_steps_per_variable: int
    sa_num_sweeps: int
    qbsolv_subproblem_size: int
    qbsolv_tabu_steps: int
    # Tuning budget.
    num_trials: int
    # Surrogate training.
    surrogate_epochs: int
    coarse_multipliers: tuple[float, ...] = (0.1, 0.25, 0.4, 0.6, 0.8, 1.0, 1.25, 1.6, 2.2, 3.0)
    num_refinement_points: int = 6
    # MVC workload sizing (Appendix B study and the sparse-encoding path).
    mvc_num_vertices: int = 24
    mvc_edge_probability: float = 0.5
    # Execution: where the tuning-comparison engine calls run.  ``None``
    # inherits the process default (the ``QROSS_EXECUTION_BACKEND`` env var,
    # ``"thread"`` out of the box); ``"process"`` fans the Python-heavy
    # annealing loops of the comparison runs out across cores — worthwhile at
    # ``small``/``paper`` scale, pure overhead for the smoke profile.
    # ``"remote"`` (with a fleet from ``QROSS_REMOTE_WORKERS`` or an explicit
    # ``remote?workers=host:port,...`` spec) ships the same calls to TCP
    # worker servers on other machines — the ``paper``-scale option when one
    # host is not enough.  Seeded runs are byte-identical on every choice.
    execution_backend: str | None = None
    # Parallel tempering (replica exchange): ladder rungs per read and sweeps
    # between swap rounds.  The sweep budget is shared with SA
    # (``sa_num_sweeps``) so PT-vs-SA comparisons are same-budget by default.
    pt_num_replicas: int = 8
    pt_swap_interval: int = 5
    # Digital annealer: accepted flips applied per step (1 = published
    # single-flip algorithm; >1 = the parallel multi-flip variant).
    da_max_parallel_flips: int = 1
    # Portfolio solving: member specs, scheduling strategy and total sweep
    # budget of the ``portfolio`` registry backend this profile builds.  The
    # members deliberately reuse the profile's own solver configs (same
    # sweeps/replica shapes), so portfolio-vs-member comparisons are
    # same-budget-per-slice by construction.
    portfolio_members: str = "sa,tabu"
    portfolio_strategy: str = "ucb"
    portfolio_sweep_budget: int = 320
    # Engine precision is not a profile knob: ``QROSS_ENGINE_DTYPE=float32``
    # runs every solver a profile builds in single precision.
    # Reproducibility.
    seed: int = 2021

    def digital_annealer_config(self) -> DigitalAnnealerConfig:
        return DigitalAnnealerConfig(
            steps_per_variable=self.da_steps_per_variable,
            max_parallel_flips=self.da_max_parallel_flips,
        )

    def parallel_tempering_config(self) -> ParallelTemperingConfig:
        return ParallelTemperingConfig(
            num_sweeps=self.sa_num_sweeps,
            num_replicas=self.pt_num_replicas,
            swap_interval=self.pt_swap_interval,
        )

    def simulated_annealing_config(self) -> SimulatedAnnealingConfig:
        return SimulatedAnnealingConfig(num_sweeps=self.sa_num_sweeps)

    def qbsolv_config(self) -> QbsolvConfig:
        return QbsolvConfig(
            subproblem_size=self.qbsolv_subproblem_size,
            subsolver_config=self.tabu_search_config(),
        )

    def tabu_search_config(self) -> TabuSearchConfig:
        return TabuSearchConfig(
            num_steps=self.qbsolv_tabu_steps,
            restart_after=max(20, self.qbsolv_tabu_steps // 3),
        )

    def quantum_annealer_config(self) -> QuantumAnnealerConfig:
        return QuantumAnnealerConfig(base_config=self.simulated_annealing_config())

    def portfolio_config(self) -> "PortfolioConfig":
        from repro.portfolio.solver import PortfolioConfig

        return PortfolioConfig(
            members=self.portfolio_members,
            strategy=self.portfolio_strategy,
            sweep_budget=self.portfolio_sweep_budget,
        )

    def scaled(self, **overrides) -> "ExperimentProfile":
        """Return a copy with selected fields overridden."""
        return replace(self, **overrides)


SMOKE = ExperimentProfile(
    name="smoke",
    num_train_instances=16,
    num_test_instances=3,
    min_cities=6,
    max_cities=8,
    tsplib_max_cities=17,
    num_reads=16,
    da_steps_per_variable=12,
    sa_num_sweeps=40,
    qbsolv_subproblem_size=24,
    qbsolv_tabu_steps=80,
    num_trials=8,
    surrogate_epochs=250,
    coarse_multipliers=(0.1, 0.3, 0.5, 0.7, 0.9, 1.2, 1.8, 2.6),
    num_refinement_points=4,
    mvc_num_vertices=24,
    portfolio_sweep_budget=120,
)

SMALL = ExperimentProfile(
    name="small",
    num_train_instances=40,
    num_test_instances=8,
    min_cities=10,
    max_cities=14,
    tsplib_max_cities=24,
    num_reads=32,
    da_steps_per_variable=20,
    sa_num_sweeps=80,
    qbsolv_subproblem_size=36,
    qbsolv_tabu_steps=160,
    num_trials=20,
    surrogate_epochs=250,
    mvc_num_vertices=48,
    portfolio_sweep_budget=320,
)

PAPER = ExperimentProfile(
    name="paper",
    num_train_instances=270,
    num_test_instances=30,
    min_cities=20,
    max_cities=30,
    tsplib_max_cities=89,
    num_reads=128,
    da_steps_per_variable=30,
    sa_num_sweeps=150,
    qbsolv_subproblem_size=48,
    qbsolv_tabu_steps=300,
    num_trials=20,
    surrogate_epochs=400,
    mvc_num_vertices=65,
    portfolio_sweep_budget=600,
)

_PROFILES = {profile.name: profile for profile in (SMOKE, SMALL, PAPER)}


def resolve_profile(name: str | None = None) -> ExperimentProfile:
    """Look up a profile by name, falling back to the ``QROSS_PROFILE`` env var."""
    if name is None:
        name = os.environ.get("QROSS_PROFILE", "smoke")
    key = name.strip().lower()
    if key not in _PROFILES:
        raise ValueError(f"unknown profile {name!r}; available: {sorted(_PROFILES)}")
    return _PROFILES[key]


#: The identifiers of the bundled "TSPLIB-like" suite used in the tsplib figure.
available_profiles = tuple(sorted(_PROFILES))
