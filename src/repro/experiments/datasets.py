"""Dataset and surrogate construction helpers shared by every experiment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.dataset import SamplingPlan, SurrogateDataset, collect_training_data
from repro.core.features import TSPStatisticsExtractor
from repro.core.surrogate import SolverSurrogate, SurrogateConfig
from repro.experiments.profiles import ExperimentProfile
from repro.problems.tsp.generator import SyntheticTSPConfig, generate_dataset
from repro.problems.tsp.qubo import TSPProblem
from repro.problems.tsp.tsplib import bundled_tsplib_suite
from repro.service.registry import SolverRegistry, make_solver
from repro.solvers.base import QUBOSolver
from repro.utils.rng import RngLike, ensure_rng


def solver_spec(profile: ExperimentProfile, backend: str) -> str:
    """Registry spec string of the profile-sized solver for ``backend``.

    ``backend`` is any registry name or alias (``"da"``, ``"pt"``,
    ``"qbsolv"``, ``"sa"``, ``"tabu"``, ``"qa"``, ``"random"``,
    ``"portfolio"``) and the profile supplies the sized config; build the
    solver with :func:`repro.make_solver`.  The spec form is also what
    crosses process boundaries: the out-of-process execution backends ship
    it to their workers — spawned localhost ones and a remote TCP fleet
    alike — which re-resolve a solver with the identical config fingerprint.
    """
    registry = SolverRegistry.default()
    name = registry.canonical_name(backend)
    config_factories = {
        "da": profile.digital_annealer_config,
        "pt": profile.parallel_tempering_config,
        "qbsolv": profile.qbsolv_config,
        "sa": profile.simulated_annealing_config,
        "tabu": profile.tabu_search_config,
        "qa": profile.quantum_annealer_config,
        "portfolio": profile.portfolio_config,
    }
    factory = config_factories.get(name)
    solver = registry.create(name, config=factory() if factory is not None else None)
    return registry.spec_for(solver)


@dataclass(frozen=True)
class ExperimentDatasets:
    """Train/test problem splits used by the comparison experiments."""

    train_problems: tuple[TSPProblem, ...]
    test_problems: tuple[TSPProblem, ...]
    tsplib_problems: tuple[TSPProblem, ...]


def build_problems(profile: ExperimentProfile) -> ExperimentDatasets:
    """Generate the synthetic train/test split and the TSPLIB-like suite."""
    config = SyntheticTSPConfig(min_cities=profile.min_cities, max_cities=profile.max_cities)
    total = profile.num_train_instances + profile.num_test_instances
    instances = generate_dataset(total, config=config, rng=profile.seed)
    train = instances[: profile.num_train_instances]
    test = instances[profile.num_train_instances :]
    tsplib = bundled_tsplib_suite(max_cities=profile.tsplib_max_cities, seed=profile.seed)
    return ExperimentDatasets(
        train_problems=tuple(TSPProblem(instance) for instance in train),
        test_problems=tuple(TSPProblem(instance) for instance in test),
        tsplib_problems=tuple(TSPProblem(instance) for instance in tsplib),
    )


def sampling_plan(profile: ExperimentProfile) -> SamplingPlan:
    """Sampling plan for surrogate data collection derived from the profile."""
    return SamplingPlan(
        coarse_multipliers=profile.coarse_multipliers,
        num_refinement_points=profile.num_refinement_points,
        num_reads=profile.num_reads,
    )


def collect_surrogate_dataset(
    problems: Sequence[TSPProblem],
    solver: QUBOSolver,
    profile: ExperimentProfile,
    rng: RngLike = None,
) -> SurrogateDataset:
    """Run the solver over the training instances to build the surrogate dataset."""
    rng = ensure_rng(rng if rng is not None else profile.seed)
    extractor = TSPStatisticsExtractor()
    return collect_training_data(
        list(problems), solver, extractor=extractor, plan=sampling_plan(profile), rng=rng
    )


def train_surrogate(
    dataset: SurrogateDataset,
    profile: ExperimentProfile,
    rng: RngLike = None,
) -> SolverSurrogate:
    """Train a solver surrogate on a collected dataset."""
    surrogate = SolverSurrogate(
        TSPStatisticsExtractor(),
        config=SurrogateConfig(num_epochs=profile.surrogate_epochs),
        rng=profile.seed if rng is None else rng,
    )
    surrogate.fit(dataset, rng=profile.seed if rng is None else rng)
    return surrogate


def train_surrogate_for_solver(
    profile: ExperimentProfile,
    backend: str,
    train_problems: Sequence[TSPProblem] | None = None,
    rng: RngLike = None,
) -> tuple[SolverSurrogate, QUBOSolver, SurrogateDataset]:
    """End-to-end helper: build datasets, collect solver data, train the surrogate."""
    solver = make_solver(solver_spec(profile, backend))
    if train_problems is None:
        train_problems = build_problems(profile).train_problems
    dataset = collect_surrogate_dataset(train_problems, solver, profile, rng=rng)
    surrogate = train_surrogate(dataset, profile, rng=rng)
    return surrogate, solver, dataset
