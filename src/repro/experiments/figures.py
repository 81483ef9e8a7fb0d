"""Generators for every figure in the paper.

Each ``figureN_*`` function returns a plain dataclass holding the data series
the corresponding figure plots; the benchmark harness and the examples render
them as text.  Absolute values differ from the paper (the solvers are
simulated, the instances are generated offline), but the *shapes* — the ``Pf``
sigmoid, the energy dipper, QROSS leading the baselines, the cross-solver
ablation penalty, the MVC penalty-weight degradation — are what these
reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.strategies.composed import ComposedStrategyConfig
from repro.experiments.datasets import (
    ExperimentDatasets,
    build_problems,
    solver_spec,
    train_surrogate_for_solver,
)
from repro.experiments.profiles import ExperimentProfile, resolve_profile
from repro.experiments.runner import (
    ComparisonResult,
    baseline_tuner_factories,
    qross_tuner_factory,
    run_comparison,
)
from repro.problems.mvc.generator import RandomMVCConfig, generate_mvc_instance
from repro.problems.mvc.qubo import MVCProblem
from repro.problems.tsp.qubo import TSPProblem
from repro.qubo.precision import AnalogNoiseModel, QuantizationModel
from repro.service.registry import make_solver
from repro.service.service import SolveService, default_service
from repro.solvers.quantum_annealer import QuantumAnnealerConfig, QuantumAnnealerSolver
from repro.solvers.simulated_annealing import SimulatedAnnealingSolver
from repro.utils.rng import RngLike, ensure_rng


# --------------------------------------------------------------------- Fig. 1
@dataclass(frozen=True)
class LandscapeSeries:
    """``Pf`` and batch-minimum energy versus the relaxation parameter for one solver."""

    solver_name: str
    parameters: np.ndarray
    probability_of_feasibility: np.ndarray
    min_energy: np.ndarray
    best_fitness: np.ndarray


@dataclass(frozen=True)
class Figure1Result:
    """Data behind Fig. 1: the feasibility sigmoid and the energy dipper."""

    instance_name: str
    series: Dict[str, LandscapeSeries]


def figure1_landscape(
    profile: ExperimentProfile | None = None,
    problem: Optional[TSPProblem] = None,
    multipliers: Sequence[float] = (0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 2.5),
    rng: RngLike = None,
    service: Optional[SolveService] = None,
) -> Figure1Result:
    """Sweep the relaxation parameter for the DA-style and SA solvers (paper Fig. 1)."""
    profile = profile or resolve_profile()
    rng = ensure_rng(rng if rng is not None else profile.seed)
    service = service or default_service()
    if problem is None:
        problem = build_problems(profile).test_problems[0]
    scale = problem.relaxation_scale()
    parameters = np.array([m * scale for m in multipliers])

    series: Dict[str, LandscapeSeries] = {}
    for backend, label in (("da", "Digital Annealer"), ("sa", "Simulated Annealing on CPU")):
        solver = make_solver(solver_spec(profile, backend))
        pf_values, min_energies, best_fitnesses = [], [], []
        for parameter in parameters:
            model = problem.build_qubo(float(parameter))
            samples = service.sample(model, solver, num_reads=profile.num_reads, rng=rng)
            pf_values.append(samples.probability_of_feasibility(problem.is_feasible))
            min_energies.append(float(samples.energies.min()))
            fitnesses = [
                problem.fitness(a) for a in samples.assignments if problem.is_feasible(a)
            ]
            best_fitnesses.append(float(min(fitnesses)) if fitnesses else np.nan)
        series[label] = LandscapeSeries(
            solver_name=label,
            parameters=parameters,
            probability_of_feasibility=np.array(pf_values),
            min_energy=np.array(min_energies),
            best_fitness=np.array(best_fitnesses),
        )
    return Figure1Result(instance_name=problem.name, series=series)


# ---------------------------------------------------------------- Figs. 3 / 4
@dataclass(frozen=True)
class ComparisonFigure:
    """A gap-vs-trials comparison (Figs. 3, 4 and 5)."""

    title: str
    solver_backend: str
    dataset_name: str
    result: ComparisonResult


def _comparison_on(
    problems: Sequence[TSPProblem],
    profile: ExperimentProfile,
    backend: str,
    surrogate,
    dataset_name: str,
    title: str,
    rng: RngLike,
) -> ComparisonFigure:
    solver = make_solver(solver_spec(profile, backend))
    qross_config = ComposedStrategyConfig(batch_size=profile.num_reads)
    factories = {"QROSS": qross_tuner_factory(surrogate, config=qross_config)}
    factories.update(baseline_tuner_factories())
    result = run_comparison(
        problems,
        solver,
        factories,
        num_trials=profile.num_trials,
        num_reads=profile.num_reads,
        rng=rng,
    )
    return ComparisonFigure(title=title, solver_backend=backend, dataset_name=dataset_name, result=result)


def figure3_synthetic_comparison(
    profile: ExperimentProfile | None = None,
    backend: str = "da",
    datasets: ExperimentDatasets | None = None,
    surrogate=None,
    rng: RngLike = None,
) -> ComparisonFigure:
    """QROSS vs TPE / BO / Random on the synthetic test set (paper Fig. 3)."""
    profile = profile or resolve_profile()
    rng = ensure_rng(rng if rng is not None else profile.seed + 3)
    datasets = datasets or build_problems(profile)
    if surrogate is None:
        surrogate, _, _ = train_surrogate_for_solver(profile, backend, datasets.train_problems)
    return _comparison_on(
        datasets.test_problems,
        profile,
        backend,
        surrogate,
        dataset_name="synthetic",
        title="Figure 3: synthetic test instances",
        rng=rng,
    )


def figure4_tsplib_comparison(
    profile: ExperimentProfile | None = None,
    backend: str = "da",
    datasets: ExperimentDatasets | None = None,
    surrogate=None,
    rng: RngLike = None,
) -> ComparisonFigure:
    """Same comparison on the out-of-distribution TSPLIB-like suite (paper Fig. 4)."""
    profile = profile or resolve_profile()
    rng = ensure_rng(rng if rng is not None else profile.seed + 4)
    datasets = datasets or build_problems(profile)
    if surrogate is None:
        surrogate, _, _ = train_surrogate_for_solver(profile, backend, datasets.train_problems)
    return _comparison_on(
        datasets.tsplib_problems,
        profile,
        backend,
        surrogate,
        dataset_name="tsplib",
        title="Figure 4: TSPLIB-like real-world suite",
        rng=rng,
    )


# -------------------------------------------------------------------- Fig. 5
@dataclass(frozen=True)
class Figure5Result:
    """Cross-solver ablation: DA-trained surrogate evaluated on both solvers."""

    same_solver: ComparisonFigure
    cross_solver: ComparisonFigure


def figure5_cross_solver(
    profile: ExperimentProfile | None = None,
    datasets: ExperimentDatasets | None = None,
    rng: RngLike = None,
) -> Figure5Result:
    """Ablation of paper Fig. 5: train QROSS on DA data, test it with Qbsolv.

    The expected shape is a *performance lag*: the DA-trained surrogate loses
    (part of) its advantage when its proposals are evaluated by a different
    solver, because the learned ``Pf`` / energy landscapes no longer match.
    """
    profile = profile or resolve_profile()
    rng = ensure_rng(rng if rng is not None else profile.seed + 5)
    datasets = datasets or build_problems(profile)
    surrogate, _, _ = train_surrogate_for_solver(profile, "da", datasets.train_problems)
    same = _comparison_on(
        datasets.test_problems,
        profile,
        "da",
        surrogate,
        dataset_name="synthetic",
        title="Figure 5 (solid): DA-trained QROSS on DA",
        rng=rng,
    )
    cross = _comparison_on(
        datasets.test_problems,
        profile,
        "qbsolv",
        surrogate,
        dataset_name="synthetic",
        title="Figure 5 (dashed): DA-trained QROSS on Qbsolv",
        rng=rng,
    )
    return Figure5Result(same_solver=same, cross_solver=cross)


# -------------------------------------------------------------------- Fig. 6
@dataclass(frozen=True)
class Figure6Result:
    """Penalty weight versus normalised MVC energy for the noisy-QA and SA solvers."""

    penalty_weights: np.ndarray
    normalized_energy: Dict[str, np.ndarray]
    num_runs: int


def figure6_mvc_penalty(
    profile: ExperimentProfile | None = None,
    penalty_weights: Sequence[float] = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0),
    num_vertices: int | None = None,
    num_runs: int = 4,
    rng: RngLike = None,
) -> Figure6Result:
    """Reproduce Appendix B / Fig. 6: larger penalty weights degrade solution energy.

    The "QA" series uses the analog-noise + quantisation wrapped annealer; the
    "SA" series uses the plain simulated annealer whose only degradation channel
    is the relative flattening of the objective.  Energies are normalised to the
    best energy discovered across the whole run, as in the paper.
    """
    profile = profile or resolve_profile()
    if num_vertices is None:
        num_vertices = profile.mvc_num_vertices
    rng = ensure_rng(rng if rng is not None else profile.seed + 6)
    weights = np.asarray(penalty_weights, dtype=np.float64)
    if np.any(weights <= 0):
        raise ValueError("penalty weights must be positive")

    solvers = {
        "sa": SimulatedAnnealingSolver(profile.simulated_annealing_config()),
        "qa": QuantumAnnealerSolver(
            QuantumAnnealerConfig(
                noise=AnalogNoiseModel(relative_error=0.03, absolute_error=0.01),
                quantization=QuantizationModel(num_bits=8),
                base_config=profile.simulated_annealing_config(),
            )
        ),
    }
    accumulated = {name: np.zeros(weights.size) for name in solvers}
    service = default_service()

    for _ in range(num_runs):
        instance = generate_mvc_instance(
            RandomMVCConfig(
                num_vertices=num_vertices,
                edge_probability=profile.mvc_edge_probability,
            ),
            rng=rng,
        )
        problem = MVCProblem(instance)
        for name, solver in solvers.items():
            best_weights = []
            for weight in weights:
                best_fitness = service.evaluate(
                    problem, solver, float(weight), profile.num_reads, rng=rng
                ).best_fitness
                if best_fitness is None:
                    # No feasible cover found: charge the cost of the full vertex set.
                    best_fitness = float(instance.weights.sum())
                best_weights.append(best_fitness)
            best_weights = np.array(best_weights)
            baseline = best_weights.min()
            accumulated[name] += best_weights / max(baseline, 1e-12)

    normalized = {name: values / num_runs for name, values in accumulated.items()}
    return Figure6Result(penalty_weights=weights, normalized_energy=normalized, num_runs=num_runs)
