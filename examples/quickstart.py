"""Quickstart: tune the TSP relaxation parameter with QROSS in five steps.

0. solve one QUBO with the one-call ``repro.solve`` service API,
1. generate a collection of "historical" TSP instances,
2. collect solver data on them (the expensive, offline part),
3. train the solver surrogate,
4. let QROSS propose relaxation parameters for a *new* instance, and
5. compare the result with a random-search baseline.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.core.strategies.composed import ComposedStrategyConfig
from repro.core.tuner import QROSSTuner
from repro.experiments.datasets import (
    build_problems,
    collect_surrogate_dataset,
    solver_spec,
    train_surrogate,
)
from repro.experiments.profiles import resolve_profile
from repro.experiments.runner import default_bounds, tune_instance
from repro.service import SolveService
from repro.tuning.random_search import RandomSearchTuner


def main() -> None:
    profile = resolve_profile()  # "smoke" unless QROSS_PROFILE says otherwise
    print(f"profile: {profile.name}")

    # 1. Historical instances (training) and a fresh instance to solve (test).
    datasets = build_problems(profile)
    new_problem = datasets.test_problems[0]
    print(f"training instances: {len(datasets.train_problems)}, new instance: {new_problem.name}")

    # 0. One call through the solve service: solver spec, reads, seed, done.
    # The relaxed QUBO H_B + A*H_A is composed lazily from the problem's
    # cached sparse-first encoding, on a service worker.
    result = repro.solve(
        problem=new_problem,
        solver="sa",
        num_sweeps=profile.sa_num_sweeps,
        relaxation_parameter=new_problem.relaxation_scale(),
        num_reads=profile.num_reads,
        seed=profile.seed,
    )
    feasible = new_problem.is_feasible(result.best_assignment)
    print(
        f"repro.solve at A = relaxation scale: best energy {result.best_energy:.2f} "
        f"({'feasible' if feasible else 'infeasible'} tour)"
    )

    # 2.-3. Collect solver data and train the surrogate for the DA-style solver.
    solver = repro.make_solver(solver_spec(profile, "da"))
    dataset = collect_surrogate_dataset(datasets.train_problems, solver, profile)
    print(f"collected {len(dataset)} solver calls for training: {dataset.summary()}")
    surrogate = train_surrogate(dataset, profile)

    # 4. QROSS proposes parameters for the new instance.
    bounds = default_bounds(new_problem)
    qross = QROSSTuner(
        surrogate,
        new_problem,
        bounds,
        config=ComposedStrategyConfig(batch_size=profile.num_reads),
        rng=0,
    )
    print(f"offline proposals (no solver calls needed): "
          f"{[round(a, 2) for a in qross.offline_candidates()]}")
    # Both tuning loops share one solve service; every solver call flows
    # through its thread pool and per-run evaluation cache.
    with SolveService(max_workers=2) as service:
        qross_history = tune_instance(
            new_problem, solver, qross,
            num_trials=profile.num_trials, num_reads=profile.num_reads, rng=0,
            service=service,
        )

        # 5. Baseline for comparison.
        random_history = tune_instance(
            new_problem,
            solver,
            RandomSearchTuner(bounds, rng=0),
            num_trials=profile.num_trials,
            num_reads=profile.num_reads,
            rng=0,
            service=service,
        )

    reference = new_problem.reference_fitness()
    print(f"\nreference (near-optimal) tour length: {reference:.2f}")
    for name, history in (("QROSS", qross_history), ("Random", random_history)):
        best = history.best_fitness()
        first_feasible = next(
            (i + 1 for i, t in enumerate(history) if t.is_feasible), None
        )
        gap = (best - reference) / reference if best is not None else np.nan
        print(
            f"{name:>6}: best tour {best:.2f} (gap {gap:.1%}), "
            f"first feasible solution at trial {first_feasible}"
        )


if __name__ == "__main__":
    main()
