"""Fleet routing scenario: repeated TSP instances from the same depot region.

The paper motivates QROSS with industrial workloads where "instances of the
same problem are solved repeatedly" (vehicle route planning, warehouse
allocation).  This example simulates a delivery fleet: every morning a new set
of drop-off points is drawn around the same depot and clusters of customers,
and a route must be produced with a tight budget of QUBO-solver calls.

The script builds a history of past mornings, trains the surrogate once, and
then shows how many solver calls QROSS needs on new mornings compared with TPE.

Run with:  python examples/fleet_routing.py
"""

from __future__ import annotations

import numpy as np

from repro import make_solver
from repro.core.strategies.composed import ComposedStrategyConfig
from repro.core.tuner import QROSSTuner
from repro.experiments.datasets import collect_surrogate_dataset, solver_spec, train_surrogate
from repro.experiments.profiles import resolve_profile
from repro.experiments.runner import default_bounds, tune_instance
from repro.problems.tsp.generator import SyntheticTSPConfig, generate_instance
from repro.problems.tsp.qubo import TSPProblem
from repro.service import SolveService
from repro.tuning.tpe import TPETuner
from repro.utils.rng import ensure_rng


def morning_instance(day: int, num_stops: int, rng) -> TSPProblem:
    """One morning's delivery stops: clustered customers around fixed districts."""
    config = SyntheticTSPConfig(min_cities=num_stops, max_cities=num_stops, domain_size=50.0)
    instance = generate_instance(
        num_stops, distribution="clustered", config=config, rng=rng, name=f"morning-{day:03d}"
    )
    return TSPProblem(instance)


def main() -> None:
    profile = resolve_profile()
    rng = ensure_rng(profile.seed)
    num_stops = profile.min_cities
    solver = make_solver(solver_spec(profile, "da"))

    # History: past mornings the fleet has already routed.
    history_problems = [morning_instance(day, num_stops, rng) for day in range(profile.num_train_instances)]
    print(f"training the surrogate on {len(history_problems)} past mornings "
          f"({num_stops} stops each)...")
    dataset = collect_surrogate_dataset(history_problems, solver, profile)
    surrogate = train_surrogate(dataset, profile)

    # New mornings: route with a small budget of solver calls, all executed by
    # one dispatch service (the seam a real fleet backend would scale out).
    budget = min(5, profile.num_trials)
    print(f"\nrouting {3} new mornings with a budget of {budget} solver calls each\n")
    header = f"{'morning':>12} {'method':>7} {'first feasible':>15} {'best tour':>10} {'gap':>7}"
    print(header)
    print("-" * len(header))
    with SolveService(max_workers=2) as service:
        for day in range(100, 103):
            problem = morning_instance(day, num_stops, rng)
            reference = problem.reference_fitness()
            bounds = default_bounds(problem)
            tuners = {
                "QROSS": QROSSTuner(
                    surrogate, problem, bounds,
                    config=ComposedStrategyConfig(batch_size=profile.num_reads), rng=day,
                ),
                "TPE": TPETuner(bounds, rng=day),
            }
            for name, tuner in tuners.items():
                run = tune_instance(
                    problem, solver, tuner, num_trials=budget, num_reads=profile.num_reads,
                    rng=day, service=service,
                )
                best = run.best_fitness()
                first = next((i + 1 for i, t in enumerate(run) if t.is_feasible), None)
                gap = (best - reference) / reference if best is not None else float("nan")
                best_text = f"{best:.1f}" if best is not None else "none"
                print(f"{problem.name:>12} {name:>7} {str(first):>15} {best_text:>10} {gap:>7.1%}")


if __name__ == "__main__":
    main()
