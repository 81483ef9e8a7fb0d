"""Landscape study (paper Fig. 1): how the relaxation parameter shapes solver behaviour.

Sweeps the relaxation parameter for one TSP instance on both the
Digital-Annealer-style solver and plain simulated annealing, printing the
probability of feasibility (the sigmoid) and the best energy (the dipper), and
then shows the same landscape as *predicted* by a trained surrogate — the
"predict the landscape without calling the solver" feature from the paper's
introduction.  A final section re-measures the sigmoid by submitting the whole
sweep to a :class:`~repro.service.SolveService` in one ``map_requests`` call.

Run with:  python examples/landscape_study.py
"""

from __future__ import annotations

import numpy as np

from repro.experiments.datasets import build_problems, train_surrogate_for_solver
from repro.experiments.figures import figure1_landscape
from repro.experiments.profiles import resolve_profile
from repro.experiments.reporting import format_figure1, format_table, sparkline
from repro.service import SolveRequest, SolveService


def main() -> None:
    profile = resolve_profile()
    datasets = build_problems(profile)
    problem = datasets.test_problems[0]

    print("== Measured landscape (solver calls) ==")
    result = figure1_landscape(profile, problem=problem, rng=profile.seed)
    print(format_figure1(result))

    print("\n== The same sweep as one batched service submission ==")
    scale = problem.relaxation_scale()
    sweep = np.linspace(0.2, 2.5, 12) * scale
    requests = [
        SolveRequest(
            problem=problem,
            relaxation_parameter=float(a),
            solver="da",
            num_reads=profile.num_reads,
            seed=profile.seed + i,
            label=f"A={a:.3g}",
        )
        for i, a in enumerate(sweep)
    ]
    with SolveService(max_workers=4) as service:
        results = service.map_requests(requests)
    pf = np.array(
        [r.samples.probability_of_feasibility(problem.is_feasible) for r in results]
    )
    print(f"{len(requests)} seeded requests executed across the pool")
    print("measured Pf sigmoid:  " + sparkline(pf))

    print("\n== Surrogate-predicted landscape (no solver calls) ==")
    surrogate, _, _ = train_surrogate_for_solver(profile, "da", datasets.train_problems)
    scale = problem.relaxation_scale()
    grid = np.linspace(0.1, 3.0, 24) * scale
    prediction = surrogate.predict(problem, grid)
    rows = [
        [f"{a:.3g}", f"{pf:.2f}", f"{mean:.4g}", f"{std:.3g}"]
        for a, pf, mean, std in zip(
            grid,
            prediction.probability_of_feasibility,
            prediction.energy_mean,
            prediction.energy_std,
        )
    ]
    print(format_table(["A", "predicted Pf", "predicted Eavg", "predicted Estd"], rows))
    print("\npredicted Pf sigmoid: " + sparkline(prediction.probability_of_feasibility))
    print("predicted Eavg curve: " + sparkline(prediction.energy_mean))


if __name__ == "__main__":
    main()
