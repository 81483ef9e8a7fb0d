"""Solver generalisation study (paper Section 5.3 and Fig. 5).

Trains one surrogate per solver backend (DA-style and Qbsolv-style), then
evaluates each surrogate with each solver on the synthetic test set.  The
diagonal entries ("trained on X, evaluated on X") should beat the off-diagonal
ones — the paper's ablation showing that the learned knowledge is
solver-specific.

Run with:  python examples/solver_comparison.py
"""

from __future__ import annotations

from repro import make_solver
from repro.core.strategies.composed import ComposedStrategyConfig
from repro.experiments.datasets import build_problems, solver_spec, train_surrogate_for_solver
from repro.experiments.profiles import resolve_profile
from repro.experiments.reporting import format_table
from repro.experiments.runner import qross_tuner_factory, run_comparison
from repro.service import SolveService


def main() -> None:
    profile = resolve_profile()
    datasets = build_problems(profile)
    backends = ("da", "qbsolv")

    print("training one surrogate per solver backend...")
    surrogates = {}
    for backend in backends:
        surrogates[backend], _, _ = train_surrogate_for_solver(
            profile, backend, datasets.train_problems
        )

    checkpoint = min(3, profile.num_trials)
    rows = []
    # One solve service executes every (surrogate, solver) cell; each solver
    # is built from its profile-sized registry spec.
    with SolveService() as service:
        for trained_on in backends:
            for evaluated_on in backends:
                factories = {
                    "QROSS": qross_tuner_factory(
                        surrogates[trained_on], ComposedStrategyConfig(batch_size=profile.num_reads)
                    )
                }
                result = run_comparison(
                    datasets.test_problems,
                    make_solver(solver_spec(profile, evaluated_on)),
                    factories,
                    num_trials=checkpoint,
                    num_reads=profile.num_reads,
                    rng=profile.seed,
                    service=service,
                )
                gap = result.summary("QROSS").at_trial(checkpoint)
                rows.append([trained_on, evaluated_on, f"{gap:.1%}"])

    print()
    print(format_table(["surrogate trained on", "evaluated with", f"gap@{checkpoint}"], rows))
    print(
        "\nExpected shape: the diagonal (trained and evaluated on the same solver)"
        "\nshows a gap no worse than the corresponding off-diagonal entry."
    )


if __name__ == "__main__":
    main()
