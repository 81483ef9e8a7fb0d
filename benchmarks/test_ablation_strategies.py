"""Ablation benchmark: which part of the composed QROSS strategy does the work?

This covers the design-choice ablations listed in DESIGN.md: the composed
schedule (MFS + PBS + OFS) is compared against MFS-only and PBS-only variants
on the synthetic test set, using the same trained surrogate and solver.
"""

from __future__ import annotations

import numpy as np

from repro.core.strategies.composed import ComposedStrategyConfig
from repro.experiments.datasets import build_problems, train_surrogate_for_solver
from repro.experiments.reporting import format_gap_summaries
from repro.experiments.runner import qross_tuner_factory, run_comparison


def _run_ablation(profile):
    datasets = build_problems(profile)
    surrogate, solver, _ = train_surrogate_for_solver(profile, "da", datasets.train_problems)
    factories = {
        "QROSS-composed": qross_tuner_factory(
            surrogate, ComposedStrategyConfig(batch_size=profile.num_reads)
        ),
        "QROSS-MFS-only": qross_tuner_factory(
            surrogate,
            ComposedStrategyConfig(use_minimum_fitness=True, pf_targets=(), batch_size=profile.num_reads),
        ),
        "QROSS-PBS-only": qross_tuner_factory(
            surrogate,
            ComposedStrategyConfig(
                use_minimum_fitness=False, pf_targets=(0.8, 0.5, 0.2), batch_size=profile.num_reads
            ),
        ),
    }
    return run_comparison(
        datasets.test_problems,
        solver,
        factories,
        num_trials=profile.num_trials,
        num_reads=profile.num_reads,
        rng=profile.seed + 7,
    )


def test_strategy_mixture_ablation(benchmark, profile, record_report):
    result = benchmark.pedantic(_run_ablation, args=(profile,), rounds=1, iterations=1)
    summaries = result.summaries()
    checkpoints = (1, 3, profile.num_trials)
    record_report("ablation_strategy_mixture", format_gap_summaries(summaries, checkpoints))

    assert set(summaries) == {"QROSS-composed", "QROSS-MFS-only", "QROSS-PBS-only"}
    for summary in summaries.values():
        assert np.all(np.diff(summary.mean) <= 1e-9)
    # All variants find feasible solutions by the end of the budget; the
    # composed schedule is never worse than the MFS-only variant at the end.
    composed = summaries["QROSS-composed"]
    assert composed.mean[-1] <= summaries["QROSS-MFS-only"].mean[-1] + 0.05
    assert composed.mean[-1] < 1.0
