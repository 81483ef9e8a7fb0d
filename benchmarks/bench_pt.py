"""Benchmark: parallel tempering vs plain SA (and tabu) on hard sparse MVC.

Time-to-target on unweighted G(n, M) minimum-vertex-cover instances — the
workload replica exchange exists for: SA commits its whole sweep budget to one
cooling pass and routinely stalls a vertex or two above the optimum cover,
while PT's temperature ladder keeps hot chains feeding basin hops to the cold
chains throughout the run.

Protocol, per instance:

* the *best-known* energy is established by a generous tabu run (tabu is the
  strongest solver in this repo on MVC and converges far beyond the annealing
  budgets used here);
* PT (one read, ``NUM_CHAINS``-rung ladder) and SA (``NUM_CHAINS`` independent
  reads — the identical number of propagated chains, identical sweep budget)
  both record per-sweep best-energy trajectories, and *sweeps to target* is
  the first sweep whose batch best reaches the best-known energy.

Asserted: PT reaches the best-known energy in fewer sweeps than SA on at
least two of the three instances (seeded, deterministic).  The wall-clock
time-to-target comparison is asserted only on machines with >= 4 cores, per
the repo's 1-CPU container convention — on one core the numbers are recorded
in the report but a box this small is not what the comparison is about.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.problems.mvc.generator import generate_sparse_mvc_instance
from repro.problems.mvc.qubo import MVCProblem
from repro.service.registry import make_solver

NUM_SWEEPS = 200
NUM_CHAINS = 8
SEED = 0

#: (num_vertices, edge_density, instance seed) — sparse graphs big enough
#: that single-pass annealing stalls above the optimum cover.
INSTANCES = [(150, 0.04, 3), (200, 0.03, 7), (250, 0.025, 9)]

PT_SPEC = (
    f"pt?num_sweeps={NUM_SWEEPS}&num_replicas={NUM_CHAINS}"
    f"&swap_interval=1&track_trajectory=true"
)
SA_SPEC = f"sa?num_sweeps={NUM_SWEEPS}&track_trajectory=true"
TABU_SPEC = "tabu?num_steps=4000"


def sweeps_to_target(trajectory, target, tol=1e-9):
    for index, energy in enumerate(trajectory):
        if energy <= target + tol:
            return index + 1
    return None


def test_pt_reaches_target_in_fewer_sweeps_than_sa(record_timing):
    cores = os.cpu_count() or 1
    lines = [
        f"time-to-target on unweighted sparse MVC ({NUM_CHAINS} chains, "
        f"{NUM_SWEEPS} sweeps budget)",
        f"  cpu cores : {cores}",
        f"  PT spec   : {PT_SPEC!r} (1 read x {NUM_CHAINS}-rung ladder)",
        f"  SA spec   : {SA_SPEC!r} ({NUM_CHAINS} independent reads)",
        f"  best-known: {TABU_SPEC!r}, 8 reads",
    ]
    pt_wins = 0
    pt_faster_wall = 0
    comparisons = 0
    for num_vertices, density, instance_seed in INSTANCES:
        problem = MVCProblem(
            generate_sparse_mvc_instance(
                num_vertices, edge_density=density, weighted=False, rng=instance_seed
            )
        )
        model = problem.build_qubo(problem.relaxation_scale())

        started = time.perf_counter()
        tabu = make_solver(TABU_SPEC).sample(
            model, num_reads=8, rng=np.random.default_rng(SEED)
        )
        tabu_s = time.perf_counter() - started
        target = tabu.best.energy

        started = time.perf_counter()
        pt = make_solver(PT_SPEC).sample(model, num_reads=1, rng=np.random.default_rng(SEED))
        pt_s = time.perf_counter() - started
        started = time.perf_counter()
        sa = make_solver(SA_SPEC).sample(
            model, num_reads=NUM_CHAINS, rng=np.random.default_rng(SEED)
        )
        sa_s = time.perf_counter() - started

        pt_sweeps = sweeps_to_target(pt.info["best_energy_trajectory"], target)
        sa_sweeps = sweeps_to_target(sa.info["best_energy_trajectory"], target)
        # Wall time to target, prorated over the recorded trajectory.
        pt_wall = None if pt_sweeps is None else pt_s * pt_sweeps / NUM_SWEEPS
        sa_wall = None if sa_sweeps is None else sa_s * sa_sweeps / NUM_SWEEPS

        comparisons += 1
        if pt_sweeps is not None and (sa_sweeps is None or pt_sweeps < sa_sweeps):
            pt_wins += 1
        if pt_wall is not None and (sa_wall is None or pt_wall < sa_wall):
            pt_faster_wall += 1

        def fmt(sweeps, wall):
            if sweeps is None:
                return f"not reached in {NUM_SWEEPS} sweeps"
            return f"{sweeps} sweeps ({wall * 1e3:.0f} ms)"

        lines += [
            f"  n={num_vertices} density={density} seed={instance_seed}: "
            f"best-known {target:.1f} (tabu {tabu_s:.2f} s)",
            f"    PT : best {pt.best.energy:.1f}, target after {fmt(pt_sweeps, pt_wall)}, "
            f"{pt.info['swaps_accepted']}/{pt.info['swaps_proposed']} swaps accepted",
            f"    SA : best {sa.best.energy:.1f}, target after {fmt(sa_sweeps, sa_wall)}",
        ]

    lines.append(
        f"  PT reached best-known first on {pt_wins}/{comparisons} instances "
        f"(wall-clock first on {pt_faster_wall}/{comparisons})"
    )
    if cores < 4:
        lines.append(
            f"  note: only {cores} core(s) — wall-clock comparison recorded, "
            f"not asserted (needs >= 4)"
        )
    record_timing("bench_pt", "\n".join(lines))

    assert pt_wins >= 2, (
        f"parallel tempering beat SA to the best-known energy on only "
        f"{pt_wins}/{comparisons} instances (expected >= 2)"
    )
    if cores >= 4:
        assert pt_faster_wall >= 2, (
            f"parallel tempering was wall-clock-faster to target on only "
            f"{pt_faster_wall}/{comparisons} instances (expected >= 2 on "
            f"{cores} cores)"
        )
