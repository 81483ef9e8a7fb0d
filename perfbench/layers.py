"""Per-layer metrics of a traced run: probe timings plus span self times.

Self time is a span's duration minus the part of it its children cover
(``measure.self_time``).  A layer the workload does not exercise reads 0.
"""

from __future__ import annotations

from typing import Dict, List

from measure import Ratio, SpanTree, median
from workloads import METHODS, SMOKE, engine_solver_names

ENGINE_SOLVERS = ("da", "qbsolv", "sa", "tabu")


def _mean_ms(seconds: List[float]) -> float:
    return 1e3 * sum(seconds) / len(seconds) if seconds else 0.0


def _p50_ms(seconds: List[float]) -> float:
    return 1e3 * median(seconds) if seconds else 0.0


def _sized(tree: SpanTree, span) -> float:
    """QUBO size of the nearest enclosing benchmark span that records one."""
    sized = tree.ancestor(span, lambda parent: "n" in parent.attrs)
    return float(sized.attrs["n"]) if sized is not None else 0.0


def layer_metrics(workload, state, run, report, tree: SpanTree, untraced_wall: float) -> Dict[str, object]:
    timings = state.timings
    out: Dict[str, object] = {
        "qubo.encode_ms": timings.mean_ms("qubo.encode"),
        "qubo.encode_calls": timings.count("qubo.encode"),
        "qubo.relax_ms": timings.mean_ms("qubo.relax"),
        "qubo.relax_calls": timings.count("qubo.relax"),
        "core.collect_self_s": sum(
            tree.self_time(span, "engine.sample") for span in tree.named("bench.collect")
        ),
        "core.slope_ratio": Ratio(0, 0),
        "core.slope_records": 0,
        "core.fit_s": timings.total("core.fit"),
        "core.predict_ms": timings.mean_ms("core.predict"),
        "core.predict_calls": timings.count("core.predict"),
        "tuning.suggest_calls": sum(timings.count(f"tuning.suggest.{m}") for m in METHODS),
        "tuning.trials": 0,
        "experiments.gap_auc": 0.0,
        "service.evaluate_calls": timings.count("service.evaluate"),
        "service.evaluate_self_ms": _mean_ms(
            [tree.self_time(span) for span in tree.named("bench.service.evaluate")]
        ),
        "service.cache_hit_ratio": Ratio(0, 0),
        "service.cache_lookups": 0,
        "service.peak_pending": 0,
        "service.failed": 0,
        "wire.request_kb": 0.0,
        "wire.reply_kb": 0.0,
    }
    for method in METHODS:
        out[f"tuning.suggest_ms.{method}"] = timings.mean_ms(f"tuning.suggest.{method}")
        out[f"tuning.feasible_ratio.{method}"] = Ratio(0, 0)

    solves = tree.named("service.solve")
    out["service.solve_self_ms"] = _p50_ms([tree.self_time(s, "worker.solve") for s in solves])
    out["service.solve_calls"] = len(solves)
    # Client-side latency of a submit minus its service.solve span: queueing,
    # admission and future hand-off.
    submits = [s for s in tree.named("bench.request") if s.attrs.get("kind") != "evaluate"]
    out["service.wait_ms"] = _p50_ms([tree.self_time(s, "service.solve") for s in submits])
    workers = tree.named("worker.solve")
    out["worker.solve_self_ms"] = _p50_ms([tree.self_time(s, "engine.sample") for s in workers])
    out["worker.solve_calls"] = len(workers)

    names = engine_solver_names()
    durations: Dict[str, List[float]] = {solver: [] for solver in ENGINE_SOLVERS}
    da_steps = sa_sweeps = da_time = sa_time = busy = 0.0
    for span in tree.top_level("engine.sample"):
        busy += span.duration
        solver = names.get(str(span.attrs.get("solver")))
        if solver is None:
            continue
        durations[solver].append(span.duration)
        reads = float(span.attrs.get("num_reads", 0))
        if solver == "da":
            da_steps += SMOKE.da_steps_per_variable * _sized(tree, span) * reads
            da_time += span.duration
        elif solver == "sa":
            sa_sweeps += SMOKE.sa_num_sweeps * reads
            sa_time += span.duration
    for solver in ENGINE_SOLVERS:
        out[f"engine.sample_ms.{solver}"] = _mean_ms(durations[solver])
        out[f"engine.sample_calls.{solver}"] = len(durations[solver])
    out["engine.steps_per_s.da"] = da_steps / da_time if da_time else 0.0
    out["engine.sweeps_per_s.sa"] = sa_sweeps / sa_time if sa_time else 0.0
    # Engine time over the engine lanes the workload has (pool workers for
    # serve, one in-process caller otherwise): a ceiling on engine-only gains.
    out["engine.share"] = Ratio(busy, run.wall * workload.lanes)
    out["obs.trace_overhead_ratio"] = Ratio(run.wall, untraced_wall)
    out["obs.orphan_spans"] = len(tree.orphans())
    out.update(report.layers)
    return out
