#!/usr/bin/env python3
"""Repository benchmark: the paper's tuning loop, solve-service traffic and a
large sparse collection sweep, each layer timed from outside the program.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload tsp-loop --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the workload twice on the same inputs, untraced and then traced into
``.perfbench/trace-<workload>.jsonl``, and reports the per-layer metrics of
the traced half.  Every metric is printed by name with its unit; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

from measure import Ratio, SpanTree, median

WORKLOAD_NAMES = ("tsp-loop", "serve", "mvc-sweep")
#: Program knobs that can change a workload, recorded with every result.
#: Every ``QROSS_*`` variable is cleared before the program is imported.
KNOBS = (
    "QROSS_EXECUTION_BACKEND",
    "QROSS_READ_WORKERS",
    "QROSS_ENGINE_DTYPE",
    "QROSS_ARRAY_BACKEND",
    "QROSS_COMPARISON_SOLVER",
    "QROSS_PROFILE",
    "QROSS_MAX_PENDING",
    "QROSS_TRACE",
    "QROSS_ENGINE_PROFILE",
)
TRACE_ENV = "QROSS_TRACE"
#: Set-up is timed at least this many times and for at least this many
#: seconds, both before the timed work and again after it; ``setup_s`` is the
#: median.  A set-up of a few milliseconds repeated back to back samples one
#: moment of the host's speed, which drifts over seconds on a shared host.
SETUP_REPEATS = 3
SETUP_SPAN_S = 1.0
#: Where traced runs write their span sink, relative to the checkout root.
OUT_DIR = ".perfbench"
#: A run is stopped after this many seconds; with the grace for the processes
#: it leaves behind, the command ends within 180 s.
RUN_LIMIT_S = 165.0
REAP_GRACE_S = 10.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set on the child process that runs the workload (see supervise.py).
    parser.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


#: Native thread pools pinned to one thread.  On a 2-core host OpenBLAS
#: threads spinning in small products burn twice the CPU for a slower result
#: and make run-to-run times noisy; pool workers inherit the pin.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin_environment() -> list:
    """Clear every ``QROSS_*`` knob so that runs measure the program's defaults."""
    cleared = sorted(name for name in os.environ if name.startswith("QROSS_"))
    for name in cleared:
        del os.environ[name]
    os.environ.update(THREAD_PINS)
    return cleared


def git_sha(root: str):
    """HEAD's commit read from ``.git`` directly; None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def src_digest(root: str) -> str:
    """Hash of the program's Python sources: names the code when git cannot."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_record(root: str, cleared: list) -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
        "src_sha256": src_digest(root),
        "knobs": {name: os.environ.get(name) for name in KNOBS + tuple(THREAD_PINS)},
        "knobs_cleared": cleared,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(workload, seed: int, repeats: int, span: float = 0.0):
    """Build fresh inputs at least ``repeats`` times and for at least ``span``
    seconds; keep the last, time every one."""
    state, times = None, []
    started = time.perf_counter()
    while len(times) < repeats or time.perf_counter() - started < span:
        if state is not None:
            workload.teardown(state)
        began = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - began)
    return state, times


def measure_once(workload, args, repeats: int, span: float = 0.0, replay=None, sink=None):
    """Set up, run and check one workload.

    With ``span``, set-up is timed again after the run, so that ``setup_s``
    samples the host both before and after the timed work.  With ``sink``
    (tracing on), set-up spans are dropped and the sink is read back as soon
    as the timed work ends, before anything else is traced.
    """
    state, setup_times = set_up(workload, args.seed, repeats, span)
    tree = None
    try:
        if sink is not None:
            os.truncate(sink, 0)
        run = workload.run(state, args.seconds, replay=replay)
        if sink is not None:
            from repro import obs

            tree = SpanTree.from_file(sink)
            obs.configure_tracing(None)
        report = workload.report(state, run)
    finally:
        workload.teardown(state)
    if span:
        again, times = set_up(workload, args.seed, repeats, span)
        workload.teardown(again)
        setup_times += times
    return state, run, report, setup_times, tree


def show(workload: str, name: str, value, unit: str, note: str = "") -> None:
    if isinstance(value, Ratio):
        value, note = value.value, f"{value.describe()} {note}".strip()
    print(f"[{workload}] {name:<28} {value:>14.6g} {unit:<16} {note}".rstrip())


def end_to_end(workload, args):
    _, run, report, setup_times, _ = measure_once(workload, args, SETUP_REPEATS, SETUP_SPAN_S)
    checks = report.checks
    metrics = dict(report.metrics)
    metrics["setup_s"] = median(setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["ok_ratio"] = Ratio(checks.attempted - checks.failed, checks.attempted).value
    name = workload.name
    show(name, "setup_s", metrics["setup_s"], "s",
         f"median of {len(setup_times)} set-ups, min {min(setup_times):.4f}, "
         f"max {max(setup_times):.4f}")
    show(name, "peak_rss_mb", metrics["peak_rss_mb"], "MiB", "peak RSS of the benchmark process")
    show(name, "fail_ratio", Ratio(checks.failed, checks.attempted), "failed/attempted")
    for line in report.lines:
        show(name, *line)
    return checks, metrics


def per_layer(workload, args, root: str):
    from repro import obs
    from layers import layer_metrics

    # Untraced half: the same work without spans, the base of the overhead ratio.
    _, base, base_report, _, _ = measure_once(workload, args, 1)
    sink = os.path.join(root, OUT_DIR, f"trace-{workload.name}.jsonl")
    os.makedirs(os.path.dirname(sink), exist_ok=True)
    open(sink, "w").close()
    # The environment, not configure_tracing(): spawned pool workers read it.
    os.environ[TRACE_ENV] = sink
    obs.reset_tracing()
    try:
        state, run, report, _, tree = measure_once(workload, args, 1, replay=base, sink=sink)
    finally:
        del os.environ[TRACE_ENV]
        obs.reset_tracing()
    checks = base_report.checks
    checks.merge(report.checks)
    metrics = layer_metrics(workload, state, run, report, tree, base.wall)
    name = workload.name
    print(f"# traced half: {len(tree.spans)} spans in {os.path.relpath(sink, root)}, "
          f"{tree.malformed} malformed lines; untraced {base.wall:.3f} s, traced {run.wall:.3f} s")
    for line in report.lines:
        show(name, *line)
    return checks, metrics


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro in the working directory; run it from the root of "
              "a repository checkout", file=sys.stderr)
        return 2
    if not args.supervised:
        from supervise import run_supervised

        command = [sys.executable, os.path.abspath(__file__), *argv, "--supervised"]
        return run_supervised(command, RUN_LIMIT_S, REAP_GRACE_S)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    cleared = pin_environment()
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads  # imports the program, so only after the environment is pinned

    workload = workloads.WORKLOADS[args.workload]()
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# host " + json.dumps(host_record(root, cleared), sort_keys=True))
    try:
        checks, metrics = (per_layer(workload, args, root) if args.trace
                           else end_to_end(workload, args))
        for entry in declared:
            show(args.workload, entry["name"], metrics[entry["name"]], entry["unit"])
    except Exception:
        traceback.print_exc()
        print(json.dumps({
            "correct": False, "attempted": 1, "failed": 1,
            "metrics": {e["name"]: {"value": 0.0, "unit": e["unit"]} for e in declared},
        }))
        return 1
    for reason in checks.reasons:
        print(f"[{args.workload}] FAILED {reason}")
    values = {
        entry["name"]: float(getattr(metrics[entry["name"]], "value", metrics[entry["name"]]))
        for entry in declared
    }
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": int(checks.attempted),
        "failed": int(checks.failed),
        "metrics": {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
