"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one figure or table from the paper on the
profile selected by the ``QROSS_PROFILE`` environment variable (``smoke`` by
default, ``small`` / ``paper`` for larger runs).  The rendered text report of
every seeded experiment is written to ``benchmarks/results/`` and echoed to
stdout so ``pytest benchmarks/ --benchmark-only`` leaves a readable record.
Timing reports, whose numbers change from run to run, go to the untracked
``benchmarks/results/timing/`` instead.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import pytest

from repro.experiments.profiles import ExperimentProfile, resolve_profile

RESULTS_DIR = Path(__file__).parent / "results"
TIMING_DIR = RESULTS_DIR / "timing"


def pytest_collection_modifyitems(items):
    """Every benchmark is a figure/table reproduction or a timing run — all slow.

    Marking them here (instead of per-module) keeps ``-m "not slow"`` as the
    one-flag fast pre-commit invocation documented in ROADMAP.md.  The hook
    receives the whole session's items, so restrict to this directory.
    """
    here = Path(__file__).parent
    for item in items:
        if here in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def profile() -> ExperimentProfile:
    """Experiment profile shared by every benchmark in the session."""
    return resolve_profile()


def _recorder(directory: Path) -> Callable[[str, str], None]:
    """Write ``name.txt`` under ``directory`` and echo it for the benchmark log."""

    def _record(name: str, text: str) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.txt").write_text(text + "\n")
        print(f"\n===== {name} =====\n{text}\n")

    return _record


@pytest.fixture(scope="session")
def record_report() -> Callable[[str, str], None]:
    """Persist a seeded report (tracked: it must not change between runs)."""
    return _recorder(RESULTS_DIR)


@pytest.fixture(scope="session")
def record_timing() -> Callable[[str, str], None]:
    """Persist a timing report (untracked: its numbers vary run to run)."""
    return _recorder(TIMING_DIR)
