"""The environment variables the program reads: a pinned list, each documented.

Adding a ``QROSS_*`` knob is a deliberate edit of :data:`KNOBS` here and of
README.md, not something a change slips in.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KNOBS = {
    "QROSS_EXECUTION_BACKEND",
    "QROSS_ENGINE_DTYPE",
    "QROSS_TRACE",
    "QROSS_REMOTE_WORKERS",
    "QROSS_LOG_LEVEL",
    "QROSS_COMPARISON_SOLVER",
    "QROSS_MAX_PENDING",
    "QROSS_PROFILE",
}


def test_src_names_exactly_the_pinned_knobs():
    named = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        named.update(re.findall(r"QROSS_[A-Z0-9_]+", path.read_text(encoding="utf-8")))
    assert named == KNOBS


def test_readme_names_every_knob():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert sorted(k for k in KNOBS if not re.search(rf"\b{k}\b", readme)) == []
