"""What a spawned worker and a bare ``import repro`` load.

A ``process``-backend worker imports :mod:`repro.service.remote.worker` and
builds the default solver registry; nothing on that path, nor in an engine
call, may import ``repro.core``, ``repro.tuning`` or ``repro.experiments``
(and their scipy modules) at module level, or every worker start pays about
a second for code no engine call runs.  Each check runs in a fresh
interpreter, because the test session itself has imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

ENGINE_SPECS = (
    "sa?num_sweeps=10",
    "da?num_steps=40",
    "tabu?num_steps=40",
    "qbsolv?max_rounds=1",
    "pt?num_sweeps=10",
    "qa",
    "random",
)

OFF_THE_WORKER_PATH = (
    "repro.core",
    "repro.nn",
    "repro.tuning",
    "repro.experiments",
    "scipy.stats",
    "scipy.optimize",
    "scipy.linalg",
    "scipy.spatial",
    "scipy.sparse.csgraph",
)


def _loaded_after(script: str, watched) -> list:
    """Names in ``watched`` that ``sys.modules`` holds after ``script`` runs."""
    probe = (
        f"{script}\nimport json, sys\n"
        f"print(json.dumps([m for m in {list(watched)!r} if m in sys.modules]))\n"
    )
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_worker_engine_calls_import_no_tuning_code():
    script = (
        "import repro.service.remote.worker\n"
        "from repro.qubo.model import random_qubo\n"
        "from repro.service.registry import SolverRegistry\n"
        "registry = SolverRegistry.default()\n"
        "models = [random_qubo(12, rng=0),\n"
        "          random_qubo(600, density=0.02, rng=1, storage='sparse')]\n"
        "assert [m.storage for m in models] == ['dense', 'sparse']\n"
        f"for spec in {ENGINE_SPECS!r}:\n"
        "    for model in models:\n"
        "        assert len(registry.from_spec(spec).sample(model, 4, rng=7)) == 4\n"
    )
    assert _loaded_after(script, OFF_THE_WORKER_PATH) == []


def test_bare_import_loads_no_subpackage():
    watched = ("repro.core", "repro.tuning", "repro.portfolio", "scipy.stats")
    assert _loaded_after("import repro", watched) == []


def test_public_names_resolve_to_their_home_objects():
    listed = dir(repro)
    for name in repro.__all__:
        value = getattr(repro, name)
        assert name in listed
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
