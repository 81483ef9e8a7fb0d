"""The supervisor returns only after every process a run started has ended."""

import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _orphan_pid_and_exit_code(sleep_s: float, grace_s: float):
    """Supervise a child that starts a sleeping grandchild and exits at once.

    The supervisor runs in its own interpreter, so becoming a subreaper does
    not change the test process.  Returns the grandchild's pid, the
    supervisor's exit code and its wall time.
    """
    grandchild = f"import time; time.sleep({sleep_s})"
    child = (
        "import subprocess, sys; "
        f"p = subprocess.Popen([sys.executable, '-c', {grandchild!r}], stdout=subprocess.DEVNULL); "
        "print(p.pid, flush=True)"
    )
    supervisor = (
        "import sys, supervise; "
        f"sys.exit(supervise.run_supervised([sys.executable, '-c', {child!r}], 60, {grace_s}))"
    )
    started = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-c", supervisor], cwd=HERE, capture_output=True, text=True, timeout=60
    )
    return int(result.stdout.split()[0]), result.returncode, time.monotonic() - started


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_waits_for_a_grandchild_that_outlives_the_run():
    pid, code, wall = _orphan_pid_and_exit_code(sleep_s=0.5, grace_s=30)
    assert code == 0
    assert wall >= 0.5
    assert _gone(pid)


def test_kills_a_grandchild_still_running_after_the_grace():
    pid, code, wall = _orphan_pid_and_exit_code(sleep_s=120, grace_s=0.3)
    assert code == 0
    assert wall < 30
    assert _gone(pid)
