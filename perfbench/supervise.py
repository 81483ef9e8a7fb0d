"""Run a command and wait for every process it leaves behind.

A run of the ``serve`` workload starts a process pool with the ``spawn``
start method, and ``multiprocessing`` then launches a resource-tracker
process that outlives the interpreter which started it: it exits only once
that interpreter has gone.  So the benchmark runs each workload in a child
process and, as a Linux child subreaper, adopts whatever the child leaves
behind and waits for it (killing what is still running after a grace period)
before it exits itself.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import List, Sequence

#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux); False where that is unsupported."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children(pid: int) -> List[int]:
    """Processes, running or not yet reaped, whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(os.path.join("/proc", entry, "stat"), "rb") as handle:
                # The command name may hold spaces and parentheses; after the
                # last ")" come the state and then the parent pid.
                ppid = int(handle.read().rsplit(b")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            found.append(int(entry))
    return found


def reap(grace: float) -> List[int]:
    """Wait until this process has no children left.

    Children still running ``grace`` seconds from now are killed, and so are
    any they leave behind.  Returns the pids that had to be killed.
    """
    deadline = time.monotonic() + grace
    killed: List[int] = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in children(os.getpid()):
                if child not in killed:
                    try:
                        os.kill(child, signal.SIGKILL)
                    except ProcessLookupError:
                        continue
                    killed.append(child)
        time.sleep(0.01)


def _stop(signum, _frame):
    raise SystemExit(128 + signum)


def run_supervised(command: Sequence[str], limit: float, grace: float) -> int:
    """Run ``command`` with inherited stdio and return its exit code.

    The command is killed after ``limit`` seconds (exit code 1).  Either way
    this returns only once the command and every process it started have
    ended, on every path out, a terminating signal included.
    """
    become_subreaper()
    previous = {sig: signal.signal(sig, _stop) for sig in (signal.SIGTERM, signal.SIGHUP)}
    child = subprocess.Popen(list(command))
    try:
        return child.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"perfbench: the run took longer than {limit:g} s and was stopped", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        killed = reap(grace)
        if killed:
            print(f"perfbench: killed {len(killed)} process(es) left running after the run",
                  file=sys.stderr)
        for sig, handler in previous.items():
            signal.signal(sig, handler)
