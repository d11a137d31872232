"""Every process a run starts has ended before the run exits.

The shipped server starts shard processes and a ``multiprocessing``
resource tracker, and so do the traced run's ``spawn`` passes.  A
resource tracker ends only after its parent has, so it is orphaned on
every stop and would be re-parented out of the run's reach.  The run
therefore marks itself a child subreaper (Linux ``prctl``): every orphan
of its process tree becomes its child, and :func:`reap_children` waits
for all of them before the run exits.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import signal
import sys
import time
from pathlib import Path

#: ``prctl`` option that makes orphaned descendants re-parent to the caller.
PR_SET_CHILD_SUBREAPER = 36

#: How long children get to end by themselves before they are killed.
REAP_TIMEOUT_S = 30.0


def adopt_orphans() -> None:
    """Make this process the reaper of every orphan below it."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(errno)}")


def children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry.name))
    return found


def _stop_resource_tracker() -> None:
    """End this process's own resource tracker, if it started one: it
    waits for its pipe to close, which otherwise happens only at exit."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(module, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def reap_children(timeout_s: float = REAP_TIMEOUT_S) -> None:
    """Wait until this process has no children left; SIGKILL those still
    running after ``timeout_s``."""
    _stop_resource_tracker()
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.01)
