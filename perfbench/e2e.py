"""The end-to-end run: the shipped HTTP deployment under one workload.

Set-up starts ``python -m repro.server --directory D --shards 2`` and
loads the base catalog; it is repeated :data:`SETUP_REPEATS` times on
fresh catalogs and the median reported, and the last server serves the
run.  Tracing is off: the server runs exactly as shipped.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path
from statistics import median

from perfbench.client import ServerProcess, post_execute
from perfbench.drive import Outcome, drive, latency_summary
from perfbench.plan import MAIN_CLASS, Plan
from perfbench.streams import READ

SETUP_REPEATS = 3


def http_execute(port: int):
    """An ``execute`` callable over ``POST /execute``."""

    def execute(text: str) -> Outcome:
        status, body = post_execute(port, text)
        if status != 200:
            return Outcome(False, error=f"{status} {body.get('error')}")
        result = body.get("result", {})
        return Outcome(True, result.get("value"), result.get("instance_name"))

    return execute


def start_server(plan: Plan, src: Path, catalog: Path, workdir: Path) -> ServerProcess:
    """Spawn the server over ``catalog`` and load the base instances."""
    server = ServerProcess(src, catalog, workdir)
    server.start()
    execute = http_execute(server.port)
    for op in plan.setup_ops():
        outcome = execute(op.text)
        if not outcome.ok:
            server.stop()
            raise RuntimeError(f"set-up statement {op.text!r} failed: {outcome.error}")
    return server


class _PhaseClock:
    """Wall time per phase of a run, reported on standard error."""

    def __init__(self) -> None:
        self._last = time.perf_counter()
        self._laps: list[str] = []

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self._laps.append(f"{phase} {now - self._last:.1f}s")
        self._last = now

    def report(self) -> None:
        print("perfbench: " + ", ".join(self._laps), file=sys.stderr)


def directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def run(workload: str, seed: int, seconds: float, src: Path, work: Path) -> dict:
    """One end-to-end run; returns the result object to print."""
    clock = _PhaseClock()
    plan = Plan.build(workload, seed, work / "fixtures")
    catalog = work / "catalog"
    setup_s: list[float] = []
    server: ServerProcess | None = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
                shutil.rmtree(catalog)
            began = time.perf_counter()
            server = start_server(plan, src, catalog, work)
            setup_s.append(time.perf_counter() - began)
        clock.lap("set-up")
        execute = http_execute(server.port)
        warm_streams, timed_streams = plan.streams()
        warm_runs, _ = drive(execute, warm_streams)
        warm = [r for records in warm_runs for r in records]
        warm += plan.advance_journals(execute, catalog)
        clock.lap("warm-up")
        timed_runs, elapsed = drive(execute, timed_streams, seconds=seconds)
        clock.lap("timed")
        rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    disk_bytes = directory_bytes(catalog)

    timed = [r for records in timed_runs for r in records]
    failed_warm, failed = plan.check(warm, timed)
    clock.lap("check")
    clock.report()
    completed = sum(r.correct for r in timed)
    metrics = {
        "setup_s": (median(setup_s), "s"),
        "ops_per_s": (completed / elapsed, "1/s"),
        "server_rss_mb": (rss_mb, "MB"),
        "disk_bytes_per_user_byte": (
            disk_bytes / sum(f.user_bytes for f in plan.fixtures), "ratio"),
    }
    for prefix, cls in (("read", READ), ("main", MAIN_CLASS[workload])):
        for name, value in latency_summary(timed, cls, prefix).items():
            metrics[name] = (value, "ms")
    return {
        "correct": failed == 0 and failed_warm == 0,
        "attempted": len(timed),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
