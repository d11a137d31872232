"""The shipped HTTP deployment as a subprocess, and a minimal client.

The front door answers every request with ``Connection: close``, so the
client opens one socket per statement, writes one ``POST /execute`` and
reads to EOF.  That is all HTTP it needs; urllib would add its own
overhead to every latency.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

#: Wait bound for one statement (seconds); a timeout counts as a failure.
REQUEST_TIMEOUT_S = 60.0

#: Worker threads per shard process (``--workers``).
WORKERS = 1

#: How long the server gets to drain and exit on SIGTERM.
STOP_TIMEOUT_S = 30.0


def post_execute(port: int, statement: str) -> tuple[int, dict]:
    """``(http_status, json_body)`` of one ``POST /execute``.

    Transport failures come back as status 0 with the error text, so a
    broken connection counts as a failed op rather than ending the run.
    """
    body = json.dumps({"statement": statement}).encode("utf-8")
    request = (
        b"POST /execute HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n\r\n" + body
    )
    try:
        with socket.create_connection(
            ("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S
        ) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError as exc:
        return 0, {"error": {"type": type(exc).__name__, "message": str(exc)}}
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
        return status, json.loads(payload)
    except (IndexError, ValueError) as exc:
        return 0, {"error": {"type": "BadResponse", "message": str(exc)}}


class ServerProcess:
    """``python -m repro.server --directory D --shards 2`` on a free port."""

    def __init__(self, src: Path, catalog: Path, workdir: Path) -> None:
        self.src = src
        self.catalog = catalog
        self.workdir = workdir
        self.process: subprocess.Popen[str] | None = None
        self.port = 0

    def start(self) -> None:
        """Spawn the server and block until it reports its port."""
        env = dict(os.environ, PYTHONPATH=str(self.src))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server",
             "--directory", str(self.catalog), "--shards", "2",
             "--workers", str(WORKERS), "--port", "0"],
            cwd=self.workdir, env=env, stdout=subprocess.PIPE, text=True,
        )
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        marker = "serving on http://"
        if marker not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])

    def pids(self) -> list[int]:
        """The router and every process below it."""
        if self.process is None:
            return []
        parents: dict[int, list[int]] = {}
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            parents.setdefault(ppid, []).append(int(entry.name))
        found, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            frontier.extend(parents.get(pid, ()))
        return found

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` (peak resident set) of the server's processes."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (drain, then stop), kill after a bound; wait for all."""
        process = self.process
        if process is None:
            return
        children = [pid for pid in self.pids() if pid != process.pid]
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in children:
            while _running(pid):
                if time.monotonic() > deadline:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                    deadline += STOP_TIMEOUT_S
                time.sleep(0.01)
        self.process = None


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
