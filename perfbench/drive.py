"""The closed-loop load generator, the answer check and the end-to-end summary.

The load loop is transport-agnostic: it calls an ``execute(text)`` function
that returns an :class:`Outcome`, so the HTTP run and the in-process
tiers of the traced run replay streams through the same loop.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from perfbench.fixtures import Fixture
from perfbench.stats import percentile
from perfbench.streams import READ, Op

#: Absolute and relative tolerance of the answer check.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Outcome:
    """What a tier answered: success, the value, the registered name."""

    ok: bool
    value: object = None
    instance_name: str | None = None
    error: str = ""


@dataclass
class Record:
    """One op as the client saw it."""

    op: Op
    latency_s: float
    outcome: Outcome
    correct: bool = True


Execute = Callable[[str], Outcome]


def drive(
    execute: Execute,
    streams: list[Iterator[list[Op]]],
    seconds: float | None = None,
    sessions: int | None = None,
) -> tuple[list[list[Record]], float]:
    """Run one closed loop per stream; returns per-stream records and the
    elapsed wall time.

    A loop starts a new session while time (``seconds``) or sessions
    (``sessions`` per stream) remain, and always finishes the session
    it started, so every record belongs to a whole session.
    """
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else math.inf
    results: list[list[Record]] = [[] for _ in streams]
    finished = [start] * len(streams)
    errors: list[BaseException] = []

    def loop(index: int) -> None:
        stream = streams[index]
        if sessions is not None:
            stream = itertools.islice(stream, sessions)
        records = results[index]
        try:
            for session in stream:
                for op in session:
                    began = time.perf_counter()
                    outcome = execute(op.text)
                    records.append(Record(op, time.perf_counter() - began, outcome))
                finished[index] = time.perf_counter()
                if finished[index] >= deadline:
                    break
        except Exception as exc:  # raised again below, in the caller
            errors.append(exc)

    if len(streams) == 1:
        loop(0)
    else:
        threads = [
            threading.Thread(target=loop, args=(i,), name=f"perfbench-conn{i}")
            for i in range(len(streams))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results, max(finished) - start


def reference_values(fixtures: list[Fixture], ops: list[Op]) -> list[object]:
    """Replay ``ops`` in-process over an in-memory catalog of the same
    fixtures; returns each op's value (``None`` for non-reads)."""
    from repro.pxql.interpreter import Interpreter
    from repro.storage.database import Database

    database = Database()
    for fixture in fixtures:
        database.register(fixture.name, fixture.instance)
    interpreter = Interpreter(database)
    values: list[object] = []
    for op in ops:
        result = interpreter.execute(op.text)
        values.append(result.value if op.cls == READ else None)
    return values


def expected_name(op: Op) -> str | None:
    """The name a derive or SAVE must report, if any."""
    words = op.text.split()
    if words[-2:-1] == ["AS"]:
        return words[-1]
    if words[0] == "SAVE":
        return words[1]
    return None


def check(record: Record, expected: object) -> bool:
    """Mark ``record`` correct iff it succeeded with the right answer."""
    outcome = record.outcome
    correct = outcome.ok
    if correct and record.op.cls == READ:
        value = outcome.value
        correct = (
            isinstance(value, (int, float))
            and isinstance(expected, (int, float))
            and math.isclose(value, expected, rel_tol=TOLERANCE, abs_tol=TOLERANCE)
        )
    elif correct:
        name = expected_name(record.op)
        correct = name is None or outcome.instance_name == name
    record.correct = correct
    return correct


def check_all(records: list[Record], expected: list[object]) -> int:
    """Check records against expected values in order; returns failures."""
    return sum(not check(r, e) for r, e in zip(records, expected))


def latency_summary(
    records: list[Record], cls: str, prefix: str
) -> dict[str, float]:
    """``<prefix>_p50_ms`` / ``<prefix>_p90_ms`` of one class.

    A failed or wrong op counts as infinitely slow, so it misses every
    latency limit; a percentile that lands on one is not reported, and
    neither is one with fewer than ten samples beyond it.
    """
    samples = [
        r.latency_s * 1000.0 if r.correct else math.inf
        for r in records if r.op.cls == cls
    ]
    out = {}
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        value = percentile(samples, q)
        if value is not None and math.isfinite(value):
            out[f"{prefix}_{name}_ms"] = value
    return out
