"""Self-tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import math
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import streams, trace
from perfbench.drive import Outcome, Record, latency_summary
from perfbench.fixtures import make_fixtures
from perfbench.plan import Plan
from perfbench.stats import MIN_BEYOND, percentile
from perfbench.streams import READ, Op


def _stream_bytes(workload: str, seed: int, fixtures, count: int = 60) -> bytes:
    pool = streams.probe_pool(fixtures, seed)
    texts = []
    for connection in range(streams.CONNECTIONS[workload]):
        stream = streams.sessions(workload, fixtures, seed, connection, pool)
        for session in itertools.islice(stream, count):
            texts.extend(f"{op.cls}\t{op.text}" for op in session)
    return "\n".join(texts).encode("utf-8")


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    first = _stream_bytes(workload, 7, make_fixtures())
    again = _stream_bytes(workload, 7, make_fixtures())
    other = _stream_bytes(workload, 8, make_fixtures())
    assert first == again
    assert first != other


def test_fixtures_are_fixed_bytes():
    assert [f.payload for f in make_fixtures()] == [f.payload for f in make_fixtures()]


@pytest.mark.parametrize("workload", ["derive-cold", "write-churn"])
def test_derives_never_repeat(workload):
    fixtures = make_fixtures()
    derives = [
        op.text.rsplit(" AS ", 1)[0]
        for session in itertools.islice(streams.sessions(workload, fixtures, 5), 600)
        for op in session if op.cls == streams.DERIVE
    ]
    assert len(derives) == len(set(derives))


def test_probe_pool_is_64_distinct_reads():
    pool = streams.probe_pool(make_fixtures(), 2)
    assert len(pool) == len(set(pool)) == streams.POOL_SIZE


@pytest.mark.parametrize("size", [1, 19, 20, 21, 99, 100, 101, 1000])
def test_percentile_has_ten_samples_beyond(size):
    values = [float(v) for v in range(size)]
    for q in (0.5, 0.9):
        value = percentile(values, q)
        beyond = sum(v > value for v in values) if value is not None else None
        if value is None:
            assert size - math.ceil(q * size) < MIN_BEYOND
        else:
            assert beyond >= MIN_BEYOND


def test_reported_latency_percentiles_have_ten_beyond():
    records = [
        Record(Op(READ, "EXISTS x IN y"), i / 1000.0, Outcome(True, 0.5))
        for i in range(1, 120)
    ]
    summary = latency_summary(records, READ, "read")
    samples = [r.latency_s * 1000.0 for r in records]
    assert set(summary) == {"read_p50_ms", "read_p90_ms"}
    for value in summary.values():
        assert sum(s > value for s in samples) >= MIN_BEYOND
    assert latency_summary(records[:50], READ, "read").keys() == {"read_p50_ms"}


def test_failed_ops_miss_every_latency_limit():
    records = [
        Record(Op(READ, "EXISTS x IN y"), 0.001, Outcome(True, 0.5), correct=i >= 60)
        for i in range(100)
    ]
    assert latency_summary(records, READ, "read") == {}


def test_smoke_write_churn_compacts_every_shard(tmp_path):
    sessions = trace.MIN_SESSIONS["write-churn"]
    summary = trace._tier_pass(
        "sharded", "write-churn", 3, tmp_path, None, sessions, smoke=True)
    result = summary["pass"]
    metrics = trace.shard_metrics(result.extra["snapshot"])
    assert metrics["shards.db.journal_compactions_min"][0] >= 1
    plan = Plan.build("write-churn", 3, tmp_path / "fixtures", smoke=True)
    assert plan.check(result.warm, result.timed) == (0, 0)


#: Adopts orphans, orphans a sleeping grandchild, reaps, and prints how
#: many children are left (zombies included).
_ORPHAN_SCRIPT = """
import subprocess, sys
from perfbench import procs
procs.adopt_orphans()
subprocess.run([sys.executable, "-c",
    "import subprocess, sys; subprocess.Popen([sys.executable, '-c', "
    "'import time; time.sleep(0.5)'])"], check=True)
assert procs.children(), "the orphaned grandchild was not adopted"
procs.reap_children()
print(len(procs.children()))
"""


def test_orphaned_grandchildren_are_reaped_before_exit():
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", _ORPHAN_SCRIPT], cwd=root,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "0"
