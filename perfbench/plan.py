"""One workload's seeded inputs and the phases every tier replays.

A run has three phases, identical in every tier:

* set-up — ``LOAD`` + ``SAVE`` of each base instance;
* warm-up — for ``probe-hot`` three passes over the probe pool; for the
  session workloads the first :data:`WARM_SESSIONS` sessions of the
  stream.  ``write-churn`` then derives a tiny ballast instance on each
  catalog (shard) and ``SAVE`` s it until the catalog journal holds
  :data:`JOURNAL_PHASE` records, then drops it: the timed phase crosses
  a journal checkpoint (compaction at :data:`CHECKPOINT_RECORDS`
  records) on every shard within its first few cycles, and every run
  starts at the same journal phase;
* timed — one closed loop per connection.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.drive import Execute, Record, check_all, reference_values
from perfbench.fixtures import Fixture, label_paths, make_fixtures, write_fixtures
from perfbench.streams import CONNECTIONS, DERIVE, READ, WRITE, Op, probe_pool, sessions

WARM_POOL_PASSES = 3
WARM_SESSIONS = 16
JOURNAL_PHASE = 500

#: Records at which a catalog journal compacts to a checkpoint
#: (``COMPACT_THRESHOLD`` in ``repro.storage.journal``).
CHECKPOINT_RECORDS = 512

#: File names the journal advance reads (record count per catalog).
JOURNAL_NAME = "catalog.journal"
INSTANCE_SUFFIX = ".pxml.json"

#: The latency class each workload is named after (``main_*`` metrics).
MAIN_CLASS = {"probe-hot": READ, "derive-cold": "derive", "write-churn": WRITE}


@dataclass
class Plan:
    """Fixtures, fixture files and the probe pool of one run."""

    workload: str
    seed: int
    fixtures: list[Fixture]
    paths: dict[str, Path]
    pool: list[str] | None
    _replayed: list[Op] = field(default_factory=list, repr=False)
    _values: list[object] = field(default_factory=list, repr=False)

    @classmethod
    def build(cls, workload: str, seed: int, directory: Path,
              smoke: bool = False) -> "Plan":
        fixtures = make_fixtures(smoke=smoke)
        paths = write_fixtures(fixtures, directory)
        pool = probe_pool(fixtures, seed) if workload == "probe-hot" else None
        return cls(workload, seed, fixtures, paths, pool)

    @property
    def connections(self) -> int:
        return CONNECTIONS[self.workload]

    def setup_ops(self) -> list[Op]:
        ops = []
        for fixture in self.fixtures:
            ops.append(Op(WRITE, f'LOAD {fixture.name} FROM "{self.paths[fixture.name]}"'))
            ops.append(Op(WRITE, f"SAVE {fixture.name}"))
        return ops

    def streams(self, connections: int | None = None):
        """Fresh ``(warm, timed)`` per-connection session streams."""
        count = connections if connections is not None else self.connections
        timed = [
            sessions(self.workload, self.fixtures, self.seed, c, self.pool)
            for c in range(count)
        ]
        if self.pool is not None:
            ops = [[Op(READ, text)] for text in self.pool] * WARM_POOL_PASSES
            return [iter(ops[c::count]) for c in range(count)], timed
        # The warm sessions are the head of the stream itself.
        return [iter([next(timed[0]) for _ in range(WARM_SESSIONS)])], timed

    def advance_journals(self, execute: Execute, catalog: Path) -> list[Record]:
        """write-churn only: bring every journal under ``catalog`` to
        :data:`JOURNAL_PHASE` records with ``SAVE`` s of a tiny ballast
        instance derived on that catalog (one thread per catalog)."""
        if self.workload != "write-churn":
            return []
        targets = []
        for index, directory in enumerate([catalog, *sorted(catalog.glob("shard-*"))]):
            here = [
                f for f in self.fixtures
                if (directory / f"{f.name}{INSTANCE_SUFFIX}").exists()
            ]
            if here and (directory / JOURNAL_NAME).exists():
                targets.append((directory / JOURNAL_NAME, here[0], f"ballast{index}"))
        results: list[list[Record]] = [[] for _ in targets]

        def advance(slot: int) -> None:
            journal, base, ballast = targets[slot]

            def run(cls: str, text: str) -> bool:
                results[slot].append(Record(Op(cls, text), 0.0, execute(text)))
                return results[slot][-1].outcome.ok

            label = next(iter(label_paths(base)[0]))[0]
            ok = run(DERIVE, f"PROJECT ANCESTOR {base.instance.root}.{label} "
                             f"FROM {base.name} AS {ballast}")
            # A failed op is recorded (and fails the run); stop advancing.
            while ok and _line_count(journal) < JOURNAL_PHASE - 2:
                ok = run(WRITE, f"SAVE {ballast}")
            if ok:
                run(WRITE, f"DROP {ballast}")

        threads = [threading.Thread(target=advance, args=(slot,))
                   for slot in range(len(targets))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [record for records in results for record in records]

    def expected(self, ops: list[Op]) -> list[object]:
        """Reference values for ``ops`` (``None`` for non-reads).

        Probe reads are independent, so the pool is evaluated once.
        Otherwise ``ops`` is one connection's stream prefix and a replay
        reproduces every catalog state; ``SAVE`` needs a backing
        directory and changes no value, so it is left out.  Replays are
        memoized, so tiers replaying the same prefix share one.
        """
        if self.pool is not None:
            replay = [Op(READ, text) for text in self.pool]
        else:
            replay = [op for op in ops if not op.text.startswith("SAVE ")]
        if replay != self._replayed[: len(replay)]:
            self._replayed = replay
            self._values = reference_values(self.fixtures, replay)
        if self.pool is not None:
            by_text = dict(zip(self.pool, self._values))
            return [by_text.get(op.text) for op in ops]
        values = iter(self._values)
        return [None if op.text.startswith("SAVE ") else next(values) for op in ops]

    def check(self, warm: list[Record], timed: list[Record]) -> tuple[int, int]:
        """Check every answer against the in-process reference; returns
        ``(failed warm-up ops, failed timed ops)``."""
        expected = self.expected([r.op for r in warm + timed])
        return (check_all(warm, expected[: len(warm)]),
                check_all(timed, expected[len(warm):]))


def _line_count(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for _ in handle)
