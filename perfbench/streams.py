"""Seeded op streams for the three workloads.

Every stream is a pure function of the seed and the fixtures: the same
seed yields byte-identical statements in the same order, so reruns see
the same cache contents and the same journal-checkpoint phase.  The
*shape* of each stream (which base instance, which statement kind, at
which position) is fixed; the seed picks only paths, objects and the
order within a shape, so the cost mix is the same for every seed.

A stream yields *sessions*: lists of ops one connection sends back to
back, each waiting for the previous reply.

* ``probe-hot`` — single reads drawn Zipf-skewed from a pool of 64;
* ``derive-cold`` — ``[derive, read of the fresh result]``, every derive
  new to the run;
* ``write-churn`` — ``[derive, SAVE, read of another base, DROP]``.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Iterator
from dataclasses import dataclass

from perfbench.fixtures import Fixture, label_paths

READ, DERIVE, WRITE = "read", "derive", "write"

WORKLOADS = ("probe-hot", "derive-cold", "write-churn")

#: Connection count per workload (closed loop, one session per request
#: chain).  Session workloads wait for each reply, hence one.
CONNECTIONS = {"probe-hot": 2, "derive-cold": 1, "write-churn": 1}

#: The probe pool size and its Zipf exponent.
POOL_SIZE = 64
ZIPF_S = 1.0

#: Path-size stratum (of eight) for the pool entries of each base, by
#: Zipf step: the heaviest entries read mid-sized paths.
POOL_STRATA = (3, 6, 1, 4, 7, 2, 5, 0)

#: Read statement kinds, cycled by position.
READ_KINDS = ("EXISTS", "POINT", "COUNT")

#: Derive kinds over ten consecutive sessions (even positions derive
#: from SL bases, odd from FR): seven projections, then one selection on
#: SL and two on FR, the slowest group.  With these shares every
#: percentile falls inside one group of like statements rather than on
#: the boundary between two: the derive and read p50 among projections
#: and their reads, the p90 in the middle of the FR selections and the
#: reads that follow them.
DERIVE_PATTERN = ("PROJECT", "SELECT", "PROJECT", "SELECT", "PROJECT",
                  "PROJECT", "SELECT", "PROJECT", "PROJECT", "PROJECT")

#: Projection kinds drawn for derives.  SINGLE is left out: on the FR
#: cell it exhausts memory.
PROJECT_KINDS = ("ANCESTOR", "DESCENDANT")

#: ``AS`` targets: derive-cold uses one per base, write-churn cycles four.
DERIVE_TARGETS = tuple(f"v{i}" for i in range(8))
CHURN_TARGETS = tuple(f"w{i}" for i in range(4))


@dataclass(frozen=True)
class Op:
    """One statement and its latency class."""

    cls: str
    text: str


def _rng(seed: int, *salt: object) -> random.Random:
    return random.Random(repr((seed, *salt)))


def _path_text(fixture: Fixture, labels: tuple[str, ...]) -> str:
    return ".".join((fixture.instance.root, *labels))


class _Paths:
    """Per-fixture label paths and seeded draws over them."""

    def __init__(self, fixture: Fixture) -> None:
        self.fixture = fixture
        self.levels = label_paths(fixture)
        self.by_labels = self.levels[-1]
        self.keys = list(self.by_labels)

    def read(self, kind: str, rng: random.Random, path: tuple | None = None) -> str:
        labels = path if path is not None else rng.choice(self.keys)
        text = _path_text(self.fixture, labels)
        if kind == "POINT":
            oid = rng.choice(self.levels[len(labels) - 1][labels])
            return f"POINT {text} : {oid} IN {{src}}"
        return f"{kind} {text} IN {{src}}"


def probe_pool(fixtures: list[Fixture], seed: int) -> list[str]:
    """64 distinct read statements over the base instances.

    Rank ``r`` reads base ``r % 8`` with kind ``READ_KINDS[(r // 8) % 3]``
    on a path from stratum ``POOL_STRATA[r // 8]`` of that base's paths
    ordered by match size; the seed picks the path within the stratum.
    So the Zipf weight of every (base, kind, path size) is the same for
    every seed, and the probe cost mix with it.
    """
    paths = [_Paths(f) for f in fixtures]
    rng = _rng(seed, "pool")
    pool: list[str] = []
    for rank in range(POOL_SIZE):
        base = paths[rank % len(paths)]
        step = rank // len(paths)
        kind = READ_KINDS[step % len(READ_KINDS)]
        by_size = sorted(base.keys, key=lambda k: (len(base.by_labels[k]), k))
        low = len(by_size) * POOL_STRATA[step] // len(POOL_STRATA)
        high = len(by_size) * (POOL_STRATA[step] + 1) // len(POOL_STRATA)
        stratum = by_size[low:max(high, low + 1)]
        while True:
            text = base.read(kind, rng, rng.choice(stratum)).format(
                src=base.fixture.name)
            if text not in pool:
                break
        pool.append(text)
    return pool


def zipf_weights(size: int = POOL_SIZE, s: float = ZIPF_S) -> list[float]:
    return [1.0 / (rank + 1) ** s for rank in range(size)]


def probe_sessions(pool: list[str], seed: int, connection: int) -> Iterator[list[Op]]:
    """Connection ``connection``'s endless Zipf-skewed probe stream."""
    rng = _rng(seed, "probe", connection)
    weights = zipf_weights(len(pool))
    ranks = range(len(pool))
    while True:
        (rank,) = rng.choices(ranks, weights)
        yield [Op(READ, pool[rank])]


class _DeriveSupply:
    """Never-repeating derive statements per base instance.

    Projections draw (kind, path) pairs without replacement, full-depth
    paths first and shorter ones only once those are used up; selections
    draw (full-depth path, object) pairs without replacement.  The
    supply lasts several times longer than a run needs today; should a
    much faster program use it up, it starts over in a new order and
    says so on standard error, since repeats can hit caches.
    """

    def __init__(self, paths: _Paths, rng: random.Random) -> None:
        self.paths = paths
        self.rng = rng
        self._projections: Iterator = iter(())
        self._selections: Iterator = iter(())
        self._rounds = {"PROJECT": 0, "SELECT": 0}

    def _refill(self, kind: str) -> None:
        if self._rounds[kind]:
            print(f"perfbench: {kind} supply for {self.paths.fixture.name} used up; "
                  "derives repeat from here", file=sys.stderr)
        self._rounds[kind] += 1
        if kind == "PROJECT":
            projections = []
            for level in reversed(self.paths.levels):
                batch = [(k, labels) for k in PROJECT_KINDS for labels in level]
                self.rng.shuffle(batch)
                projections.extend(batch)
            self._projections = iter(projections)
        else:
            selections = [
                (labels, oid)
                for labels, oids in self.paths.by_labels.items() for oid in oids
            ]
            self.rng.shuffle(selections)
            self._selections = iter(selections)

    def derive(self, kind: str, target: str) -> tuple[str, tuple[str, ...]]:
        """``(statement, path labels)`` of the next new derive."""
        name = self.paths.fixture.name
        source = self._projections if kind == "PROJECT" else self._selections
        draw = next(source, None)
        if draw is None:
            self._refill(kind)
            return self.derive(kind, target)
        if kind == "PROJECT":
            pkind, labels = draw
            text = _path_text(self.paths.fixture, labels)
            return f"PROJECT {pkind} {text} FROM {name} AS {target}", labels
        labels, oid = draw
        text = _path_text(self.paths.fixture, labels)
        return f"SELECT {text} = {oid} FROM {name} AS {target}", labels


def derive_sessions(fixtures: list[Fixture], seed: int) -> Iterator[list[Op]]:
    """derive-cold: a new derive on a base, then one read of its result."""
    paths = [_Paths(f) for f in fixtures]
    rng = _rng(seed, "derive")
    supply = [_DeriveSupply(p, rng) for p in paths]
    index = 0
    while True:
        base = index % len(fixtures)
        kind = DERIVE_PATTERN[index % len(DERIVE_PATTERN)]
        target = DERIVE_TARGETS[base]
        derive, labels = supply[base].derive(kind, target)
        read_kind = READ_KINDS[index % len(READ_KINDS)]
        # A projection keeps exactly the objects on its path, so the
        # read follows that path; a selection keeps the whole instance.
        read_path = labels if kind == "PROJECT" else None
        read = paths[base].read(read_kind, rng, read_path).format(src=target)
        yield [Op(DERIVE, derive), Op(READ, read)]
        index += 1


def churn_sessions(fixtures: list[Fixture], seed: int) -> Iterator[list[Op]]:
    """write-churn: derive, SAVE it, read another base, DROP the result."""
    paths = [_Paths(f) for f in fixtures]
    rng = _rng(seed, "churn")
    supply = [_DeriveSupply(p, rng) for p in paths]
    index = 0
    while True:
        base = index % len(fixtures)
        other = (base + 1) % len(fixtures)
        target = CHURN_TARGETS[index % len(CHURN_TARGETS)]
        derive, _labels = supply[base].derive("PROJECT", target)
        read_kind = READ_KINDS[index % len(READ_KINDS)]
        read = paths[other].read(read_kind, rng).format(src=fixtures[other].name)
        yield [
            Op(DERIVE, derive),
            Op(WRITE, f"SAVE {target}"),
            Op(READ, read),
            Op(WRITE, f"DROP {target}"),
        ]
        index += 1


def sessions(
    workload: str, fixtures: list[Fixture], seed: int, connection: int = 0,
    pool: list[str] | None = None,
) -> Iterator[list[Op]]:
    """The session stream of one connection of ``workload``."""
    if workload == "probe-hot":
        return probe_sessions(
            pool if pool is not None else probe_pool(fixtures, seed),
            seed, connection,
        )
    if workload == "derive-cold":
        return derive_sessions(fixtures, seed)
    if workload == "write-churn":
        return churn_sessions(fixtures, seed)
    raise ValueError(f"unknown workload {workload!r}")
