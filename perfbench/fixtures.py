"""Seeded fixture instances: the base catalog every workload starts from.

The catalog holds eight balanced-tree instances alternating the paper's
Section-7 cells SL b2 d9 (1023 objects) and FR b4 d5 (1365 objects).
The instances are the same for every benchmark seed (generator seeds
``FIXTURE_SEED + position``); the benchmark seed picks the statements.
Holding the data fixed keeps the cost of a run independent of the seed.
The names are fixed too: under the shipped ring (2 shards, 64 vnodes)
they place two SL and two FR instances on each shard, so both shards
see the same mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.io.json_codec import dumps
from repro.workloads.generator import WorkloadSpec, generate_workload

#: (labeling, branching, depth) of the two paper cells.
SL_CELL = ("SL", 2, 9)
FR_CELL = ("FR", 4, 5)

#: Base instance names in catalog order, with their cell.  Cells
#: alternate; ring homes run 0, 1, 1, 0, 0, 1, 1, 0.
BASE_NAMES = ("sl3", "fr1", "sl0", "fr0", "sl4", "fr2", "sl1", "fr3")

#: Generator seed of the first base instance.  Chosen so that every FR
#: instance uses both depth-0 labels (32 full-depth paths), which keeps
#: the supply of never-repeated derives large.
FIXTURE_SEED = 1160

#: Smaller cells with the same shapes, for the benchmark's self-tests.
SMOKE_CELLS = {"SL": ("SL", 2, 4), "FR": ("FR", 3, 3)}


@dataclass(frozen=True)
class Fixture:
    """One base instance: its catalog name, generator output and JSON."""

    name: str
    cell: tuple[str, int, int]
    workload: object  # repro.workloads.generator.GeneratedWorkload
    payload: str

    @property
    def instance(self):
        return self.workload.instance

    @property
    def depth(self) -> int:
        return self.cell[2]

    @property
    def user_bytes(self) -> int:
        """Bytes of the fixture JSON, the user data the catalog stores."""
        return len(self.payload.encode("utf-8"))


def make_fixtures(smoke: bool = False) -> list[Fixture]:
    """The eight base instances (the same bytes on every call)."""
    fixtures = []
    for index, name in enumerate(BASE_NAMES):
        cell = SL_CELL if name.startswith("sl") else FR_CELL
        if smoke:
            cell = SMOKE_CELLS[cell[0]]
        labeling, branching, depth = cell
        spec = WorkloadSpec(
            depth=depth,
            branching=branching,
            labeling=labeling,
            seed=FIXTURE_SEED + index,
        )
        workload = generate_workload(spec)
        fixtures.append(Fixture(name, cell, workload, dumps(workload.instance)))
    return fixtures


def write_fixtures(fixtures: list[Fixture], directory: Path) -> dict[str, Path]:
    """Write each fixture as ``<name>.json``; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for fixture in fixtures:
        path = directory / f"{fixture.name}.json"
        path.write_text(fixture.payload, encoding="utf-8")
        paths[fixture.name] = path
    return paths


def label_paths(fixture: Fixture) -> list[dict[tuple[str, ...], tuple[str, ...]]]:
    """Every label path of the instance, by length: entry ``k - 1`` maps
    each path of ``k`` labels to the sorted objects it matches.  These
    are exactly the paths with a non-empty match, so every statement
    built from them has a defined answer."""
    graph = fixture.instance.weak.graph()
    level = {(): (fixture.instance.root,)}
    levels = []
    for _ in range(fixture.depth):
        deeper: dict[tuple[str, ...], list[str]] = {}
        for labels, oids in level.items():
            for oid in oids:
                for child in graph.children(oid):
                    key = (*labels, graph.label(oid, child))
                    deeper.setdefault(key, []).append(child)
        level = {key: tuple(sorted(deeper[key])) for key in sorted(deeper)}
        levels.append(level)
    return levels
