"""Run one benchmark workload and print its result as the last line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload probe-hot --seed 1 --seconds 20 --trace 0

``--trace 0`` drives the shipped HTTP deployment and prints the
end-to-end metrics; ``--trace 1`` replays the same seeded streams
in-process through each serving tier with layer spans on and prints the
per-layer metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("probe-hot", "derive-cold", "write-churn")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import e2e, procs, trace

    procs.adopt_orphans()
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        module = trace if args.trace else e2e
        result = module.run(args.workload, args.seed, args.seconds, SRC, work)
    finally:
        procs.reap_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
