#!/usr/bin/env python3
"""Record the simulated-output digests the benchmark checks against.

Usage (from the repository root)::

    python3 txnbench/record.py --seeds 0-31 [--workload stream-mcbn ...]

Runs each (workload, seed) once, uninterrupted, checks its invariants
and writes its digest into ``txnbench/digests.json`` (merged with the
digests already there).  Re-record only when a change is meant to alter
simulated results, and say why in CHANGES.md: a run whose digest
differs from the recorded one fails its correctness check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bench import DIGESTS_PATH, run_round, timed_setup  # noqa: E402
from worlds import WORKLOADS  # noqa: E402


def seed_range(text: str) -> range:
    """``"A-B"`` (inclusive) or ``"A"``."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    table = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    status = 0
    for workload in args.workload or list(WORKLOADS):
        for seed in args.seeds:
            world, _ = timed_setup(workload, seed)
            rnd = run_round(world, None)
            if rnd.problems:
                print(f"{workload} seed {seed}: NOT recorded: {rnd.problems}")
                status = 1
                continue
            table.setdefault(workload, {})[str(seed)] = rnd.digest
            print(f"{workload} seed {seed}: {rnd.digest}", flush=True)
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
