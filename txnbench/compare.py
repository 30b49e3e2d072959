#!/usr/bin/env python3
"""Compare two sets of benchmark result rows (parent vs change).

Usage (from the repository root)::

    python3 txnbench/compare.py BASE CHANGE

BASE and CHANGE are JSONL files of rows as ``run.py`` appends them.
Either may be written ``FILE@REV`` to take only the rows of one git
revision (a prefix of it) from a shared history file, e.g.
``txnbench/results/history.jsonl@1a2b3c``.  Only untraced rows are
compared, and both sides must have been run with the same
``--seconds``; the command refuses (exit 2) otherwise.

Correctness comes first.  For each workload the command counts the
rows that failed their checks and the failed transactions on each
side.  If the change has more of either, or either side has no rows
for the workload, the workload's verdict is ``regressed`` whatever its
timings say.  Otherwise the metrics are compared on the rows that
passed.

For each workload and end-to-end metric the command prints each side's
median and quartiles, the fraction of seed-matched pairs the change
wins (ties count for neither side), and a verdict under the
choosing-metrics rule:

* ``improved``   - the change wins >= 9/10 of the pairs and the medians
  differ by more than the base runs' own interquartile spread;
* ``regressed``  - the change's median is worse than the base median by
  more than the metric's bound in BENCHMARK.json;
* ``unresolved`` - the base runs spread wider than the bound, so no
  regression can be ruled out, and not every change run beats every
  base run;
* ``unchanged``  - otherwise.

It exits 1 if any verdict is ``regressed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(spec: str) -> Dict[str, List[dict]]:
    """workload -> untraced rows (passing or not), from ``FILE[@REV]``."""
    path, _, rev = spec.partition("@")
    rows: Dict[str, List[dict]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        if row.get("traced"):
            continue
        if rev and not (row.get("rev") or "").startswith(rev):
            continue
        rows[row["workload"]].append(row)
    return rows


def failures(rows: List[dict]) -> Tuple[int, int]:
    """(rows that failed their checks, failed transactions) of *rows*."""
    return sum(1 for r in rows if not r["correct"]), sum(r["failed"] for r in rows)


def by_seed(rows: List[dict], name: str) -> Dict[int, List[float]]:
    """seed -> values of metric *name*, in row order."""
    values: Dict[int, List[float]] = defaultdict(list)
    for r in rows:
        values[r["seed"]].append(r["metrics"][name]["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(
    base: List[float], change: List[float], pairs, better: str, bound: float
) -> Tuple[str, float]:
    """Verdict and pair-win fraction for one workload x metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - bmed)
    if win_frac >= 0.9 and gain > (b3 - b1):
        return "improved", win_frac
    worse_by = -gain / abs(bmed) if bmed else 0.0
    if worse_by > bound:
        return "regressed", win_frac
    if (b3 - b1) / abs(bmed) > bound and not all(
        sign * (c - b) > 0 for c in change for b in base
    ):
        return "unresolved", win_frac
    return "unchanged", win_frac


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="JSONL of parent rows, optionally FILE@REV")
    parser.add_argument("change", help="JSONL of change rows, optionally FILE@REV")
    parser.add_argument(
        "--benchmark", type=Path, default=ROOT / "BENCHMARK.json", help="bounds and directions"
    )
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    metrics = spec["end_to_end"]
    base, change = load(args.base), load(args.change)
    for workload in sorted(set(base) & set(change)):
        b_secs = {r["seconds"] for r in base[workload]}
        c_secs = {r["seconds"] for r in change[workload]}
        if b_secs != c_secs or len(b_secs) != 1:
            print(
                f"{workload}: rows were run with --seconds {sorted(b_secs)} (base) "
                f"and {sorted(c_secs)} (change); compare runs of one length",
                file=sys.stderr,
            )
            return 2
    regressed = False
    print(
        f"{'workload':<12} {'metric':<20} {'base q1/med/q3':>32} "
        f"{'change q1/med/q3':>32} {'wins':>5}  verdict"
    )
    for workload in sorted(set(base) | set(change)):
        b_all, c_all = base.get(workload, []), change.get(workload, [])
        b_fail, c_fail = failures(b_all), failures(c_all)
        broken = not b_all or not c_all or c_fail[0] > b_fail[0] or c_fail[1] > b_fail[1]
        print(
            f"{workload:<12} {'checks':<20} "
            f"{f'{len(b_all)} rows, {b_fail[0]} failing, {b_fail[1]} txns failed':>32} "
            f"{f'{len(c_all)} rows, {c_fail[0]} failing, {c_fail[1]} txns failed':>32} "
            f"{'':>5}  {'regressed' if broken else 'ok'}"
        )
        regressed |= broken
        if broken:
            continue
        b_rows = [r for r in b_all if r["correct"]]
        c_rows = [r for r in c_all if r["correct"]]
        for m in metrics:
            name = m["name"]
            b_vals = [r["metrics"][name]["value"] for r in b_rows]
            c_vals = [r["metrics"][name]["value"] for r in c_rows]
            if not b_vals or not c_vals:
                print(f"{workload:<12} {name:<20} {'(no passing rows on one side)':>32}")
                continue
            b_seed, c_seed = by_seed(b_rows, name), by_seed(c_rows, name)
            pairs = [
                pair
                for seed in sorted(set(b_seed) & set(c_seed))
                for pair in zip(b_seed[seed], c_seed[seed])
            ]
            word, win_frac = verdict(b_vals, c_vals, pairs, m["better"], m["bound"])
            regressed |= word == "regressed"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(
                f"{workload:<12} {name:<20} {fmt.format(*quartiles(b_vals)):>32} "
                f"{fmt.format(*quartiles(c_vals)):>32} {win_frac:>5.2f}  {word} "
                f"(n={len(b_vals)}/{len(c_vals)}, pairs={len(pairs)})"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
