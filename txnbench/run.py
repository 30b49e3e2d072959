#!/usr/bin/env python3
"""Host cost per simulated remote transaction: the repository's benchmark.

Usage (from the repository root)::

    python3 txnbench/run.py --workload stream-mcbn --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is the separate traced run that gives the per-layer
breakdown (see ``layers.py``).  The run prints a human summary, then,
as its last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Every run checks the simulated output (digest, paper invariants) and
exits 1 without a passing result if a check fails.  It also appends one
provenance-stamped row to ``txnbench/results/history.jsonl`` (never
overwritten); ``compare.py`` diffs two sets of such rows.

The simulator is imported from ``src/`` next to this directory; the
benchmark exits 2 if it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HISTORY = HERE / "results" / "history.jsonl"
SPEC = ROOT / "BENCHMARK.json"
#: Printed beside the end-to-end metrics but not in BENCHMARK.json:
#: failed_frac is 0 when nothing fails (the result's attempted/failed
#: carry it), and the per-slice median flips with the host's speed
#: regime (NOTES.md, "Bounds and measured spread").
DIAGNOSTIC_UNITS = {"failed_frac": "ratio", "host_us_per_txn_p50": "us"}


def provenance() -> dict:
    """Where and from what code a result row was produced."""
    rev = dirty = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        lines = top.stdout.split()
        # Only trust git when this checkout is itself the work tree.
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            rev = lines[1]
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "rev": rev,
        "dirty": dirty,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--history", type=Path, default=HISTORY, help="JSONL file the result row is appended to"
    )
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"txnbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    wall_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        return fail(f"cannot import the simulator from {ROOT / 'src'}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        return fail(f"imported {repro.__file__}, not the checkout's src/")
    from bench import end_to_end, measure, per_layer
    from worlds import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    out = measure(args.workload, args.seed, args.seconds, traced=bool(args.trace))
    ref, rounds, correct = out.reference, out.rounds, out.correct
    attempted = sum(r.attempted for r in rounds) or ref.attempted
    # Values BENCHMARK.json does not declare are printed and kept in the
    # history row, but are not part of the result.
    diagnostics: dict = {}
    if correct:
        failed = sum(r.failed for r in rounds)
        values = per_layer(out) if args.trace else end_to_end(out)
        declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if not set(units) <= set(values):
            return fail(f"{SPEC.name} declares metrics not measured: {set(units) - set(values)}")
        metrics = {k: {"value": values.pop(k), "unit": u} for k, u in units.items()}
        diagnostics = values
    else:
        # A run that fails its correctness check counts every transaction
        # as failed and reports no metrics.
        failed = attempted
        metrics = {}
    diagnostics["failed_frac"] = failed / attempted

    print(f"workload {args.workload}  seed {args.seed}  traced {bool(args.trace)}")
    print(
        f"rounds {len(rounds)}  transactions {sum(r.txns for r in rounds)}  "
        f"slices {sum(len(r.slice_us_per_txn) for r in rounds)}"
    )
    print(f"digest {ref.digest}  (recorded: {out.recorded_digest or 'none for this seed'})")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, value in diagnostics.items():
        print(f"  {name:<40} {value:>14.6g} {DIAGNOSTIC_UNITS[name]}  (not gated)")
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")

    row = {
        **provenance(),
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - wall_start,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "digest": ref.digest,
        "digest_recorded": out.recorded_digest is not None,
        "rounds": len(rounds),
        "metrics": metrics,
        "diagnostics": diagnostics,
    }
    args.history.parent.mkdir(parents=True, exist_ok=True)
    with args.history.open("a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
