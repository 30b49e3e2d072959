"""Measurement core: set-up, sliced runs, digests, checks and metrics.

One *round* builds a fresh world (timed as set-up), runs it to
completion in fixed simulated-time slices (``Simulator.run(until=...)``)
and checks its output.  A benchmark run is one unmeasured reference
round, run uninterrupted, followed by measured rounds until the
requested CPU seconds are spent.  Every measured round must reproduce
the reference round's digest, so slicing is checked against one
uninterrupted ``run()`` on every run.

Host timings are process CPU time (``time.process_time_ns``): the
simulator is single-threaded and shares its machine.  Wall time is
recorded beside them for the history, never gated.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from layers import LAYERS, LayerTracer
from worlds import World, build_world

#: Slices per round: enough that p90 has >= 10 slices beyond it even in a
#: one-round run.
SLICES_PER_ROUND = 128
#: Extra (discarded) set-ups before the rounds, so set-up has a median
#: over several samples even when few rounds fit in the run.
EXTRA_SETUPS = 40
#: Little's law tolerance on stream-mcbn: mean window occupancy x line
#: against W x line.
LITTLE_TOLERANCE = 0.02
#: Share of a traced round's run time its timed intervals may miss or
#: exceed it by (clock reads between intervals).
ACCOUNTING_TOLERANCE = 0.005

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


@dataclass
class Snapshot:
    """Simulated-state counters at one instant of a world."""

    now: int
    events: int
    gate_grants: int
    link_fwd_bytes: int
    link_rev_bytes: int
    bus_bytes: int
    window_waits: int
    window_wait_ps: float
    retx: int = 0
    sent: int = 0
    wire_faults: int = 0
    budget_denied: int = 0

    @classmethod
    def take(cls, world: World) -> "Snapshot":
        system = world.system
        hist = system.borrower.window.wait_hist
        snap = cls(
            now=system.sim.now,
            events=system.sim.events_processed,
            gate_grants=system.injector.transactions,
            link_fwd_bytes=system.link.forward.bytes_sent,
            link_rev_bytes=system.link.reverse.bytes_sent,
            bus_bytes=system.lender.dram.bus.bytes_served,
            window_waits=hist.count,
            window_wait_ps=hist.sum,
        )
        transport = getattr(system, "transport", None)
        if transport is not None:
            snap.retx = transport.stats.retransmissions
            snap.sent = transport.stats.sent
            snap.wire_faults = sum(
                f.lost + f.corrupted for f in (system.fault_fwd, system.fault_rev)
            )
            budget = system.overload.retry_budget
            snap.budget_denied = budget.denied if budget is not None else 0
        return snap


@dataclass
class Round:
    """One measured (or reference) round."""

    digest: str
    txns: int
    attempted: int
    failed: int
    events: int
    cpu_ns: int
    wall_ns: int
    #: Wall time of the harness's own work inside ``wall_ns``.
    harness_ns: int
    slice_us_per_txn: List[float]
    start: Snapshot
    end: Snapshot
    problems: List[str]
    #: Simulated capacities the utilisation metrics divide by.
    capacity: Dict[str, float]
    #: Tracer counts of the measured run and of the set-up (traced runs).
    layers: Optional[Counter] = None
    setup_layers: Optional[Counter] = None


@dataclass
class Outcome:
    """Everything one benchmark run measured."""

    setup_s: List[float] = field(default_factory=list)
    reference: Optional[Round] = None
    rounds: List[Round] = field(default_factory=list)
    untraced: Optional[Round] = None
    recorded_digest: Optional[str] = None
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


# ----------------------------------------------------------------------
# Set-up and running
# ----------------------------------------------------------------------
def timed_setup(workload: str, seed: int) -> tuple[World, float]:
    """Build a world; returns it with the set-up's CPU seconds."""
    gc.collect()
    start = time.process_time_ns()
    world = build_world(workload, seed)
    return world, (time.process_time_ns() - start) / 1e9


def _failures(world: World, procs) -> List[str]:
    problems = []
    for driver, proc in zip(world.drivers, procs):
        if not proc.ok:
            try:
                _ = proc.value
            except BaseException as exc:  # the simulated process's failure
                problems.append(f"{driver.instance} failed: {type(exc).__name__}: {exc}")
            else:
                problems.append(f"{driver.instance} did not finish")
    return problems


def run_round(
    world: World,
    slice_ps: Optional[int],
    tracer: Optional[LayerTracer] = None,
) -> Round:
    """Run *world* to completion and check it.

    ``slice_ps=None`` runs it with one uninterrupted ``run()`` (the
    reference); otherwise in slices of that many simulated picoseconds,
    timing each.  Per-slice cost is charged to the transactions
    completed in the slice; a slice that completes none carries its
    cost into the next.
    """
    sim = world.system.sim
    contention = world.contention
    cpu = time.process_time_ns
    wall = time.perf_counter_ns
    run = sim.run if tracer is None else partial(tracer.run, sim)
    start = Snapshot.take(world)
    slices: List[float] = []
    cpu_total = wall_total = carried = harness = 0
    done_before = 0
    if tracer is not None:
        tracer.watch_dram(world.system.lender.dram.bus, world.system.borrower.dram.bus)
        tracer.harvest()
        sim.set_observer(tracer)
    c0, w0 = cpu(), wall()
    procs = world.start()
    # The harness's own work inside the measured time (launching the
    # drivers, the slice loop around each run) is timed apart, so the
    # traced accounting can tell it from the kernel.
    mark = wall()
    harness += mark - w0
    if contention is not None:
        contention.__enter__()
    try:
        if slice_ps is None:
            sim.run()
        else:
            until = sim.now
            mark = wall()
            while sim.peek() is not None:
                until += slice_ps
                t_in = wall()
                run(until)
                t_out = wall()
                c1, w1 = cpu(), wall()
                harness += t_in - mark + w1 - t_out
                carried += c1 - c0
                cpu_total += c1 - c0
                wall_total += w1 - w0
                done = world.completed()
                if done > done_before:
                    slices.append(carried / 1e3 / (done - done_before))
                    carried = 0
                    done_before = done
                c0, w0 = cpu(), wall()
                mark = w0
            harness += wall() - mark
    finally:
        if contention is not None:
            contention.__exit__(None, None, None)
        c1, w1 = cpu(), wall()
        cpu_total += c1 - c0
        wall_total += w1 - w0
        sim.clear_observer()
    layers = tracer.harvest() if tracer is not None else None
    end = Snapshot.take(world)
    problems = _failures(world, procs)
    txns = world.completed()
    attempted = world.attempted
    fallbacks = int(world.system.stats.counters.get("degraded.accesses", 0))
    failed = attempted - txns + fallbacks
    problems += check_invariants(world, txns)
    system = world.system
    return Round(
        digest=digest(world, end.events - start.events),
        txns=txns,
        attempted=attempted,
        failed=failed,
        events=end.events - start.events,
        cpu_ns=cpu_total,
        wall_ns=wall_total,
        harness_ns=harness,
        slice_us_per_txn=slices,
        start=start,
        end=end,
        problems=problems,
        capacity={
            "gate_interval_ps": system.injector.interval_ps,
            "link_Bps": system.config.link.bandwidth_bytes_per_s,
            "bus_Bps": system.lender.dram.bus.rate,
        },
        layers=layers,
    )


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def digest(world: World, events: int) -> str:
    """Digest of the simulated output of a finished world.

    Covers per-instance lines, start and end times, each instance's
    latency histogram (log2 buckets) and exact latency sum, the
    system's counters, the measured event count, and the transport,
    fault and fluid-timeline state where the workload has them.
    """
    instances = []
    for driver in world.drivers:
        result = driver.result
        lat = driver.latencies.values
        buckets, counts = np.unique(np.floor(np.log2(lat)).astype(int), return_counts=True)
        instances.append(
            {
                "instance": driver.instance,
                "lines": None if result is None else result.lines,
                "start": None if result is None else result.start_time,
                "end": None if result is None else result.end_time,
                "latency_log2_hist": dict(zip(map(str, buckets.tolist()), counts.tolist())),
                "latency_sum_ps": int(lat.sum()),
            }
        )
    system = world.system
    payload: Dict[str, object] = {
        "instances": instances,
        "counters": sorted((k, repr(v)) for k, v in system.stats.counters.items()),
        "events": events,
    }
    transport = getattr(system, "transport", None)
    if transport is not None:
        payload["transport"] = transport.stats.as_dict()
        payload["faults"] = [system.fault_fwd.summary(), system.fault_rev.summary()]
    if world.contention is not None:
        payload["fluid_finish_ps"] = sorted(
            (k, int(v)) for k, v in world.contention.timeline.finish_ps.items()
        )
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def check_invariants(world: World, txns: int) -> List[str]:
    """The paper's contracts on a finished world; returns violations."""
    problems = []
    system = world.system
    counters = system.stats.counters
    # Every issued line completed, and the drivers' count agrees with
    # what the datapath and the lender served.
    if txns != world.attempted:
        problems.append(f"{world.attempted - txns} of {world.attempted} lines never completed")
    served = (
        counters.get("remote.transactions", 0)
        + counters.get("lender.local.transactions", 0)
        + counters.get("degraded.accesses", 0)
    )
    if served != txns:
        problems.append(f"datapath served {served:.0f} lines, drivers completed {txns}")
    if world.workload == "stream-mcbn":
        # Little's law on the saturated closed window: bandwidth x mean
        # latency = W x line.
        results = [d.result for d in world.drivers if d.result is not None]
        if results:
            span = max(r.end_time for r in results) - min(r.start_time for r in results)
            latency_ps = sum(d.latencies.sum() for d in world.drivers)
            bdp = system.line_bytes * latency_ps / span
            target = system.borrower.window.capacity * system.line_bytes
            if abs(bdp - target) > LITTLE_TOLERANCE * target:
                problems.append(
                    f"Little's law: bandwidth x latency = {bdp:.0f} B, W x line = {target} B"
                )
    return problems


def recorded_digest(workload: str, seed: int) -> Optional[str]:
    """The digest recorded for (workload, seed), if any."""
    if not DIGESTS_PATH.exists():
        return None
    table = json.loads(DIGESTS_PATH.read_text())
    return table.get(workload, {}).get(str(seed))


# ----------------------------------------------------------------------
# A whole benchmark run
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    """Reference round, then measured rounds until *seconds* CPU seconds.

    Stops at the first failed check; ``Outcome.correct`` reports it.
    """
    out = Outcome(recorded_digest=recorded_digest(workload, seed))
    world, setup = timed_setup(workload, seed)
    out.setup_s.append(setup)
    out.reference = ref = run_round(world, None)
    out.problems += [f"reference run: {p}" for p in ref.problems]
    if out.recorded_digest is not None and ref.digest != out.recorded_digest:
        out.problems.append(f"digest {ref.digest} differs from the recorded {out.recorded_digest}")
    if out.problems:
        return out

    def problems_of(rnd: Round) -> List[str]:
        found = list(rnd.problems)
        if rnd.digest != ref.digest:
            found.append(f"sliced run digest {rnd.digest} differs from uninterrupted {ref.digest}")
        return found

    slice_ps = max(1, -(-(ref.end.now - ref.start.now) // SLICES_PER_ROUND))
    for _ in range(EXTRA_SETUPS):
        out.setup_s.append(timed_setup(workload, seed)[1])
    tracer = None
    if traced:
        out.untraced = run_round(timed_setup(workload, seed)[0], slice_ps)
        out.problems += problems_of(out.untraced)
        if out.problems:
            return out
        tracer = LayerTracer()
    spent = 0
    while spent < seconds * 1e9 or not out.rounds:
        if tracer is not None:
            with tracer:
                world = timed_setup(workload, seed)[0]
                setup_layers = tracer.harvest()
                rnd = run_round(world, slice_ps, tracer)
            rnd.setup_layers = setup_layers
        else:
            world, setup = timed_setup(workload, seed)
            rnd = run_round(world, slice_ps)
            out.setup_s.append(setup)
        del world
        out.rounds.append(rnd)
        spent += rnd.cpu_ns
        out.problems += problems_of(rnd)
        if out.problems:
            return out
    if traced:
        out.problems += check_layer_accounting(out)
    return out


def check_layer_accounting(out: Outcome) -> List[str]:
    """Traced rounds account for their run time and repeat their call counts.

    The kernel gaps, the root frames and the harness's work are timed as
    separate intervals; together they must match the round's run time,
    as the harness measured it, within ``ACCOUNTING_TOLERANCE``.  Time
    counted twice shows as an excess, time in no interval as a shortfall.
    """
    problems = []

    def calls(counts: Counter) -> dict:
        """The exact (non-time) tracer counts."""
        return {k: v for k, v in counts.items() if "_ns" not in k}

    first = calls(out.rounds[0].layers)
    for rnd in out.rounds:
        counted = rnd.layers["kernel_ns"] + rnd.layers["root_ns"] + rnd.harness_ns
        if abs(counted - rnd.wall_ns) > ACCOUNTING_TOLERANCE * rnd.wall_ns:
            problems.append(
                f"kernel + layers + harness = {counted} ns, "
                f"but the traced run took {rnd.wall_ns} ns"
            )
        if calls(rnd.layers) != first:
            problems.append("layer call counts differ between same-seed rounds")
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _quantile(values: List[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(out: Outcome) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    rounds = out.rounds
    txns = sum(r.txns for r in rounds)
    cpu_s = sum(r.cpu_ns for r in rounds) / 1e9
    slices = [s for r in rounds for s in r.slice_us_per_txn]
    return {
        "txn_per_cpu_s": txns / cpu_s,
        "host_us_per_txn_p50": statistics.median(slices),
        "host_us_per_txn_p90": _quantile(slices, 90),
        "events_per_txn": sum(r.events for r in rounds) / txns,
        "setup_s": statistics.median(out.setup_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    """Resident-memory high-water mark of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_layer(out: Outcome) -> Dict[str, float]:
    """Per-layer metrics of a traced run (0 for layers that do not run)."""
    rounds = out.rounds
    txns = sum(r.txns for r in rounds)
    cpu_ns = sum(r.cpu_ns for r in rounds)
    wall_ns = sum(r.wall_ns for r in rounds)
    total = sum((r.layers for r in rounds), Counter())
    total["self_ns:sim.kernel"] = total["kernel_ns"]
    total["calls:sim.kernel"] = sum(r.events for r in rounds)
    total["calls:sim.process"] += total["callbacks"]
    # Frames are timed on the monotonic clock; scaling by the run's
    # CPU/wall ratio puts the self times in CPU time.
    to_cpu_us = cpu_ns / wall_ns / 1e3
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_txn"] = total[f"calls:{layer}"] / txns
        metrics[f"{layer}.self_us_per_txn"] = total[f"self_ns:{layer}"] * to_cpu_us / txns
    metrics["harness.self_us_per_txn"] = sum(r.harness_ns for r in rounds) * to_cpu_us / txns

    def delta(attr: str) -> float:
        return sum(getattr(r.end, attr) - getattr(r.start, attr) for r in rounds)

    capacity = rounds[0].capacity
    elapsed_s = delta("now") / 1e12
    waits = delta("window_waits")
    sent = delta("sent")
    retx = delta("retx")
    metrics["sim.process.spawns_per_txn"] = total["spawns"] / txns
    metrics["node.window.sim_wait_ns_mean"] = (
        delta("window_wait_ps") / waits / 1e3 if waits else 0.0
    )
    metrics["core.delay.sim_util"] = (
        delta("gate_grants") * capacity["gate_interval_ps"] / 1e12 / elapsed_s
    )
    metrics["net.link.sim_util_fwd"] = delta("link_fwd_bytes") / capacity["link_Bps"] / elapsed_s
    metrics["net.link.sim_util_rev"] = delta("link_rev_bytes") / capacity["link_Bps"] / elapsed_s
    metrics["mem.bus.sim_util"] = delta("bus_bytes") / capacity["bus_Bps"] / elapsed_s
    bus_calls = total["calls:mem.bus"]
    metrics["mem.bus.sim_queue_ns_mean"] = (
        total["bus_queue_ps"] / bus_calls / 1e3 if bus_calls else 0.0
    )
    metrics["nic.transport.retx_per_txn"] = retx / txns
    metrics["nic.transport.first_try_frac"] = sent / (sent + retx) if sent else 0.0
    metrics["net.faults.drops_per_txn"] = delta("wire_faults") / txns
    metrics["core.overload.budget_denied"] = delta("budget_denied")
    setup_hybrid_ns = sum(r.setup_layers["self_ns:engine.hybrid"] for r in rounds)
    metrics["engine.hybrid.setup_self_ms"] = setup_hybrid_ns / 1e6 / len(rounds)
    untraced = out.untraced
    metrics["tracing.overhead_ratio"] = (cpu_ns / txns) / (untraced.cpu_ns / untraced.txns)
    return metrics
