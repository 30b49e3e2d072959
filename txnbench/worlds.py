"""The four benchmark workloads, each built fresh from a seed.

A *world* is one freshly built testbed plus the workload instances that
will run on it: the system is constructed, the 256-probe attach
handshake has run and the phase programs are compiled, so the window,
gate, links and lender bus start empty at ``sim.now``.  Building a
world is the benchmark's set-up; running it is the measured part.

The seed picks the inputs: per-instance STREAM array sizes (within
+-5% of the workload's nominal size) and the cluster's RNG seed, which
drives the fault draws of ``arq-lossy``.  The same seed always builds
the same world, so the simulated output is a pure function of
(workload, seed) and is checked against a recorded digest.

Why these four workloads (what each stresses, and what each bypasses)
is written up in ``NOTES.md`` next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.calibration import paper_cluster_config
from repro.config import FaultConfig, TransportConfig
from repro.core.overload import OverloadConfig
from repro.engine.des import DesPhaseDriver
from repro.engine.hybrid import HybridContention, mcbn_background
from repro.engine.model import PathModel
from repro.engine.phases import Location, PhaseProgram
from repro.node.cluster import ThymesisFlowSystem
from repro.node.reliable import ReliableThymesisFlowSystem
from repro.sim import Process
from repro.units import microseconds
from repro.workloads.stream import StreamConfig, StreamWorkload

__all__ = ["World", "WORKLOADS", "build_world"]

#: Footprint each driver cycles through (as fig6/fig7 use).
FOOTPRINT_LINES = 1 << 14
#: Outstanding accesses of one lender-local STREAM hammer (fig7's value).
LENDER_LOCAL_CONCURRENCY = 10


@dataclass
class World:
    """One built testbed and the drivers that will run on it."""

    workload: str
    seed: int
    system: ThymesisFlowSystem
    drivers: List[DesPhaseDriver]
    programs: List[PhaseProgram]
    contention: Optional[HybridContention] = None

    @property
    def attempted(self) -> int:
        """Line transactions the workload issues."""
        return sum(p.total_lines for p in self.programs)

    def completed(self) -> int:
        """Line transactions completed so far (cheap: one len per driver)."""
        return sum(len(d.latencies) for d in self.drivers)

    def start(self) -> List[Process]:
        """Launch every driver at the current simulated instant."""
        return [driver.start() for driver in self.drivers]


def _sizes(seed: int, workload: str, nominal: int, count: int) -> List[int]:
    """Per-instance STREAM array sizes drawn from the seed (+-5%)."""
    rng = random.Random(f"{workload}/{seed}")
    spread = nominal // 20
    return [nominal + rng.randint(-spread, spread) for _ in range(count)]


def _drivers(system, programs: List[PhaseProgram]) -> List[DesPhaseDriver]:
    return [
        DesPhaseDriver(
            system,
            program,
            instance=f"w{idx}",
            footprint_lines=FOOTPRINT_LINES,
            instance_index=idx,
        )
        for idx, program in enumerate(programs)
    ]


def _stream(n_elements: int, location: Location, concurrency: int = 128) -> PhaseProgram:
    return StreamWorkload(
        StreamConfig(n_elements=n_elements, concurrency=concurrency)
    ).program(location)


# ----------------------------------------------------------------------
# Workload builders
# ----------------------------------------------------------------------
#: fig6 DES path: 8 remote STREAM instances share window, gate and link.
MCBN_INSTANCES = 8
MCBN_ELEMENTS = 9_000


def _stream_mcbn(seed: int) -> World:
    system = ThymesisFlowSystem(paper_cluster_config(period=1, seed=seed))
    system.attach_or_raise()
    programs = [
        _stream(n, Location.REMOTE)
        for n in _sizes(seed, "stream-mcbn", MCBN_ELEMENTS, MCBN_INSTANCES)
    ]
    return World("stream-mcbn", seed, system, _drivers(system, programs), programs)


#: fig7 DES path: one remote STREAM against 32 lender-local hammers.
MCLN_HAMMERS = 32
MCLN_ELEMENTS = 1_400


def _mcln_bus(seed: int) -> World:
    system = ThymesisFlowSystem(paper_cluster_config(period=1, seed=seed))
    system.attach_or_raise()
    remote, *local = _sizes(seed, "mcln-bus", MCLN_ELEMENTS, 1 + MCLN_HAMMERS)
    # Hammers get twice the work so the borrower sees contention for its
    # whole run (as in fig7).
    programs = [_stream(remote, Location.REMOTE)] + [
        _stream(2 * n, Location.LENDER_LOCAL, LENDER_LOCAL_CONCURRENCY) for n in local
    ]
    return World("mcln-bus", seed, system, _drivers(system, programs), programs)


#: Reliable datapath: selective-repeat ARQ over a lossy, corrupting link.
ARQ_INSTANCES = 4
ARQ_ELEMENTS = 10_000
ARQ_FAULT = FaultConfig(loss_rate=0.01, corrupt_rate=0.005)
#: Deadline and retry budget sized never to fire on this loss rate: they
#: are on the path (every transaction consults them) without shedding.
ARQ_OVERLOAD = OverloadConfig(
    deadline_ps=int(microseconds(500)),
    retry_budget_ratio=0.5,
    retry_budget_burst=64,
)


def _arq_lossy(seed: int) -> World:
    config = paper_cluster_config(period=1, seed=seed).with_fault(ARQ_FAULT)
    config = config.with_transport(
        replace(TransportConfig(), selective_repeat=True, max_retries=8)
    )
    system = ReliableThymesisFlowSystem(
        config, degraded_mode=True, faults_armed=False, overload=ARQ_OVERLOAD
    )
    # Attach over a clean link, then arm: the handshake is set-up, not
    # part of the lossy measured run.
    system.attach_or_raise()
    system.arm_faults()
    programs = [
        _stream(n, Location.REMOTE)
        for n in _sizes(seed, "arq-lossy", ARQ_ELEMENTS, ARQ_INSTANCES)
    ]
    return World("arq-lossy", seed, system, _drivers(system, programs), programs)


#: fig6 hybrid point scaled up: one discrete instance, 383 fluid ones.
HYBRID_INSTANCES = 384
HYBRID_ELEMENTS = 60_000


def _mcbn_hybrid(seed: int) -> World:
    config = paper_cluster_config(period=1, seed=seed)
    system = ThymesisFlowSystem(config)
    system.attach_or_raise()
    (size,) = _sizes(seed, "mcbn-hybrid", HYBRID_ELEMENTS, 1)
    program = _stream(size, Location.REMOTE)
    loads = mcbn_background(PathModel.from_config(config), program, HYBRID_INSTANCES - 1)
    contention = HybridContention(system, loads, foreground=program, start_ps=system.sim.now)
    return World(
        "mcbn-hybrid",
        seed,
        system,
        _drivers(system, [program]),
        [program],
        contention=contention,
    )


#: name -> builder; why each is in the benchmark is in ``NOTES.md``.
WORKLOADS: Dict[str, Callable[[int], World]] = {
    "stream-mcbn": _stream_mcbn,
    "mcln-bus": _mcln_bus,
    "arq-lossy": _arq_lossy,
    "mcbn-hybrid": _mcbn_hybrid,
}


def build_world(workload: str, seed: int) -> World:
    """Build *workload*'s world for *seed* (this is the timed set-up)."""
    return WORKLOADS[workload](seed)
