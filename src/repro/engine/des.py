"""DES phase driver: executes phase programs on a live testbed.

One :class:`DesPhaseDriver` instance drives one workload instance.
Several drivers can share a :class:`~repro.node.cluster.ThymesisFlowSystem`
— that is exactly how the contention experiments (MCBN/MCLN) are
built: their transactions interleave through the shared window, gate,
link and memory buses, and the fair division the paper observes
emerges from FIFO service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.engine.phases import AccessPhase, Location, PhaseProgram
from repro.errors import WorkloadError
from repro.node.cluster import ThymesisFlowSystem
from repro.sim import AllOf, Process, SampleSeries, Timeout
from repro.units import Time

__all__ = ["InstanceResult", "DesPhaseDriver"]


@dataclass
class InstanceResult:
    """Measurements from one driven workload instance."""

    instance: str
    start_time: Time
    end_time: Time
    lines: int
    payload_bytes: int
    latencies: SampleSeries

    @property
    def duration_ps(self) -> int:
        """Wall (simulated) duration of the instance."""
        return self.end_time - self.start_time

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Payload bandwidth achieved by this instance."""
        if self.duration_ps <= 0:
            return 0.0
        return self.payload_bytes * 1e12 / self.duration_ps

    @property
    def mean_latency_ps(self) -> float:
        """Mean transaction sojourn observed by this instance."""
        return self.latencies.mean()


class DesPhaseDriver:
    """Drives one :class:`PhaseProgram` through the DES testbed.

    Parameters
    ----------
    system:
        The (attached) testbed.
    program:
        Phases to execute in order.
    instance:
        Label; also salts this instance's address offsets so multiple
        instances touch distinct lines.
    footprint_lines:
        Size of the address window this instance cycles through.
    """

    def __init__(
        self,
        system: ThymesisFlowSystem,
        program: PhaseProgram,
        instance: str = "w0",
        footprint_lines: int = 1 << 16,
        instance_index: int = 0,
        traffic_class=None,
    ) -> None:
        self.system = system
        self.program = program
        self.instance = instance
        self.footprint_lines = footprint_lines
        self.instance_index = instance_index
        self.traffic_class = traffic_class
        self.latencies = SampleSeries(f"{instance}.latency")
        self._lines = 0
        self._proc: Optional[Process] = None
        self.result: Optional[InstanceResult] = None

    # ------------------------------------------------------------------
    def start(self) -> Process:
        """Launch the driver process (does not run the simulator)."""
        if self._proc is not None:
            raise WorkloadError(f"driver {self.instance!r} already started")
        self._proc = self.system.sim.process(self._run(), name=self.instance)
        return self._proc

    def run_to_completion(self) -> InstanceResult:
        """Start, run the simulator until this instance finishes."""
        proc = self.start()
        self.system.sim.run()
        if not proc.ok:
            _ = proc.value  # re-raise stored failure
        assert self.result is not None
        return self.result

    # ------------------------------------------------------------------
    def _run(self) -> Generator:
        sim = self.system.sim
        obs = self.system.obs
        pid = getattr(self.system, "_obs_pid", 1) or 1
        start = sim.now
        for phase in self.program:
            for repeat in range(phase.repeats):
                phase_start = sim.now
                yield from self._run_phase(phase)
                if obs.tracer.enabled:
                    obs.tracer.add_span(
                        f"{self.instance}.{phase.name}",
                        phase_start,
                        sim.now,
                        pid=pid,
                        track=f"workload.{self.instance}",
                        cat="phase",
                        args={"repeat": repeat},
                    )
        end = sim.now
        self.result = InstanceResult(
            instance=self.instance,
            start_time=start,
            end_time=end,
            lines=self._lines,
            payload_bytes=self._lines * self.system.line_bytes,
            latencies=self.latencies,
        )
        if obs.enabled:
            obs.metrics.count(f"workload.{self.instance}.lines", self._lines)
            obs.tracer.add_instant(
                f"{self.instance}.done",
                end,
                pid=pid,
                cat="workload",
                args={"lines": self._lines},
            )
        return self.result

    def _run_phase(self, phase: AccessPhase) -> Generator:
        system = self.system
        sim = system.sim
        if phase.compute_ps:
            yield Timeout(sim, phase.compute_ps)
        n_lines = phase.n_lines
        if n_lines == 0:
            return
        # Per-phase constants, hoisted out of the per-line loop.  Line
        # ``i`` touches slot ``i % footprint`` of this instance's window:
        # address ``(instance_index * footprint + slot) * line_bytes``,
        # wrapped into the remote region for remote phases.
        write_fraction = phase.write_fraction
        compute_per_line = phase.compute_ps_per_line
        footprint = self.footprint_lines
        line_bytes = system.line_bytes
        window_base = self.instance_index * footprint
        remote = phase.location is Location.REMOTE
        if remote:
            access = system.remote_access
            traffic_class = self.traffic_class
            region_base = system.config.remote_region_base
            region_bytes = system.config.remote_region_bytes
        else:
            access = system.local_access
            node = system.lender if phase.location is Location.LENDER_LOCAL else system.borrower
        add_latency = self.latencies.add
        cursor = _LineCursor()

        def worker() -> Generator:
            while cursor.next < n_lines:
                idx = cursor.next
                cursor.next = idx + 1
                # Bresenham-style deterministic write mixing.
                cursor.write_acc += write_fraction
                write = cursor.write_acc >= 1.0
                if write:
                    cursor.write_acc -= 1.0
                offset = (window_base + idx % footprint) * line_bytes
                if remote:
                    result = yield from access(
                        region_base + offset % region_bytes,
                        write=write,
                        traffic_class=traffic_class,
                    )
                else:
                    # Local physical addresses start at 0.
                    result = yield from access(node, offset, write=write)
                add_latency(result.latency)
                self._lines += 1
                if compute_per_line:
                    yield Timeout(sim, compute_per_line)

        procs = [sim.process(worker(), name=f"{self.instance}.{phase.name}.{i}")
                 for i in range(min(phase.concurrency, n_lines))]
        yield AllOf(sim, procs)


class _LineCursor:
    """Next line index and write-mix accumulator shared by a phase's workers."""

    __slots__ = ("next", "write_acc")

    def __init__(self) -> None:
        self.next = 0
        self.write_acc = 0.0


def run_concurrent(
    system: ThymesisFlowSystem,
    programs: List[PhaseProgram],
    footprint_lines: int = 1 << 14,
) -> List[InstanceResult]:
    """Run several programs simultaneously on one testbed.

    Starts one driver per program at the same simulated instant, runs
    the simulator to completion, returns per-instance results in input
    order.  This is the harness primitive behind the contention
    experiments.
    """
    drivers = [
        DesPhaseDriver(
            system,
            prog,
            instance=f"w{idx}",
            footprint_lines=footprint_lines,
            instance_index=idx,
        )
        for idx, prog in enumerate(programs)
    ]
    procs = [d.start() for d in drivers]
    system.sim.run()
    for proc in procs:
        if not proc.ok:
            _ = proc.value
    return [d.result for d in drivers]  # type: ignore[misc]
