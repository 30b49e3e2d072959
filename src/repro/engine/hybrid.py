"""Hybrid fluid/discrete engine: background-traffic offload.

The contention experiments spend almost all their events on *bulk*
traffic nobody measures — the (N-1) contender STREAM instances of
MCBN, the lender-local hammers of MCLN, evacuation replay streams.
This module solves that traffic as fluid flows on a piecewise-constant
max-min timeline (:func:`repro.engine.fluid.solve_rate_timeline`) and
installs the resulting per-resource background
:class:`~repro.sim.resources.RateSchedule` onto the live testbed's
reservation servers: the injector gate, each link direction, and the
lender memory bus.  The measured *foreground* instance then runs fully
discrete and experiences contention as residual service rates —
``capacity - b(t)`` — instead of millions of contender events.

Validity: the offload is exact in the fluid limit — background flows
must be bulk/streaming (windows deep enough to saturate their max-min
share) and individually unmeasured.  Per-transaction foreground
behaviour (latency distributions, blame attribution) remains discrete
and ordered; only its *service rates* are scaled.  The foreground flow
is included in the fluid solve so the background allocation is
consistent with what a DES co-run would give it (N symmetric flows
each receive capacity/N).  :func:`solve_contention` is that one solve;
the fluid engine's contended runs evaluate the foreground analytically
against the same timeline, so the two engines share one contention
model.

With zero background flows every schedule is empty and the servers
keep their pure-DES fast path — results are byte-identical to
``--engine des``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.engine.fluid import FlowTimeline, TimedFlow, solve_rate_timeline
from repro.engine.model import GATE, LENDER_BUS, LINK_FWD, LINK_REV, PathModel
from repro.engine.phases import Location, PhaseProgram
from repro.errors import ConfigError
from repro.nic.packet import HEADER_BYTES
from repro.sim import RateSchedule

__all__ = [
    "BackgroundLoad",
    "HybridContention",
    "lender_bus_pulse",
    "mcbn_background",
    "mcln_background",
    "program_write_fraction",
    "solve_contention",
]


def program_write_fraction(program: PhaseProgram) -> float:
    """Line-weighted write fraction of a phase program."""
    lines = sum(p.total_lines for p in program)
    if lines == 0:
        return 0.0
    return sum(p.write_fraction * p.total_lines for p in program) / lines


def _program_think_ps(program: PhaseProgram) -> float:
    """Line-weighted per-transaction serial think time."""
    lines = sum(p.total_lines for p in program)
    if lines == 0:
        return 0.0
    return sum(p.compute_ps_per_line * p.total_lines for p in program) / lines


@dataclass(frozen=True)
class BackgroundLoad:
    """One bulk traffic source to offload to the fluid side.

    Attributes
    ----------
    name:
        Flow identifier (unique within one solve).
    lines:
        Total cache-line transactions the flow moves.
    demand_lines_per_s:
        Rate the flow would sustain absent contention.
    write_fraction:
        Share of its transactions that are writes (sets which link
        direction carries the payloads).
    location:
        ``Location.REMOTE`` crosses gate, both link directions and the
        lender bus; ``Location.LENDER_LOCAL`` crosses the lender bus
        only (MCLN's local hammers).
    concurrency:
        Outstanding-transaction depth — the flow's share weight under
        FIFO contention (reservation servers grant service
        proportional to queue presence, which is what the DES engines
        exhibit).
    """

    name: str
    lines: float
    demand_lines_per_s: float
    write_fraction: float = 0.0
    location: Location = Location.REMOTE
    concurrency: float = 1.0

    def costs(self, model: PathModel) -> Dict[str, float]:
        """Per-line resource consumption (units per line)."""
        line = model.line_bytes
        if self.location is Location.LENDER_LOCAL:
            return {LENDER_BUS: float(line)}
        if self.location is not Location.REMOTE:
            raise ConfigError(
                f"background flow {self.name!r} must be REMOTE or LENDER_LOCAL"
            )
        wf = self.write_fraction
        return {
            GATE: 1.0,
            LINK_FWD: HEADER_BYTES + wf * line,
            LINK_REV: HEADER_BYTES + (1.0 - wf) * line,
            LENDER_BUS: float(line),
        }


def solve_contention(
    model: PathModel,
    loads: Sequence[BackgroundLoad],
    foreground: Optional[PhaseProgram] = None,
    start_ps: float = 0,
) -> FlowTimeline:
    """Max-min rate timeline of *loads* competing with *foreground*.

    The foreground joins as one more remote contender (the flow
    :func:`mcbn_background` builds for it) that is open-ended and never
    part of a background schedule.  Its *discrete* finish time is
    unknowable here, and letting the fluid side absorb the
    foreground's share after a fluid-estimated finish would starve the
    real (slower-ramping) discrete tail.
    """
    flows = []
    if foreground is not None and foreground.total_lines:
        (fg,) = mcbn_background(model, foreground, 1)
        flows.append(
            TimedFlow(
                "foreground",
                demand=fg.demand_lines_per_s,
                volume=None,
                costs=fg.costs(model),
                background=False,
                weight=fg.concurrency,
            )
        )
    for load in loads:
        flows.append(
            TimedFlow(
                load.name,
                demand=load.demand_lines_per_s,
                volume=float(load.lines),
                costs=load.costs(model),
                background=True,
                weight=float(load.concurrency),
            )
        )
    return solve_rate_timeline(flows, model.capacities(), start_ps=start_ps)


class HybridContention:
    """Fluid background contention installed onto a live testbed.

    Parameters
    ----------
    system:
        The (attached) :class:`~repro.node.cluster.ThymesisFlowSystem`
        the foreground will run on.
    loads:
        Background traffic to offload.
    foreground:
        The measured program (stays discrete; included in the solve so
        rates are consistent).  ``None`` models pure background.
    start_ps:
        Simulated time at which all flows start — pass ``sim.now``
        after attach so the handshake runs uncontended.
    """

    def __init__(
        self,
        system,
        loads: Sequence[BackgroundLoad],
        foreground: Optional[PhaseProgram] = None,
        start_ps: int = 0,
    ) -> None:
        self.system = system
        self.loads = tuple(loads)
        self.model = PathModel.from_config(system.config)
        self.start_ps = start_ps
        self.timeline: FlowTimeline = solve_contention(
            self.model, self.loads, foreground, start_ps
        )

    # ------------------------------------------------------------------
    # Install / remove the background on the testbed's servers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Attach the solved background schedules to the servers."""
        system = self.system
        timeline = self.timeline
        system.injector.set_background(timeline.background_schedule(GATE))
        system.link.forward.set_background(timeline.background_schedule(LINK_FWD))
        system.link.reverse.set_background(timeline.background_schedule(LINK_REV))
        system.lender.dram.bus.set_background(
            timeline.background_schedule(LENDER_BUS)
        )

    def uninstall(self) -> None:
        """Restore the pure-DES fast path on every server."""
        system = self.system
        system.injector.set_background(None)
        system.link.forward.set_background(None)
        system.link.reverse.set_background(None)
        system.lender.dram.bus.set_background(None)

    def __enter__(self) -> "HybridContention":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Background-side results (no events were spent on these)
    # ------------------------------------------------------------------
    def finish_ps(self, name: str) -> float:
        """Fluid completion time of background flow *name*."""
        return self.timeline.finish_ps[name]

    def background_bandwidth_bytes_per_s(self, name: str) -> float:
        """Mean payload bandwidth of background flow *name*."""
        load = next(x for x in self.loads if x.name == name)
        duration = self.finish_ps(name) - self.start_ps
        if duration <= 0:
            return 0.0
        return load.lines * self.model.line_bytes * 1e12 / duration


def lender_bus_pulse(
    system, start_ps: int, stop_ps: int, fraction: float
) -> RateSchedule:
    """Square-pulse fluid contention on the lender memory bus.

    Builds (and installs) a background schedule that consumes
    *fraction* of the lender bus over ``[start_ps, stop_ps)`` — a gray
    lender whose DRAM is hammered by unmeasured fig6-style contenders,
    expressed as fluid so the pulse costs zero contender events.  The
    metastable experiment's hybrid mode uses this as (part of) its
    trigger: foreground transfers serialize at the residual rate while
    the pulse is in force, and the overload layer's shedding/hedging
    composes with the fluid background exactly as with discrete
    contention.  Returns the installed schedule (pass it to
    ``system.lender.dram.bus.set_background(None)`` to clear early).
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"pulse fraction must be in (0, 1), got {fraction}")
    if stop_ps <= start_ps:
        raise ConfigError("pulse window must be non-empty")
    rate = system.config.lender.dram.bus_bandwidth_bytes_per_s * fraction
    schedule = RateSchedule([(int(start_ps), rate), (int(stop_ps), 0.0)])
    system.lender.dram.bus.set_background(schedule)
    return schedule


def mcbn_background(
    model: PathModel, program: PhaseProgram, n_contenders: int
) -> Tuple[BackgroundLoad, ...]:
    """Background loads for N identical remote contenders (MCBN)."""
    if n_contenders < 0:
        raise ConfigError("contender count must be >= 0")
    wf = program_write_fraction(program)
    demand = model.remote_throughput_lines_per_s(
        max((p.concurrency for p in program), default=1),
        write_fraction=wf,
        think_ps=_program_think_ps(program),
    )
    concurrency = min(
        max((p.concurrency for p in program), default=1), model.window
    )
    return tuple(
        BackgroundLoad(
            name=f"bg{i}",
            lines=float(program.total_lines),
            demand_lines_per_s=demand,
            write_fraction=wf,
            location=Location.REMOTE,
            concurrency=float(concurrency),
        )
        for i in range(n_contenders)
    )


def mcln_background(
    model: PathModel,
    program: PhaseProgram,
    n_local: int,
    local_concurrency: int,
) -> Tuple[BackgroundLoad, ...]:
    """Background loads for N lender-local hammers (MCLN)."""
    if n_local < 0:
        raise ConfigError("local instance count must be >= 0")
    demand = local_concurrency / (model.local_latency / 1e12)
    return tuple(
        BackgroundLoad(
            name=f"local{i}",
            lines=float(program.total_lines),
            demand_lines_per_s=demand,
            write_fraction=program_write_fraction(program),
            location=Location.LENDER_LOCAL,
            concurrency=float(local_concurrency),
        )
        for i in range(n_local)
    )
