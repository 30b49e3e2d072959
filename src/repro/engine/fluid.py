"""Fluid (analytic) engine: closed-form bottleneck and Little's-law solver.

For a phase of ``n`` line transactions with concurrency ``C``, unloaded
round-trip latency ``L0``, per-transaction serial think time ``z`` and
per-transaction bottleneck interval ``b`` (the slowest of: injector
gate, link direction, memory-bus share), the phase time is::

    T(phase) = compute + L0 + (n - 1) * max(b, (L0 + z) / C) + n * z

which reduces to the familiar limits: latency-bound ``n*(L0+z)/C`` for
large ``n`` with a fast gate, gate-bound ``n*b`` when the injector
dominates, and ``L0 + (n-1)*b`` for a small burst.  Steady-state
sojourn follows Little's law, ``T_sojourn = C_eff * max(b, (L0+z)/C)``,
which is what yields the paper's constant bandwidth-delay product.

Multi-tenant contention (Figs. 6 and 7) has one model, shared with the
hybrid engine.  The contenders and the measured program are solved
together by weighted max-min fair allocation of each shared resource
(:func:`max_min_rates`, the fluid counterpart of the DES engine's FIFO
interleaving); :func:`solve_rate_timeline` re-solves it at every flow
completion, and :func:`repro.engine.hybrid.solve_contention` builds
that solve.  The hybrid engine installs the resulting background on
its servers; this engine evaluates the program's phases against the
capacity the background leaves free (``background=`` on
:meth:`FluidEngine.run`).

All sweep APIs accept NumPy arrays of PERIOD values and evaluate
vectorized, per the project's HPC style guides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.config import ClusterConfig
from repro.engine.model import GATE, LENDER_BUS, LINK_FWD, LINK_REV, PathModel
from repro.engine.phases import AccessPhase, Location, PhaseProgram
from repro.errors import ConfigError
from repro.sim.resources import RateSchedule
from repro.units import Duration

__all__ = [
    "TimedFlow",
    "max_min_rates",
    "FlowTimeline",
    "solve_rate_timeline",
    "FluidEngine",
    "FluidRun",
]


@dataclass(frozen=True)
class TimedFlow:
    """A flow competing for shared resources.

    A flow has an optional *volume* (total lines to move) and
    per-resource *costs* (units consumed per line — e.g. bytes on a
    link direction, one grant on the injector gate), so heterogeneous
    flows can share a resource pool.  Unit costs and equal weights give
    the classic equal-split max-min allocation.

    Attributes
    ----------
    name:
        Flow identifier.
    demand:
        Offered rate in lines/s absent contention.
    volume:
        Total lines the flow moves; ``None`` means open-ended (the
        flow persists for the whole timeline).
    costs:
        ``{resource: units per line}``; resources with zero cost may
        be omitted.
    background:
        True for bulk traffic the hybrid engine folds into per-resource
        :class:`~repro.sim.resources.RateSchedule` backgrounds; False
        for the measured foreground flow (included in the solve so the
        allocation is consistent, but never added to a schedule).
    weight:
        Share weight under contention.  FIFO reservation servers grant
        service proportional to each requester's queue presence, so a
        flow's weight is its outstanding-transaction depth (the DES
        engines' emergent division); equal weights give the classic
        equal split.
    """

    name: str
    demand: float
    volume: Optional[float]
    costs: Mapping[str, float]
    background: bool = True
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.demand <= 0:
            raise ConfigError(f"flow demand must be > 0, got {self.demand}")
        if self.volume is not None and self.volume <= 0:
            raise ConfigError(f"flow volume must be > 0, got {self.volume}")
        if not any(c > 0 for c in self.costs.values()):
            raise ConfigError(f"flow {self.name!r} must consume at least one resource")
        if self.weight <= 0:
            raise ConfigError(f"flow weight must be > 0, got {self.weight}")


def _check_flows(flows: Sequence[TimedFlow], capacities: Mapping[str, float]) -> None:
    """Reject duplicate flow names and flows crossing unknown resources."""
    names = set()
    for flow in flows:
        if flow.name in names:
            raise ConfigError(f"duplicate flow name {flow.name!r}")
        names.add(flow.name)
        for res in flow.costs:
            if res not in capacities:
                raise ConfigError(f"flow {flow.name!r} crosses unknown resource {res!r}")


def max_min_rates(
    flows: Iterable[TimedFlow], capacities: Mapping[str, float]
) -> Dict[str, float]:
    """Weighted max-min rates (lines/s) for heterogeneous-cost flows.

    Progressive filling on the *normalized* rate ``r`` (each flow runs
    at ``weight * r``): a resource saturates when
    ``sum(cost_f * weight_f * r) == remaining``, freezing every flow
    that crosses it; demand-limited flows freeze at
    ``r = demand / weight``.  With unit costs and equal weights this is
    classic water-filling: every unfrozen flow on the tightest resource
    gets an equal share of what remains.

    Returns ``{flow name: allocated rate}``.  Raises
    :class:`~repro.errors.ConfigError` on a duplicate flow name or a
    flow crossing a resource missing from *capacities*.
    """
    flows = tuple(flows)
    _check_flows(flows, capacities)
    return _fill(flows, capacities)


def _fill(flows: Iterable[TimedFlow], capacities: Mapping[str, float]) -> Dict[str, float]:
    """:func:`max_min_rates` without the input checks."""
    remaining = {r: float(c) for r, c in capacities.items()}
    alloc: Dict[str, float] = {}
    active = {f.name: f for f in flows}
    while active:
        load: Dict[str, float] = {}
        for flow in active.values():
            for res, cost in flow.costs.items():
                if cost > 0:
                    load[res] = load.get(res, 0.0) + cost * flow.weight
        rate_cap = {res: remaining[res] / total for res, total in load.items()}
        candidate = {
            name: min(
                min(rate_cap[res] for res, c in flow.costs.items() if c > 0),
                flow.demand / flow.weight,
            )
            for name, flow in active.items()
        }
        floor = min(candidate.values())
        frozen = [n for n, r in candidate.items() if r <= floor * (1 + 1e-12) + 1e-12]
        for name in frozen:
            flow = active.pop(name)
            rate = candidate[name] * flow.weight
            alloc[name] = rate
            for res, cost in flow.costs.items():
                remaining[res] = max(0.0, remaining[res] - cost * rate)
    return alloc


@dataclass(frozen=True)
class FlowTimeline:
    """Solved piecewise-constant rate timeline over a set of flows.

    ``segments`` are ``(t0_ps, t1_ps, {flow: lines/s})`` with ``t1``
    ``None`` on an open-ended final segment; ``finish_ps`` maps each
    finite-volume flow to its completion time.
    """

    flows: Tuple[TimedFlow, ...]
    segments: Tuple[Tuple[float, Optional[float], Mapping[str, float]], ...]
    finish_ps: Mapping[str, float]

    def background_schedule(self, resource: str) -> RateSchedule:
        """Aggregate background consumption of *resource* (units/s).

        Sums ``rate * cost`` over flows marked ``background`` per
        segment — ready to hand to
        :meth:`~repro.mem.bus.BandwidthServer.set_background` (or the
        injector's) so discrete foreground traffic sees the residual
        capacity.
        """
        costs = {
            f.name: f.costs.get(resource, 0.0) for f in self.flows if f.background
        }
        points: list[Tuple[int, float]] = []
        for t0, t1, alloc in self.segments:
            rate = sum(alloc.get(n, 0.0) * c for n, c in costs.items())
            points.append((round(t0), rate))
        if self.segments and self.segments[-1][1] is not None:
            points.append((round(self.segments[-1][1]), 0.0))
        cleaned: list[Tuple[int, float]] = []
        for t, r in points:
            if cleaned and t <= cleaned[-1][0]:
                cleaned[-1] = (cleaned[-1][0], r)  # same ps tick: last wins
            elif cleaned and r == cleaned[-1][1]:
                continue  # merge equal-rate neighbours
            else:
                cleaned.append((t, r))
        return RateSchedule(cleaned)


def solve_rate_timeline(
    flows: Sequence[TimedFlow],
    capacities: Mapping[str, float],
    start_ps: float = 0.0,
) -> FlowTimeline:
    """Event-driven fluid solve: max-min rates between flow completions.

    All flows start at *start_ps*; at each completion the remaining
    flows' rates are re-solved (the freed capacity redistributes), so
    the timeline is exact for piecewise-constant max-min dynamics.
    """
    _check_flows(flows, capacities)
    remaining = {f.name: float(f.volume) for f in flows if f.volume is not None}
    active = {f.name: f for f in flows}
    t = float(start_ps)
    segments: list[Tuple[float, Optional[float], Mapping[str, float]]] = []
    finish: Dict[str, float] = {}
    while any(name in remaining for name in active):
        alloc = _fill(active.values(), capacities)
        for name in active:
            if name in remaining and alloc[name] <= 0.0:
                raise ConfigError(f"flow {name!r} is starved and can never finish")
        dt_s = min(remaining[n] / alloc[n] for n in active if n in remaining)
        t_next = t + dt_s * 1e12
        segments.append((t, t_next, alloc))
        for name in [n for n in active if n in remaining]:
            remaining[name] -= alloc[name] * dt_s
            if remaining[name] <= 1e-9 * max(1.0, float(active[name].volume or 1.0)):
                del remaining[name]
                del active[name]
                finish[name] = t_next
        t = t_next
    if active:  # open-ended flows keep the steady-state allocation
        segments.append((t, None, _fill(active.values(), capacities)))
    return FlowTimeline(flows=tuple(flows), segments=tuple(segments), finish_ps=finish)


@dataclass(frozen=True)
class FluidRun:
    """Result of evaluating a program under the fluid engine."""

    program_name: str
    duration_ps: float
    remote_lines: int
    payload_bytes: float
    mean_sojourn_ps: float

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Payload bandwidth over the run."""
        if self.duration_ps <= 0:
            return 0.0
        return self.payload_bytes * 1e12 / self.duration_ps


#: Every shared resource wholly free: the uncontended case.
_ALL_FREE: Mapping[str, float] = {GATE: 1.0, LINK_FWD: 1.0, LINK_REV: 1.0, LENDER_BUS: 1.0}


class FluidEngine:
    """Analytic evaluation of phase programs against a configuration.

    Parameters
    ----------
    config:
        Testbed configuration; PERIOD sweeps re-derive the model via
        :meth:`with_period`.
    """

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.model = PathModel.from_config(config)

    def with_period(self, period: int) -> "FluidEngine":
        """Same engine at a different injection PERIOD."""
        return FluidEngine(self.config.with_period(period))

    # ------------------------------------------------------------------
    # Per-phase evaluation
    # ------------------------------------------------------------------
    def capacity_left(self, background: Optional[FlowTimeline]) -> Mapping[str, float]:
        """Fraction of each shared resource the *background* leaves free.

        Read in the timeline's first segment, where every flow still
        runs: the contended state the measured program sees.  ``None``
        leaves every resource free.
        """
        if background is None or not background.segments:
            return _ALL_FREE
        t0 = round(background.segments[0][0])
        return {
            res: 1.0 - background.background_schedule(res).rate_at(t0) / capacity
            for res, capacity in self.model.capacities().items()
        }

    def _phase(self, phase: AccessPhase, left: Mapping[str, float]) -> Tuple[float, float]:
        """(duration, steady-state sojourn) of *phase* given *left*.

        Each remote stage interval stretches by the fraction of its
        resource left free (see :meth:`capacity_left`).
        """
        m = self.model
        if phase.location is Location.REMOTE:
            fwd, rev = m.link_intervals(phase.write_fraction)
            base = m.base_latency
            interval = max(
                m.gate_interval / left[GATE],
                fwd / left[LINK_FWD],
                rev / left[LINK_REV],
                m.bus_interval / left[LENDER_BUS],
            )
        else:
            base, interval = m.local_latency, m.local_bus_interval
        if phase.n_lines == 0:
            return float(phase.compute_ps * phase.repeats), float(base)
        c_eff = min(phase.concurrency, m.window)
        z = phase.compute_ps_per_line
        per_txn = max(interval, (base + z) / c_eff)
        sojourn = float(base) if phase.n_lines < c_eff else float(c_eff * per_txn)
        one = phase.compute_ps + base + (phase.n_lines - 1) * per_txn + z
        return float(one * phase.repeats), sojourn

    def phase_sojourn_ps(self, phase: AccessPhase) -> float:
        """Steady-state per-transaction sojourn during *phase*."""
        return self._phase(phase, _ALL_FREE)[1]

    def phase_duration_ps(self, phase: AccessPhase) -> float:
        """Completion time of one phase (all repeats)."""
        return self._phase(phase, _ALL_FREE)[0]

    # ------------------------------------------------------------------
    # Program evaluation
    # ------------------------------------------------------------------
    def run(
        self, program: PhaseProgram, background: Optional[FlowTimeline] = None
    ) -> FluidRun:
        """Evaluate a whole program; returns aggregate timing/bandwidth.

        *background* is a contention solve that includes *program* as
        its foreground flow (:func:`repro.engine.hybrid.solve_contention`);
        the program then runs on the capacity it leaves free.
        """
        left = self.capacity_left(background)
        total = 0.0
        payload = 0.0
        weighted_sojourn = 0.0
        remote_lines = 0
        line = self.model.line_bytes
        for phase in program:
            duration, sojourn = self._phase(phase, left)
            total += duration
            payload += phase.total_lines * line
            if phase.location is Location.REMOTE:
                remote_lines += phase.total_lines
            weighted_sojourn += sojourn * phase.total_lines
        lines = max(1, program.total_lines)
        return FluidRun(
            program_name=program.name,
            duration_ps=total,
            remote_lines=remote_lines,
            payload_bytes=payload,
            mean_sojourn_ps=weighted_sojourn / lines,
        )

    # ------------------------------------------------------------------
    # Vectorized sweeps
    # ------------------------------------------------------------------
    def sweep_remote_steady_state(
        self,
        periods: Iterable[int],
        concurrency: int,
        write_fraction: float = 0.0,
        think_ps: Duration = 0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sojourn/bandwidth/BDP across a PERIOD sweep, vectorized.

        Returns ``(sojourn_ps, bandwidth_bytes_per_s, bdp_bytes)``
        arrays aligned with *periods* — the quantities of the paper's
        Figures 2 and 3.
        """
        m = self.model
        periods_arr = np.asarray(list(periods), dtype=np.int64)
        if (periods_arr < 1).any():
            raise ConfigError("PERIOD values must be >= 1")
        t_cyc = self.config.borrower.nic.fpga.clock_period
        gate = periods_arr.astype(np.float64) * t_cyc
        link = m.link_interval(write_fraction)
        bus = float(m.bus_interval)
        interval = np.maximum(gate, max(link, bus))
        c_eff = min(concurrency, m.window)
        per_txn = np.maximum(interval, (m.base_latency + think_ps) / c_eff)
        sojourn = c_eff * per_txn
        bandwidth = m.line_bytes * 1e12 / per_txn
        bdp = bandwidth * sojourn / 1e12
        return sojourn, bandwidth, bdp
