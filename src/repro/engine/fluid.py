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

Multi-tenant contention (Figs. 6 and 7) is solved by weighted max-min
fair allocation of each shared resource's capacity across flows
(:func:`max_min_rates`), the fluid counterpart of the DES engine's FIFO
interleaving.  :func:`solve_rate_timeline` re-solves the same
allocation at every flow completion to give the hybrid engine its
piecewise-constant background schedules.

All sweep APIs accept NumPy arrays of PERIOD values and evaluate
vectorized, per the project's HPC style guides.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.config import ClusterConfig
from repro.engine.model import PathModel
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

    def flow_rate_at(self, name: str, t: float) -> float:
        """Allocated rate (lines/s) of *name* at time *t*."""
        for t0, t1, alloc in self.segments:
            if t >= t0 and (t1 is None or t < t1):
                return alloc.get(name, 0.0)
        return 0.0

    def end_ps(self) -> float:
        """Completion time of the last finite flow (0 with no flows)."""
        return max(self.finish_ps.values(), default=0.0)

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


class FluidEngine:
    """Analytic evaluation of phase programs against a configuration.

    Parameters
    ----------
    config:
        Testbed configuration; PERIOD sweeps re-derive the model via
        :meth:`with_period`.
    remote_share:
        Fraction (0, 1] of gate/link capacity available to this flow —
        used to model contention computed by :func:`max_min_rates`.
    lender_bus_share:
        Fraction of the lender memory bus available to this flow.
    """

    def __init__(
        self,
        config: ClusterConfig,
        remote_share: float = 1.0,
        lender_bus_share: float = 1.0,
    ) -> None:
        if not 0 < remote_share <= 1 or not 0 < lender_bus_share <= 1:
            raise ConfigError("shares must be in (0, 1]")
        self.config = config
        self.model = PathModel.from_config(config)
        self.remote_share = remote_share
        self.lender_bus_share = lender_bus_share

    def with_period(self, period: int) -> "FluidEngine":
        """Same engine at a different injection PERIOD."""
        return FluidEngine(
            self.config.with_period(period),
            remote_share=self.remote_share,
            lender_bus_share=self.lender_bus_share,
        )

    # ------------------------------------------------------------------
    # Per-phase evaluation
    # ------------------------------------------------------------------
    def _remote_interval(self, write_fraction: float) -> float:
        m = self.model
        link = m.link_interval(write_fraction) / self.remote_share
        gate = m.gate_interval / self.remote_share
        bus = m.bus_interval / self.lender_bus_share
        return max(gate, link, bus)

    def phase_sojourn_ps(self, phase: AccessPhase) -> float:
        """Steady-state per-transaction sojourn during *phase*."""
        m = self.model
        if phase.location is Location.REMOTE:
            base, interval = m.base_latency, self._remote_interval(phase.write_fraction)
        else:
            base, interval = m.local_latency, m.local_bus_interval
        c_eff = min(phase.concurrency, m.window)
        z = phase.compute_ps_per_line
        per_txn = max(interval, (base + z) / c_eff)
        if phase.n_lines < c_eff:
            return float(base)
        return float(c_eff * per_txn)

    def phase_duration_ps(self, phase: AccessPhase) -> float:
        """Completion time of one phase (all repeats)."""
        m = self.model
        if phase.n_lines == 0:
            return float((phase.compute_ps) * phase.repeats)
        if phase.location is Location.REMOTE:
            base, interval = m.base_latency, self._remote_interval(phase.write_fraction)
        else:
            base, interval = m.local_latency, m.local_bus_interval
        c_eff = min(phase.concurrency, m.window)
        z = phase.compute_ps_per_line
        per_txn = max(interval, (base + z) / c_eff)
        one = phase.compute_ps + base + (phase.n_lines - 1) * per_txn + z
        return float(one * phase.repeats)

    # ------------------------------------------------------------------
    # Program evaluation
    # ------------------------------------------------------------------
    def run(self, program: PhaseProgram) -> FluidRun:
        """Evaluate a whole program; returns aggregate timing/bandwidth."""
        total = 0.0
        payload = 0.0
        weighted_sojourn = 0.0
        remote_lines = 0
        line = self.model.line_bytes
        for phase in program:
            total += self.phase_duration_ps(phase)
            payload += phase.total_lines * line
            if phase.location is Location.REMOTE:
                remote_lines += phase.total_lines
            weighted_sojourn += self.phase_sojourn_ps(phase) * phase.total_lines
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
        gate = periods_arr.astype(np.float64) * t_cyc / self.remote_share
        link = m.link_interval(write_fraction) / self.remote_share
        bus = m.bus_interval / self.lender_bus_share
        interval = np.maximum(gate, max(link, bus))
        c_eff = min(concurrency, m.window)
        per_txn = np.maximum(interval, (m.base_latency + think_ps) / c_eff)
        sojourn = c_eff * per_txn
        bandwidth = m.line_bytes * 1e12 / per_txn
        bdp = bandwidth * sojourn / 1e12
        return sojourn, bandwidth, bdp

    # ------------------------------------------------------------------
    # Contention helpers (Figs. 6, 7)
    # ------------------------------------------------------------------
    def contended_remote_engines(self, n_borrower_flows: int) -> "FluidEngine":
        """Engine view for one of N identical remote flows (MCBN)."""
        if n_borrower_flows < 1:
            raise ConfigError("need at least one flow")
        return FluidEngine(
            self.config,
            remote_share=self.remote_share / n_borrower_flows,
            lender_bus_share=self.lender_bus_share,
        )

    def mcln_allocation(
        self,
        remote_demand_lines_per_s: float,
        local_demand_lines_per_s: float,
        n_local_flows: int,
    ) -> Dict[str, float]:
        """Max-min allocation of the lender bus (MCLN scenario).

        One remote flow (crossing gate, link and lender bus) competes
        with *n_local_flows* lender-local flows (bus only).
        """
        m = self.model
        capacities = {
            "gate": 1e12 / m.gate_interval,
            "link": 1e12 / max(m.link_fwd_interval, m.link_rev_interval),
            "lender_bus": 1e12 / m.bus_interval,
        }
        flows = [
            TimedFlow(
                "remote",
                remote_demand_lines_per_s,
                None,
                {"gate": 1.0, "link": 1.0, "lender_bus": 1.0},
            )
        ]
        flows += [
            TimedFlow(f"local{i}", local_demand_lines_per_s, None, {"lender_bus": 1.0})
            for i in range(n_local_flows)
        ]
        return max_min_rates(flows, capacities)


def scaled_phase(phase: AccessPhase, factor: float) -> AccessPhase:
    """Utility: a copy of *phase* with line count scaled by *factor*."""
    return replace(phase, n_lines=max(1, round(phase.n_lines * factor)))
