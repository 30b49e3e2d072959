"""Analytic path model derived from a cluster configuration.

Computes, for a given :class:`~repro.config.ClusterConfig`, the same
stage timings the DES path charges — unloaded round-trip latency and
the per-transaction interval of each potential bottleneck — so the
fluid engine and the DES engine share one source of timing truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.config import ClusterConfig
from repro.nic.packet import HEADER_BYTES
from repro.units import Duration, transfer_time_ps

__all__ = ["PathModel", "GATE", "LINK_FWD", "LINK_REV", "LENDER_BUS"]

#: Shared-resource names of the remote datapath, in path order.
GATE, LINK_FWD, LINK_REV, LENDER_BUS = "gate", "link_fwd", "link_rev", "lender_bus"


@dataclass(frozen=True)
class PathModel:
    """Per-transaction timing constants of the remote path.

    Attributes
    ----------
    base_latency:
        Unloaded issue→response sojourn of one remote read (ps).
    gate_interval:
        Delay-injector inter-grant spacing, ``PERIOD * T_CYC`` (ps).
    link_fwd_interval / link_rev_interval:
        Wire serialization time per transaction in each direction (ps).
    bus_interval:
        Lender memory-bus serialization per line (ps).
    local_latency:
        Unloaded local-DRAM access sojourn (ps).
    local_bus_interval:
        Local (borrower) bus serialization per line (ps).
    line_bytes:
        Transaction payload size.
    window:
        Hardware outstanding-transaction bound (W).
    link_bytes_per_s / bus_bytes_per_s:
        Raw rate of each link direction and of the lender memory bus.
    """

    base_latency: Duration
    gate_interval: Duration
    link_fwd_interval: Duration
    link_rev_interval: Duration
    link_header_interval: Duration
    link_line_interval: Duration
    bus_interval: Duration
    local_latency: Duration
    local_bus_interval: Duration
    line_bytes: int
    window: int
    link_bytes_per_s: float
    bus_bytes_per_s: float

    @classmethod
    def from_config(cls, config: ClusterConfig) -> "PathModel":
        """Derive the model from *config* (mirrors the DES datapath)."""
        fpga = config.borrower.nic.fpga
        line = config.borrower.cache.line_bytes
        link_rate = config.link.bandwidth_bytes_per_s
        bus_rate = config.lender.dram.bus_bandwidth_bytes_per_s
        local_bus_rate = config.borrower.dram.bus_bandwidth_bytes_per_s

        req_bytes = HEADER_BYTES  # read request: header only
        resp_bytes = HEADER_BYTES + line  # read response carries the line
        ser_fwd = transfer_time_ps(req_bytes, link_rate)
        ser_rev = transfer_time_ps(resp_bytes, link_rate)
        bus_ser = transfer_time_ps(line, bus_rate)

        base = (
            2 * fpga.host_interface_latency
            + 2 * fpga.pipeline_latency
            + ser_fwd
            + ser_rev
            + 2 * config.link.propagation_delay
            + config.borrower.nic.translation_latency
            + fpga.turnaround_latency
            + bus_ser
            + config.lender.dram.access_latency
        )
        # Writes carry the line on the request instead of the response;
        # the round trip moves the same bytes, so one model serves both.
        # The per-direction *throughput* bottleneck must use the heavier
        # direction (a stream of reads loads the reverse channel; a
        # stream of writes the forward one): engines pass the payload
        # direction through write_fraction when it matters.
        return cls(
            base_latency=base,
            gate_interval=config.borrower.nic.injection.period * fpga.clock_period,
            link_fwd_interval=ser_fwd,
            link_rev_interval=ser_rev,
            link_header_interval=transfer_time_ps(HEADER_BYTES, link_rate),
            link_line_interval=transfer_time_ps(line, link_rate),
            bus_interval=bus_ser,
            local_latency=(
                config.borrower.cpu.issue_overhead
                + transfer_time_ps(line, local_bus_rate)
                + config.borrower.dram.access_latency
            ),
            local_bus_interval=transfer_time_ps(line, local_bus_rate),
            line_bytes=line,
            window=config.borrower.cpu.max_outstanding_misses,
            link_bytes_per_s=float(link_rate),
            bus_bytes_per_s=float(bus_rate),
        )

    def capacities(self) -> Dict[str, float]:
        """Shared-resource capacities in native units/s.

        Injector grants per second, bytes per second on each link
        direction and on the lender bus: the units a flow's per-line
        costs are counted in.
        """
        return {
            GATE: 1e12 / self.gate_interval,
            LINK_FWD: self.link_bytes_per_s,
            LINK_REV: self.link_bytes_per_s,
            LENDER_BUS: self.bus_bytes_per_s,
        }

    def link_intervals(self, write_fraction: float = 0.0) -> Tuple[float, float]:
        """Average per-transaction wire time of each direction (fwd, rev).

        Every transaction puts a header on both directions; the line
        payload rides forward for writes and reverse for reads, so a
        mixed stream loads each direction with only its share of the
        payloads.
        """
        fwd = self.link_header_interval + write_fraction * self.link_line_interval
        rev = self.link_header_interval + (1.0 - write_fraction) * self.link_line_interval
        return fwd, rev

    def link_interval(self, write_fraction: float = 0.0) -> float:
        """Average per-transaction wire time of the heavier direction."""
        return max(self.link_intervals(write_fraction))

    def remote_bottleneck_interval(self, write_fraction: float = 0.0) -> float:
        """Per-transaction interval of the slowest remote stage."""
        return max(
            float(self.gate_interval),
            self.link_interval(write_fraction),
            float(self.bus_interval),
        )

    def remote_throughput_lines_per_s(
        self, concurrency: int, write_fraction: float = 0.0, think_ps: Duration = 0
    ) -> float:
        """Closed-network throughput bound: ``min(C/(L0+Z), 1/b)``."""
        effective_c = min(concurrency, self.window)
        interval = self.remote_bottleneck_interval(write_fraction)
        latency_bound = effective_c / (self.base_latency + think_ps)
        service_bound = 1.0 / interval
        return min(latency_bound, service_bound) * 1e12

    def bdp_bytes(self, concurrency: int | None = None) -> float:
        """Bandwidth-delay product of the saturated closed loop."""
        c = self.window if concurrency is None else min(concurrency, self.window)
        return float(c * self.line_bytes)
