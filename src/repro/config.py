"""Frozen dataclass configurations for every simulated subsystem.

All configs validate on construction and are immutable, so a composed
experiment config can be hashed/logged and safely shared between runs.
Default values model the paper's testbed (two IBM AC922 POWER9 nodes
with AlphaData 9V3 FPGAs joined by a 100 Gb/s cable); see
:mod:`repro.calibration` for the provenance of each number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigError
from repro.units import (
    Duration,
    gbit_per_s_to_bytes_per_s,
    milliseconds,
    nanoseconds,
)

__all__ = [
    "CacheConfig",
    "DramConfig",
    "CpuConfig",
    "FpgaConfig",
    "DelayInjectionConfig",
    "FaultConfig",
    "TransportConfig",
    "LinkConfig",
    "NicConfig",
    "NodeConfig",
    "ClusterConfig",
    "default_cluster_config",
]


def _probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value!r}")


def _positive(name: str, value: float) -> None:
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")


def _non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ConfigError(f"{name} must be non-negative, got {value!r}")


def _power_of_two(name: str, value: int) -> None:
    if value < 1 or value & (value - 1):
        raise ConfigError(f"{name} must be a power of two, got {value!r}")


@dataclass(frozen=True)
class CacheConfig:
    """Last-level cache model parameters.

    The AC922 nodes in the paper have 120 MiB of cache per node; STREAM
    was sized (0.2 GiB) to exceed it.  The default here is scaled down
    alongside the scaled-down workloads so hit/miss behaviour is
    preserved at simulation-friendly sizes.
    """

    size_bytes: int = 1 * 1024 * 1024
    line_bytes: int = 128  # POWER9 cache-line size
    associativity: int = 8
    hit_latency: Duration = nanoseconds(10)

    def __post_init__(self) -> None:
        _positive("cache size_bytes", self.size_bytes)
        _power_of_two("cache line_bytes", self.line_bytes)
        _positive("cache associativity", self.associativity)
        _non_negative("cache hit_latency", self.hit_latency)
        n_lines = self.size_bytes // self.line_bytes
        if n_lines % self.associativity:
            raise ConfigError(
                "cache size/line/associativity do not divide into whole sets"
            )

    @property
    def n_sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class DramConfig:
    """Local DRAM module: access latency plus a shared-bus bandwidth."""

    access_latency: Duration = nanoseconds(95)
    bus_bandwidth_bytes_per_s: float = 230e9  # AC922-class aggregate memory BW (dual socket)
    capacity_bytes: int = 512 * 1024 * 1024 * 1024  # 512 GB per node (paper)

    def __post_init__(self) -> None:
        _non_negative("dram access_latency", self.access_latency)
        _positive("dram bus_bandwidth", self.bus_bandwidth_bytes_per_s)
        _positive("dram capacity", self.capacity_bytes)


@dataclass(frozen=True)
class CpuConfig:
    """Processor model: issue capability and miss-level parallelism."""

    hardware_threads: int = 128  # dual-socket POWER9 in the paper
    max_outstanding_misses: int = 128  # MSHR window W; BDP = W * line
    issue_overhead: Duration = nanoseconds(1)

    def __post_init__(self) -> None:
        _positive("cpu hardware_threads", self.hardware_threads)
        _positive("cpu max_outstanding_misses", self.max_outstanding_misses)
        _non_negative("cpu issue_overhead", self.issue_overhead)


@dataclass(frozen=True)
class DelayInjectionConfig:
    """Configuration of the delay-injection module (paper section III-B).

    ``period`` is the paper's PERIOD: the gate lets one transaction
    proceed every ``period`` FPGA clock cycles —
    ``READY_NEW = READY_OLD & (COUNTER % PERIOD == 0)``.
    ``distribution`` selects the constant behaviour of the paper
    (``"constant"``) or one of the future-work extensions.
    """

    period: int = 1
    distribution: str = "constant"
    # Parameters for distribution-based injection (extension):
    scale_cycles: float = 0.0  # mean extra cycles for random distributions
    sigma: float = 1.0  # lognormal shape
    low_cycles: float = 0.0  # uniform low
    high_cycles: float = 0.0  # uniform high
    seed_stream: str = "delay.injector"

    _DISTRIBUTIONS = ("constant", "uniform", "exponential", "lognormal", "empirical")

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ConfigError(f"PERIOD must be >= 1, got {self.period}")
        if self.distribution not in self._DISTRIBUTIONS:
            raise ConfigError(
                f"unknown delay distribution {self.distribution!r};"
                f" expected one of {self._DISTRIBUTIONS}"
            )
        _non_negative("scale_cycles", self.scale_cycles)
        if self.high_cycles < self.low_cycles:
            raise ConfigError("uniform high_cycles < low_cycles")

    def with_period(self, period: int) -> "DelayInjectionConfig":
        """Copy with a different PERIOD (sweep helper)."""
        return replace(self, period=period)


@dataclass(frozen=True)
class FpgaConfig:
    """ThymesisFlow-style FPGA datapath parameters."""

    clock_period: Duration = nanoseconds(3.125)  # 320 MHz; see calibration.py
    pipeline_latency: Duration = nanoseconds(250)  # routing+mux+packetizer, per direction
    host_interface_latency: Duration = nanoseconds(150)  # OpenCAPI CPU<->FPGA, per direction
    turnaround_latency: Duration = nanoseconds(80)  # lender-side FPGA turnaround
    tx_queue_depth: int = 256
    detection_timeout: Duration = milliseconds(2)  # attach/hotplug handshake

    def __post_init__(self) -> None:
        _positive("fpga clock_period", self.clock_period)
        _non_negative("fpga pipeline_latency", self.pipeline_latency)
        _non_negative("fpga host_interface_latency", self.host_interface_latency)
        _non_negative("fpga turnaround_latency", self.turnaround_latency)
        _positive("fpga tx_queue_depth", self.tx_queue_depth)
        _positive("fpga detection_timeout", self.detection_timeout)


@dataclass(frozen=True)
class FaultConfig:
    """Per-packet fault model of a lossy link direction.

    All rates are per-packet probabilities drawn from named
    :class:`~repro.sim.rng.RngStreams` children, so enabling a fault
    type never perturbs the draws of another.  The default (all rates
    zero) is the *null model*: :class:`~repro.net.faults.FaultModel`
    recognizes it and skips every draw, keeping the clean path
    bit-identical to a build without fault injection.

    ``burst`` switches loss from i.i.d. to a two-state Gilbert–Elliott
    chain: ``loss_rate`` applies in the good state, ``loss_rate_bad``
    in the bad state, with per-packet transition probabilities
    ``p_good_to_bad`` / ``p_bad_to_good``.
    """

    loss_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_jitter: Duration = nanoseconds(400)
    burst: bool = False
    loss_rate_bad: float = 0.5
    p_good_to_bad: float = 0.0
    p_bad_to_good: float = 0.1
    seed_stream: str = "fault"

    def __post_init__(self) -> None:
        _probability("fault loss_rate", self.loss_rate)
        _probability("fault corrupt_rate", self.corrupt_rate)
        _probability("fault duplicate_rate", self.duplicate_rate)
        _probability("fault reorder_rate", self.reorder_rate)
        _probability("fault loss_rate_bad", self.loss_rate_bad)
        _probability("fault p_good_to_bad", self.p_good_to_bad)
        _probability("fault p_bad_to_good", self.p_bad_to_good)
        _non_negative("fault reorder_jitter", self.reorder_jitter)

    @property
    def enabled(self) -> bool:
        """True if any fault can actually occur under this config."""
        if self.burst and (self.p_good_to_bad > 0 and self.loss_rate_bad > 0):
            return True
        return (
            self.loss_rate > 0
            or self.corrupt_rate > 0
            or self.duplicate_rate > 0
            or self.reorder_rate > 0
        )

    def with_loss(self, loss_rate: float) -> "FaultConfig":
        """Copy with a different i.i.d. loss rate (sweep helper)."""
        return replace(self, loss_rate=loss_rate)


@dataclass(frozen=True)
class TransportConfig:
    """Reliable NIC transport (ARQ) parameters.

    ``rto`` is the initial retransmission timeout; ``None`` derives it
    from the calibrated unloaded round-trip at the configured PERIOD
    (see :func:`repro.calibration.default_rto_ps`).  ``max_retries``
    bounds retransmissions per packet; exhausting it raises
    :class:`~repro.errors.RetryExhausted`.  The receiver runs go-back-N
    (in-order delivery, out-of-order arrivals discarded) unless
    ``selective_repeat`` is set, in which case out-of-order packets are
    buffered and only the missing one is resent.  Overload deadlines,
    retry budgets and admission abandon sequence numbers, so
    :class:`~repro.node.reliable.ReliableThymesisFlowSystem` rejects
    them under go-back-N.

    ``timer_from_send`` selects where the retransmission timer arms:
    ``False`` (default) models the hardware NIC timer that starts at
    the gate grant (wire departure), so local queueing never expires an
    attempt; ``True`` models a software ARQ whose RTO runs from the
    moment the attempt is issued, so gate backlog counts against the
    timer — the configuration under which retry storms can turn
    metastable (see the ``metastable`` experiment).
    """

    max_retries: int = 4
    rto: Optional[Duration] = None
    backoff: float = 2.0
    max_rto: Duration = milliseconds(8)
    selective_repeat: bool = False
    retransmit_buffer: int = 128
    timer_from_send: bool = False

    def __post_init__(self) -> None:
        _non_negative("transport max_retries", self.max_retries)
        if self.rto is not None:
            _positive("transport rto", self.rto)
        if self.backoff < 1.0:
            raise ConfigError(f"transport backoff must be >= 1, got {self.backoff!r}")
        _positive("transport max_rto", self.max_rto)
        _positive("transport retransmit_buffer", self.retransmit_buffer)

    def with_retries(self, max_retries: int) -> "TransportConfig":
        """Copy with a different retry budget (sweep helper)."""
        return replace(self, max_retries=max_retries)


@dataclass(frozen=True)
class LinkConfig:
    """Network link between borrower and lender NICs."""

    bandwidth_bytes_per_s: float = gbit_per_s_to_bytes_per_s(100.0)
    propagation_delay: Duration = nanoseconds(50)  # short copper cable
    header_bytes: int = 32  # encapsulation header (addresses, checksum)

    def __post_init__(self) -> None:
        _positive("link bandwidth", self.bandwidth_bytes_per_s)
        _non_negative("link propagation_delay", self.propagation_delay)
        _non_negative("link header_bytes", self.header_bytes)


@dataclass(frozen=True)
class NicConfig:
    """Disaggregated-memory NIC composition."""

    fpga: FpgaConfig = field(default_factory=FpgaConfig)
    injection: DelayInjectionConfig = field(default_factory=DelayInjectionConfig)
    translation_latency: Duration = nanoseconds(20)
    response_priority: bool = False  # QoS extension hook

    def with_period(self, period: int) -> "NicConfig":
        """Copy with a different injection PERIOD (sweep helper)."""
        return replace(self, injection=self.injection.with_period(period))


@dataclass(frozen=True)
class NodeConfig:
    """One simulated server node."""

    name: str = "node"
    cpu: CpuConfig = field(default_factory=CpuConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    nic: NicConfig = field(default_factory=NicConfig)


@dataclass(frozen=True)
class ClusterConfig:
    """A borrower/lender pair (the paper's two-node prototype).

    ``remote_region`` is the borrower-visible address window that maps
    to lender memory; accesses below it are local.
    """

    borrower: NodeConfig = field(default_factory=lambda: NodeConfig(name="borrower"))
    lender: NodeConfig = field(default_factory=lambda: NodeConfig(name="lender"))
    link: LinkConfig = field(default_factory=LinkConfig)
    fault: FaultConfig = field(default_factory=FaultConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)
    remote_region_base: int = 1 << 40  # borrower-side base of remote window
    remote_region_bytes: int = 64 * 1024 * 1024 * 1024
    seed: int = 1234

    def __post_init__(self) -> None:
        _positive("remote_region_bytes", self.remote_region_bytes)
        _non_negative("remote_region_base", self.remote_region_base)

    def with_period(self, period: int) -> "ClusterConfig":
        """Copy with the borrower NIC's injection PERIOD swapped (sweeps)."""
        return replace(self, borrower=replace(self.borrower, nic=self.borrower.nic.with_period(period)))

    def with_fault(self, fault: FaultConfig) -> "ClusterConfig":
        """Copy with a different link fault model (chaos sweeps)."""
        return replace(self, fault=fault)

    def with_transport(self, transport: TransportConfig) -> "ClusterConfig":
        """Copy with different ARQ parameters (chaos sweeps)."""
        return replace(self, transport=transport)


def default_cluster_config(
    period: int = 1, seed: int = 1234, injection: Optional[DelayInjectionConfig] = None
) -> ClusterConfig:
    """The paper's testbed configuration with injection PERIOD *period*."""
    inj = injection if injection is not None else DelayInjectionConfig(period=period)
    nic = NicConfig(injection=inj)
    return ClusterConfig(
        borrower=NodeConfig(name="borrower", nic=nic),
        lender=NodeConfig(name="lender"),
        seed=seed,
    )
