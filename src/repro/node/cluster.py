"""The two-node ThymesisFlow testbed: end-to-end remote-access path.

:class:`ThymesisFlowSystem` composes every substrate into the datapath
of the paper's Figure 1::

    borrower CPU --OpenCAPI--> [router -> DELAY INJECTOR -> mux ->
    packetizer] --link--> [lender NIC: translate -> memory bus/DRAM]
    --link--> borrower NIC ingress --OpenCAPI--> CPU

Timing is reservation-based: stateful servers (the injector gate, each
link direction, the lender memory bus) hand out absolute service
windows in O(1), so one remote cache-line transaction costs a small
constant number of simulation events regardless of PERIOD.

The access entry points (:meth:`remote_access`, :meth:`local_access`,
:meth:`access`) are *generators* meant to be driven with ``yield from``
inside a workload process — they compose without spawning extra
Process objects per transaction.
"""

from __future__ import annotations

from typing import Generator, NamedTuple, Optional

from repro.config import ClusterConfig
from repro.core.delay import DelayInjector, DelaySchedule
from repro.errors import AttachError, LinkDetectionTimeout
from repro.net.link import DuplexLink
from repro.nic.mux import Multiplexer, TrafficClass
from repro.nic.packet import HEADER_BYTES, PacketKind, response_kind, wire_bytes_for
from repro.nic.router import Route, Router
from repro.nic.timeout import DetectionWatchdog
from repro.nic.translation import WindowMapping, WindowTranslator
from repro.node.node import Node
from repro.obs import NULL_OBS
from repro.obs.tracer import datapath_blame_splits
from repro.sim import EventLog, Process, RngStreams, Simulator, StatRecorder, Timeout
from repro.units import Duration, Time

__all__ = ["AccessResult", "ThymesisFlowSystem"]


class AccessResult(NamedTuple):
    """Completion record of one memory transaction.

    A named tuple rather than a frozen dataclass: one is built per
    access, and positional tuple construction is several times cheaper
    than a frozen dataclass's per-field ``object.__setattr__``.
    """

    issue_time: Time
    complete_time: Time
    write: bool
    remote: bool
    retries: int = 0  # transport retransmissions spent (reliable path)

    @property
    def latency(self) -> Duration:
        """Sojourn time from issue to response."""
        return self.complete_time - self.issue_time


class ThymesisFlowSystem:
    """Borrower + lender pair with a delay-injected interconnect.

    Parameters
    ----------
    config:
        Full testbed configuration (see
        :func:`repro.calibration.paper_cluster_config`).
    schedule:
        Optional time-varying PERIOD schedule for the injector.
    sim:
        Supply an existing simulator to co-simulate several systems;
        a fresh one is created otherwise.
    obs:
        Observability bundle (:class:`repro.obs.Observability`).  The
        default :data:`~repro.obs.NULL_OBS` records nothing and adds
        only no-op calls; a live bundle collects per-request stage
        spans, metrics, and timeline snapshots for this system's runs.
    obs_label:
        Optional trace-process label for this run (sweep experiments
        pass their point key, e.g. ``"n=4"``); defaults to a
        class-name + PERIOD label.
    """

    def __init__(
        self,
        config: ClusterConfig,
        schedule: Optional[DelaySchedule] = None,
        sim: Optional[Simulator] = None,
        obs=None,
        obs_label: Optional[str] = None,
    ) -> None:
        self.config = config
        self.sim = sim if sim is not None else Simulator()
        self.rng = RngStreams(config.seed)
        self.stats = StatRecorder(self.sim)
        self.obs = obs if obs is not None else NULL_OBS
        self.log = EventLog(self.sim, capacity=1024)

        self.borrower = Node(self.sim, config.borrower)
        self.lender = Node(self.sim, config.lender)

        fpga = config.borrower.nic.fpga
        self.injector = DelayInjector(
            config.borrower.nic.injection, fpga, rng=self.rng, schedule=schedule
        )
        self.link = DuplexLink(config.link)
        self.router = Router(self.borrower.regions, latency=0)
        self.mux = Multiplexer(latency=0, qos_enabled=config.borrower.nic.response_priority)
        self.translator = WindowTranslator()
        self.watchdog = DetectionWatchdog(fpga.detection_timeout)

        self._attached = False
        self._seq = 0
        self._line = config.borrower.cache.line_bytes
        # Per-direction fixed latencies (see repro.calibration).
        self._egress_latency = fpga.host_interface_latency + fpga.pipeline_latency
        self._ingress_latency = fpga.pipeline_latency + fpga.host_interface_latency
        self._lender_latency = (
            config.borrower.nic.translation_latency + fpga.turnaround_latency
        )
        self._obs_pid = self.obs.attach_system(self, label=obs_label)

    # ------------------------------------------------------------------
    # Control-plane operations
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        """True once remote memory is hot-plugged and usable."""
        return self._attached

    def attach(self, n_probes: int = 256) -> Process:
        """Start the attach/hotplug handshake as a process.

        The handshake drives a pipelined burst of PROBE transactions
        through the full egress path (they traverse the injector like
        any other transaction) and feeds completions to the detection
        watchdog.  If per-transaction delay reaches the detection
        timeout — as at ``PERIOD = 10000``, where it is ~4 ms — the FPGA
        is declared absent and :class:`LinkDetectionTimeout` propagates
        (paper section IV-C).
        """
        return self.sim.process(self._attach_proc(n_probes), name="attach")

    def _attach_proc(self, n_probes: int) -> Generator:
        self.watchdog.start(self.sim.now)
        failures: list[BaseException] = []
        done: list[Process] = []

        def probe() -> Generator:
            result = yield from self._transact(
                addr=self.config.remote_region_base,
                kind=PacketKind.PROBE,
                payload_bytes=0,
            )
            return result

        procs = [self.sim.process(probe(), name=f"probe{i}") for i in range(n_probes)]
        for proc in procs:
            try:
                result: AccessResult = yield proc
            except LinkDetectionTimeout as exc:
                failures.append(exc)
                break
            try:
                self._observe_handshake(result)
            except LinkDetectionTimeout as exc:
                failures.append(exc)
                break
            done.append(proc)
        if failures:
            self.log.emit("control", f"attach failed: {failures[0]}")
            raise AttachError(
                f"remote memory cannot be attached: {failures[0]}"
            ) from failures[0]
        # Handshake succeeded: install the translation window and
        # hot-plug the region into the borrower's physical map.
        mapping = WindowMapping(
            borrower_base=self.config.remote_region_base,
            lender_base=0,
            size=self.config.remote_region_bytes,
        )
        self.translator.install(mapping)
        self.borrower.add_remote_region(
            base=self.config.remote_region_base,
            size=self.config.remote_region_bytes,
            name="thymesisflow",
        )
        self._attached = True
        self.log.emit("control", f"attach: window installed after {len(done)} probes")
        return self.sim.now

    def _observe_handshake(self, result: AccessResult) -> None:
        """Feed one handshake completion to the detection watchdog.

        Overridable: the reliable transport counts a successfully
        *retransmitted* probe as progress without the sojourn check —
        its end-to-end latency includes timer waits, not link absence.
        """
        self.watchdog.observe(result.complete_time, result.latency)

    def attach_or_raise(self, n_probes: int = 256) -> None:
        """Run the attach handshake to completion synchronously."""
        proc = self.attach(n_probes)
        self.sim.run()
        if not proc.ok:
            _ = proc.value  # re-raise the stored failure
        if not self._attached:  # pragma: no cover - defensive
            raise AttachError("attach did not complete")

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # Link traversal legs: overridable so beyond-rack variants can send
    # the same transactions through a switched fabric instead of the
    # point-to-point cable (see repro.node.multipair).
    def _leg_to_lender(self, nbytes: int, depart: Time) -> Time:
        return self.link.forward.transmit(nbytes, depart)

    def _leg_to_borrower(self, nbytes: int, depart: Time) -> Time:
        return self.link.reverse.transmit(nbytes, depart)

    def _admit(self, valid_at: Time, traffic_class: TrafficClass) -> Generator:
        """Gate admission hook (generator returning the grant time).

        The base system uses the O(1) reservation injector and ignores
        the traffic class (FIFO, as vanilla ThymesisFlow).  QoS-enabled
        variants override this to arbitrate by priority
        (:class:`repro.node.qos.QosThymesisFlowSystem`).
        """
        del traffic_class
        return self.injector.admit(valid_at)
        yield  # pragma: no cover - makes this a generator for yield-from

    def _transact(
        self,
        addr: int,
        kind: PacketKind,
        payload_bytes: int,
        traffic_class: Optional[TrafficClass] = None,
    ) -> Generator:
        """Drive one transaction through the full remote path.

        Generator — ``yield from`` it inside a process.  Returns an
        :class:`AccessResult`.
        """
        if traffic_class is None:
            traffic_class = TrafficClass.NORMAL
        sim = self.sim
        write = kind is PacketKind.WRITE_REQ
        t_request = sim.now
        token_holder = yield self.borrower.window.acquire()
        del token_holder
        issue = sim.now

        # No Packet is built on this path: the wire sizes follow from
        # the kind and payload alone, and only the seq is recorded.
        seq = self._next_seq()

        # Attribution needs resource-idle snapshots *before* each
        # reservation: the gap between a reservation's start and the
        # earlier busy-until is queueing behind competing traffic.
        blaming = self.obs.attrib_enabled and kind is not PacketKind.PROBE

        # Egress: OpenCAPI + router/pipeline, then the delay injector.
        valid_at = issue + self._egress_latency
        intrinsic = self.injector.intrinsic_grant(valid_at) if blaming else None
        grant = yield from self._admit(valid_at, traffic_class)
        fwd_busy = self.link.forward.busy_until() if blaming else 0
        # Mux + packetize + serialize onto the wire.
        arrive_lender = self._leg_to_lender(wire_bytes_for(kind, payload_bytes), grant)

        # Wait until the request is at the lender before touching the
        # lender's (shared) memory bus, so cross-traffic ordering there
        # reflects real arrival times.
        now = sim.now
        if arrive_lender > now:
            yield Timeout(sim, arrive_lender - now)
            now = sim.now

        t = now + self._lender_latency
        mem_ready = t
        bus_busy = self.lender.dram.bus.busy_until() if blaming else 0
        if kind in (PacketKind.READ_REQ, PacketKind.WRITE_REQ):
            self.translator.translate(addr)  # faults surface here
            t = self.lender.dram.access(self._line, t, write=write)

        response_bytes = wire_bytes_for(response_kind(kind), payload_bytes)
        rev_busy = self.link.reverse.busy_until() if blaming else 0
        arrive_back = self._leg_to_borrower(response_bytes, t)
        complete = arrive_back + self._ingress_latency
        if complete > now:
            yield Timeout(sim, complete - now)

        self.borrower.window.release()
        result = AccessResult(issue, complete, write, True)
        if kind is not PacketKind.PROBE:
            self.stats.sample("remote.latency_ps", complete - issue)
            self.stats.count("remote.transactions")
            self.stats.count("remote.payload_bytes", self._line)
            if self.obs.enabled:
                self._record_request(
                    seq,
                    t_request,
                    issue,
                    valid_at,
                    grant,
                    arrive_lender,
                    t,
                    arrive_back,
                    complete,
                    blame=(intrinsic, fwd_busy, mem_ready, bus_busy, rev_busy)
                    if blaming
                    else None,
                )
        return result

    #: Datapath stage boundaries of one remote transaction, in order.
    #: Every stage tiles [issue, complete] exactly, so the per-request
    #: span decomposition sums to the reported end-to-end latency.
    STAGE_NAMES = (
        "egress.pipeline",  # OpenCAPI host interface + router/NIC pipeline
        "egress.gate",      # delay injector (READY gating)
        "wire.request",     # mux + packetizer + link serialization, borrower->lender
        "lender.memory",    # window translation + lender bus/DRAM
        "wire.response",    # link serialization, lender->borrower
        "ingress.pipeline", # borrower NIC ingress + OpenCAPI return
    )

    def _record_request(
        self,
        seq: int,
        t_request: Time,
        issue: Time,
        valid_at: Time,
        grant: Time,
        arrive_lender: Time,
        t_mem: Time,
        arrive_back: Time,
        complete: Time,
        blame=None,
    ) -> None:
        """Report one transaction's stage decomposition to the tracer/metrics.

        ``blame``, when given, carries the resource-idle snapshots
        sampled inside :meth:`_transact` — ``(intrinsic_grant,
        forward_busy, mem_ready, bus_busy, reverse_busy)`` — from which
        the causal blame decomposition is derived.
        """
        obs = self.obs
        boundaries = (issue, valid_at, grant, arrive_lender, t_mem, arrive_back, complete)
        tracer = obs.tracer
        if tracer.enabled:
            pid = self._obs_pid or 1
            if issue > t_request:
                tracer.add_span(
                    "cpu.window",
                    t_request,
                    issue,
                    pid=pid,
                    track="cpu.window",
                    cat="queue",
                    args={"seq": seq},
                )
            for i, name in enumerate(self.STAGE_NAMES):
                tracer.add_span(
                    name,
                    boundaries[i],
                    boundaries[i + 1],
                    pid=pid,
                    track=name,
                    args={"seq": seq},
                )
            if blame is not None:
                # One tuple append per transaction: blame rows and
                # category sums are derived lazily from the staged
                # record (Tracer.blame / datapath_blame_splits), so the
                # hot path pays for staging only.
                tracer.blame_raw.append((pid, seq, boundaries, blame))
            tracer.add_request(seq, issue, complete, pid=pid)
        metrics = obs.metrics
        metrics.observe("remote.latency_ps", complete - issue)
        metrics.observe("cpu.window_wait_ps", issue - t_request)
        for i, name in enumerate(self.STAGE_NAMES):
            metrics.observe(f"stage.{name}_ps", boundaries[i + 1] - boundaries[i])
        metrics.count("remote.transactions")

    def flush_blame_metrics(self, metrics) -> None:
        """Fold this run's blame sums into the registry as counters.

        Called from :meth:`Observability.finish_system`.  The sums are
        derived here, once per run, from the raw records the datapath
        staged on ``tracer.blame_raw`` — the per-transaction hot path
        never touches a histogram or computes a split.  The scan leaves
        the staged records in place (attribution extraction reads them
        too) and filters by this system's pid, since sweeps share one
        tracer across points and shared-simulator experiments interleave
        several systems' records.
        """
        tracer = self.obs.tracer
        raw = getattr(tracer, "blame_raw", None)
        if not raw:
            return
        pid = self._obs_pid or 1
        service = injected = queued = contended = align = backlog = 0
        for epid, _seq, boundaries, snapshots in raw:
            if epid != pid:
                continue
            inj, qf, qr, cont, _ws, _bs, _rs, _mr = datapath_blame_splits(
                boundaries, snapshots
            )
            q = qf + qr
            service += (boundaries[6] - boundaries[0]) - inj - q - cont
            queued += q
            contended += cont
            if inj:
                injected += inj
                # Sub-split of injected delay: grid alignment a lone
                # transaction would see vs backlog behind earlier grants.
                intrinsic = snapshots[0]
                if intrinsic is not None:
                    valid_at, grant = boundaries[1], boundaries[2]
                    alignment = min(max(intrinsic, valid_at), grant)
                    align += alignment - valid_at
                    backlog += grant - alignment
        for cat, total in (
            ("contention", contended),
            ("injected_delay", injected),
            ("queue_wait", queued),
            ("service", service),
        ):
            if total:
                metrics.count(f"blame.{cat}_ps", total)
        if align or backlog:
            metrics.count("injector.alignment_ps", align)
            metrics.count("injector.backlog_ps", backlog)

    def remote_access(
        self,
        addr: int,
        write: bool = False,
        traffic_class: Optional[TrafficClass] = None,
    ) -> Generator:
        """One remote cache-line transaction at *addr* (generator).

        Reads fetch a line (data returns on the response); writes push
        a line (data rides the request, an ack returns).
        ``traffic_class`` tags the transaction for QoS-enabled systems
        (ignored by the vanilla FIFO datapath).
        """
        if not self._attached:
            raise AttachError("remote memory is not attached")
        kind = PacketKind.WRITE_REQ if write else PacketKind.READ_REQ
        payload = self._line  # data size either direction
        result = yield from self._transact(addr, kind, payload, traffic_class=traffic_class)
        return result

    def local_access(
        self, node: Node, addr: int, write: bool = False
    ) -> Generator:
        """One local cache-line access on *node*'s DRAM (generator)."""
        sim = self.sim
        issue = sim.now
        complete = node.dram.access(self._line, issue + node.config.cpu.issue_overhead, write=write)
        if complete > issue:
            yield Timeout(sim, complete - issue)
        self.stats.count(node.local_transactions_key)
        return AccessResult(issue, complete, write, False)

    def fallback_access(self, kind: PacketKind) -> Generator:
        """Serve a withdrawn remote access from borrower-local DRAM.

        Shared degraded-mode path: the ARQ quarantine
        (:class:`~repro.node.reliable.ReliableThymesisFlowSystem`) and
        lender-failover quarantine (:mod:`repro.node.multipair`) both
        land here once the remote window is out of service.  The local
        fallback pool is address-agnostic.
        """
        write = kind is PacketKind.WRITE_REQ
        result = yield from self.local_access(
            self.borrower, self.config.remote_region_base, write
        )
        self.stats.count("degraded.accesses")
        if self.obs.enabled:
            self.obs.metrics.count("degraded.accesses")
        return result

    def access(self, addr: int, write: bool = False) -> Generator:
        """Route an access by address: local DRAM or the remote path."""
        route = self.router.route(addr)
        if route is Route.REMOTE:
            result = yield from self.remote_access(addr, write)
        else:
            result = yield from self.local_access(self.borrower, addr, write)
        return result

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------
    @property
    def line_bytes(self) -> int:
        """Cache-line transaction size."""
        return self._line

    def remote_latency_mean_ps(self) -> float:
        """Mean measured remote sojourn so far."""
        return self.stats.get_series("remote.latency_ps").mean()

    def remote_bytes_moved(self) -> float:
        """Remote payload bytes transferred so far."""
        return self.stats.counters.get("remote.payload_bytes", 0.0)

    def header_bytes(self) -> int:
        """Encapsulation header size used on the wire."""
        return HEADER_BYTES
