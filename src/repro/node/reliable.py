"""Reliable ThymesisFlow variant: ARQ over a lossy interconnect.

:class:`ReliableThymesisFlowSystem` replaces the clean fire-and-forget
datapath of :class:`~repro.node.cluster.ThymesisFlowSystem` with a
per-transaction ARQ loop driven against two
:class:`~repro.net.faults.FaultyChannel` directions:

* every request is held in the NIC's bounded retransmit buffer until a
  (cumulative) ACK covers it; admission to the buffer is a counting
  semaphore, so buffer pressure backpressures the window;
* lender ingress CRC-verifies the wire bytes
  (:meth:`~repro.nic.packet.Packet.decode` finally runs on the hot
  path) and NACKs corrupted arrivals, suppresses duplicates, and
  enforces the delivery discipline (go-back-N discards out-of-order
  arrivals; selective repeat buffers them);
* the sender retransmits on NACK or timer expiry with exponential
  backoff, up to ``transport.max_retries`` retransmissions; exhaustion
  raises :class:`~repro.errors.RetryExhausted`, which either crashes
  the borrower host (:class:`~repro.core.resilience.failures.HostCrash`,
  the default) or — with ``degraded_mode=True`` — quarantines the
  remote window and serves subsequent accesses from local memory.

The base class's hot path is untouched: with the null
:class:`~repro.config.FaultConfig` this subclass still pays the ARQ
bookkeeping, but a plain ``ThymesisFlowSystem`` pays nothing at all, so
fig2/fig3 runs are bit-identical with faults disabled.

Late responses
--------------
The sender runs a strict timer: a response arriving after its
retransmission deadline is ignored (the window state has been reset for
the replay) and the transaction completes on a later attempt.  This
slightly inflates tail latency versus an opportunistic receiver but
keeps every attempt's accounting disjoint.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator, Optional, Tuple

from repro.calibration import default_rto_ps
from repro.config import ClusterConfig
from repro.core.delay import DelaySchedule
from repro.core.overload import OverloadConfig, OverloadControl
from repro.core.overload.deadline import expired
from repro.errors import (
    ConfigError,
    DeadlineExceeded,
    OverloadError,
    OverloadShed,
    ProtocolError,
    RetryExhausted,
)
from repro.net.faults import Delivery, FaultModel, FaultyChannel
from repro.nic.mux import TrafficClass
from repro.nic.packet import Packet, PacketKind
from repro.nic.transport import ReliableTransport
from repro.node.cluster import AccessResult, ThymesisFlowSystem
from repro.sim import Resource, Simulator, Timeout
from repro.units import Time, format_time

__all__ = ["ReliableThymesisFlowSystem"]


class ReliableThymesisFlowSystem(ThymesisFlowSystem):
    """Borrower/lender pair with fault injection and reliable transport.

    Parameters
    ----------
    config:
        Testbed configuration; ``config.fault`` drives the per-packet
        fault model and ``config.transport`` the ARQ policy.
    degraded_mode:
        On retry exhaustion, quarantine the remote window and fall back
        to local memory instead of crashing the borrower host.
    faults_armed:
        Initial arming state of both fault models.  The resilience
        sweeps pass ``False``, attach over a clean link, then call
        :meth:`arm_faults` so the handshake is not part of the chaos
        window.
    overload:
        Optional :class:`~repro.core.overload.OverloadConfig` enabling
        the overload-control layer (transaction deadlines, retry
        budgets, admission/shedding, per-lender circuit breaker,
        hedged reads).  ``None`` (the default) keeps the datapath
        bit-identical to a build without the layer.  Deadlines, retry
        budgets and admission require ``selective_repeat`` transport;
        with go-back-N they raise :class:`~repro.errors.ConfigError`.
    obs_label:
        Optional trace-process label (see the base class).
    """

    def __init__(
        self,
        config: ClusterConfig,
        schedule: Optional[DelaySchedule] = None,
        sim: Optional[Simulator] = None,
        obs=None,
        degraded_mode: bool = False,
        faults_armed: bool = True,
        overload: Optional[OverloadConfig] = None,
        obs_label: Optional[str] = None,
    ) -> None:
        if not config.transport.selective_repeat and overload is not None and (
            overload.deadline_ps is not None
            or overload.retry_budget_ratio is not None
            or overload.admission != "none"
        ):
            # Each of these can abandon a transaction after _next_seq()
            # allocated its sequence number.  A go-back-N receiver then
            # waits forever for the missing seq and discards every later
            # one as out of order, so the run live-locks in
            # retransmissions instead of failing.
            raise ConfigError(
                "overload deadlines, retry budgets and admission abandon "
                "allocated sequence numbers and need selective-repeat "
                "transport (TransportConfig(selective_repeat=True))"
            )
        super().__init__(config, schedule=schedule, sim=sim, obs=obs, obs_label=obs_label)
        self.degraded_mode = degraded_mode
        self.fault_fwd = FaultModel(
            config.fault, self.rng.spawn("net.fwd"), active=faults_armed
        )
        self.fault_rev = FaultModel(
            config.fault, self.rng.spawn("net.rev"), active=faults_armed
        )
        self._fwd = FaultyChannel(self.link.forward, self.fault_fwd)
        self._rev = FaultyChannel(self.link.reverse, self.fault_rev)
        rto = config.transport.rto
        if rto is None:
            rto = default_rto_ps(config.borrower.nic.injection.period)
        self.transport = ReliableTransport(config.transport, rto)
        self._tx_slots = Resource(
            self.sim, config.transport.retransmit_buffer, name="nic.txbuf"
        )
        self.overload = OverloadControl.build(overload, rng=self.rng, name="lender")
        if self.overload.lender_admission:
            # Lender-side shedding: the bus consults the same policy.
            self.lender.dram.bus.admission = self.overload.admission
        self.quarantined_at: Optional[Time] = None
        self.switchover_ps: Optional[int] = None
        self._crashed = False

    # ------------------------------------------------------------------
    # Fault-model control plane
    # ------------------------------------------------------------------
    def arm_faults(self) -> None:
        """Start injecting faults on both link directions."""
        self.fault_fwd.arm()
        self.fault_rev.arm()

    def disarm_faults(self) -> None:
        """Stop injecting faults; the link becomes clean again."""
        self.fault_fwd.disarm()
        self.fault_rev.disarm()

    @property
    def quarantined(self) -> bool:
        """True once the remote window has been taken out of service."""
        return self.quarantined_at is not None

    # ------------------------------------------------------------------
    # Watchdog coupling
    # ------------------------------------------------------------------
    def _observe_handshake(self, result: AccessResult) -> None:
        # A retransmitted probe still proves the link is alive: its
        # sojourn includes timer waits, not link absence, so only the
        # progress timestamp advances (no sojourn deadline check).
        if result.retries:
            self.watchdog.progress(result.complete_time)
        else:
            self.watchdog.observe(result.complete_time, result.latency)

    # ------------------------------------------------------------------
    # Lender-side receive path
    # ------------------------------------------------------------------
    def _lender_ingress(
        self, delivery: Delivery, write: bool
    ) -> Tuple[Optional[Delivery], bool]:
        """Process one arrival at the lender NIC (at ``sim.now``).

        Returns ``(reverse_delivery, is_nack)``: the fate of whatever
        the lender sent back (``None`` for a go-back-N discard, which is
        silent and recovered by sender timeout).

        A NACK for a header-corrupted packet echoes the link-layer
        sequence number, which is assumed recoverable even when the
        transport header CRC fails (in the simulation the NACK is built
        from the original packet object).
        """
        sim = self.sim
        transport = self.transport
        try:
            packet = transport.receiver.verify(delivery)
        except ProtocolError:
            # ChecksumError (CRC), LinkCorruption (payload), or a
            # mangled magic/short header — all integrity failures.
            transport.stats.corrupt_drops += 1
            self.stats.count("transport.corrupt_drops")
            nack = delivery.packet.make_nack()
            return self._rev.transmit_packet(nack, sim.now + self._lender_latency), True
        fresh, respond = transport.receiver.accept(packet.seq)
        if not respond:
            return None, False
        t = sim.now + self._lender_latency
        if fresh and delivery.packet.kind in (PacketKind.READ_REQ, PacketKind.WRITE_REQ):
            self.translator.translate(delivery.packet.addr)
            if self.overload.lender_admission and not self.lender.dram.bus.try_admit(
                self._request_class(delivery.packet), t
            ):
                # Lender-side load shedding: the memory bus backlog is
                # beyond the admission target, so answer with a shed
                # marker instead of queueing the access — the borrower
                # fails fast without retrying.
                response = delivery.packet.make_response()
                response.meta["cum_ack"] = transport.receiver.cum_ack
                response.meta["shed"] = True
                return self._rev.transmit_packet(response, t), False
            t = self.lender.dram.access(self._line, t, write=write)
        response = delivery.packet.make_response()
        response.meta["cum_ack"] = transport.receiver.cum_ack
        return self._rev.transmit_packet(response, t), False

    @staticmethod
    def _request_class(packet: Packet) -> Optional[TrafficClass]:
        """Traffic class a request carried on the wire (overload only)."""
        tc = packet.meta.get("tc")
        return TrafficClass(tc) if tc is not None else None

    # ------------------------------------------------------------------
    # Datapath: per-transaction ARQ loop
    # ------------------------------------------------------------------
    def _transact(
        self,
        addr: int,
        kind: PacketKind,
        payload_bytes: int,
        traffic_class: Optional[TrafficClass] = None,
    ) -> Generator:
        if self._crashed:
            self._raise_crashed()
        if self.quarantined:
            result = yield from self._fallback_access(addr, kind)
            return result
        if traffic_class is None:
            traffic_class = TrafficClass.NORMAL
        sim = self.sim
        transport = self.transport
        write = kind is PacketKind.WRITE_REQ
        t_request = sim.now
        # Overload control is a no-op bundle unless configured; probes
        # (the attach handshake) bypass it entirely.
        overload = self.overload
        guarded = overload.enabled and kind is not PacketKind.PROBE
        txn_deadline = overload.deadline_for(t_request) if guarded else None
        if guarded and overload.breaker is not None:
            try:
                overload.breaker.check(sim.now)
            except OverloadError:
                self._count_overload_failure("breaker")
                raise
        token_holder = yield self.borrower.window.acquire()
        del token_holder
        slot_holder = yield self._tx_slots.acquire()
        del slot_holder
        issue = sim.now

        request = Packet(
            kind=kind, src=0, dst=1, seq=self._next_seq(), addr=addr, size=payload_bytes
        )
        if guarded and overload.lender_admission:
            request.meta["tc"] = int(traffic_class)
        transport.buffer.add(request)
        transport.stats.sent += 1
        if guarded:
            overload.note_first_attempt()

        rto = transport.initial_rto
        attempt = 0  # total replays of this packet (stats, AccessResult)
        charged = 0  # replays counted against the retry budget
        complete = issue
        blaming = self.obs.attrib_enabled and kind is not PacketKind.PROBE
        attempt_start = issue  # blame tiling: attempts are contiguous
        attempt_log: list = []  # (attempt, time_ps, cause) history
        try:
            while True:
                attempt_send = sim.now
                if guarded:
                    if expired(txn_deadline, sim.now):
                        # Fail fast before queueing doomed work: the
                        # transaction is out of budget, so the gate and
                        # the wire never see this attempt.
                        raise DeadlineExceeded(
                            f"seq {request.seq} out of deadline budget "
                            f"before attempt {attempt + 1}",
                            attempts=tuple(attempt_log),
                            gave_up_at=sim.now,
                        )
                    if overload.admission is not None and not self.overload.admit(
                        traffic_class, 0, self.injector.backlog_ps(sim.now)
                    ):
                        overload.record_shed(traffic_class)
                        raise OverloadShed(
                            f"seq {request.seq} shed at the NIC gate "
                            f"(backlog beyond admission target)",
                            attempts=tuple(attempt_log),
                            gave_up_at=sim.now,
                        )
                # Egress pipeline + delay injector, every attempt: a
                # retransmission traverses the full datapath again.
                valid_at = sim.now + self._egress_latency
                grant = yield from self._admit(valid_at, traffic_class)
                if not transport.buffer.holds(request.seq):
                    # A cumulative ACK freed the slot (the lender has
                    # the request) but our own response died; replay
                    # still needs a resident copy.
                    transport.buffer.add(request)
                replay = transport.buffer.get(request.seq)
                delivery = self._fwd.transmit_packet(replay, grant)
                # The retransmission timer arms at the gate grant (a
                # hardware timer starts when the packet hits the wire)
                # unless ``timer_from_send`` models a software ARQ whose
                # RTO covers local queueing too.
                timer_base = attempt_send if transport.config.timer_from_send else grant
                hedged = (
                    guarded
                    and overload.hedge_after_ps is not None
                    and attempt == 0
                    and kind is PacketKind.READ_REQ
                    and overload.hedge_after_ps < rto
                )
                timer = overload.hedge_after_ps if hedged else rto
                deadline = transport.attempt_deadline(timer_base, timer, txn_deadline)

                response_at: Optional[Time] = None
                nack_at: Optional[Time] = None
                resp_packet: Optional[Packet] = None
                if delivery.delivered:
                    if delivery.arrival > sim.now:
                        yield Timeout(sim, delivery.arrival - sim.now)
                    reverse, is_nack = self._lender_ingress(delivery, write)
                    response_at, nack_at, resp_packet = self._classify_reverse(
                        reverse, is_nack
                    )
                    if response_at is None and delivery.duplicate_arrival is not None:
                        # The channel-made duplicate is the only hope:
                        # replay the same wire bytes at its arrival (the
                        # lender sees a duplicate and responds again).
                        if delivery.duplicate_arrival > sim.now:
                            yield Timeout(sim, delivery.duplicate_arrival - sim.now)
                        copy = replace(delivery, duplicate_arrival=None)
                        reverse, is_nack = self._lender_ingress(copy, write)
                        response_at, nack_at, resp_packet = self._classify_reverse(
                            reverse, is_nack, nack_at
                        )

                if response_at is not None and response_at <= deadline:
                    if response_at > sim.now:
                        yield Timeout(sim, response_at - sim.now)
                    transport.on_response(request, resp_packet.meta.get("cum_ack", 0))
                    if resp_packet.meta.get("shed"):
                        # The lender's memory bus refused the work: the
                        # reply is an ACK (the seq is consumed) but the
                        # access never ran — surface the shed instead of
                        # retrying into an overloaded lender.
                        overload.record_shed(traffic_class)
                        raise OverloadShed(
                            f"seq {request.seq} shed at the lender memory bus",
                            attempts=tuple(attempt_log),
                            gave_up_at=sim.now,
                        )
                    complete = response_at
                    break

                # Lost / corrupted / discarded / late: recover on the
                # NACK (fast retransmit) or the retransmission timer.
                fast = nack_at is not None and nack_at < deadline
                wake = nack_at if fast else deadline
                if wake > sim.now:
                    yield Timeout(sim, wake - sim.now)
                if self._crashed or self.quarantined:
                    # Another in-flight transaction already declared
                    # the remote window dead while we slept.
                    raise RetryExhausted(
                        f"remote window withdrawn during recovery of "
                        f"seq {request.seq}",
                        attempts=tuple(attempt_log),
                        gave_up_at=sim.now,
                    )
                attempt += 1
                attempt_log.append((attempt, sim.now, "nack" if fast else "timeout"))
                if fast:
                    transport.stats.nacks += 1
                else:
                    transport.stats.timeouts += 1
                if hedged and not fast:
                    # A hedge firing is a proactive duplicate, not a
                    # suspected loss: it is not charged to any budget.
                    overload.hedges += 1
                    if self.obs.enabled:
                        self.obs.metrics.count("overload.hedges")
                    transport.free_replay()
                elif transport.eligible_for_budget(request.seq):
                    charged += 1
                    if guarded:
                        # Deadline outranks the budget: no point spending
                        # a retry token on a transaction already due to
                        # be abandoned.
                        if expired(txn_deadline, sim.now):
                            raise DeadlineExceeded(
                                f"seq {request.seq} out of deadline budget "
                                f"before retransmission {charged}",
                                attempts=tuple(attempt_log),
                                gave_up_at=sim.now,
                            )
                        overload.charge_retry(
                            request.seq, attempts=tuple(attempt_log)
                        )
                    transport.charge_retry(
                        request,
                        charged,
                        sim.now,
                        txn_deadline=txn_deadline,
                        attempts=tuple(attempt_log),
                    )
                else:
                    transport.free_replay()
                self.stats.count("transport.retx")
                if self.obs.enabled:
                    self.obs.metrics.count("transport.retx")
                    if self.obs.tracer.enabled:
                        # Under ``timer_from_send`` the timer can expire
                        # while the attempt is still gate-queued (wake <
                        # grant); the span then shows the doomed tail.
                        self.obs.tracer.add_span(
                            "transport.retry",
                            min(grant, wake),
                            max(grant, wake),
                            pid=self._obs_pid or 1,
                            track="transport.retry",
                            cat="fault",
                            args={"seq": request.seq, "attempt": attempt},
                        )
                    if blaming:
                        # The failed attempt's datapath time is blamed
                        # `retry`, the timer/NACK wait `backoff`; the
                        # next attempt starts where this one ends, so
                        # the attempt chain tiles [issue, complete].
                        self._blame_failed_attempt(
                            request.seq, attempt_start, grant, sim.now
                        )
                        attempt_start = sim.now
                rto = transport.next_rto(rto)
        except OverloadError as exc:
            self._overload_failed(exc, request.seq, issue, attempt_start,
                                  traffic_class, blaming)
            raise
        except RetryExhausted as exc:
            self.borrower.window.release()
            self._tx_slots.release()
            self.stats.count("transport.exhausted")
            if guarded:
                overload.record_outcome(False, sim.now)
            if self.obs.enabled:
                self.obs.metrics.count("transport.exhausted")
            if not self.degraded_mode:
                self._crashed = True
                from repro.core.resilience.failures import HostCrash

                raise HostCrash(
                    f"borrower gave up on the remote window: {exc}"
                ) from exc
            self._enter_degraded(request.seq, t_request)
            result = yield from self._fallback_access(addr, kind)
            return result

        self.borrower.window.release()
        self._tx_slots.release()
        if guarded:
            overload.record_outcome(True, complete)
        result = AccessResult(
            issue_time=issue,
            complete_time=complete,
            write=write,
            remote=True,
            retries=attempt,
        )
        if kind is not PacketKind.PROBE:
            self.stats.sample("remote.latency_ps", result.latency)
            self.stats.count("remote.transactions")
            self.stats.count("remote.payload_bytes", self._line)
            if self.obs.enabled:
                metrics = self.obs.metrics
                metrics.observe("remote.latency_ps", result.latency)
                metrics.observe("cpu.window_wait_ps", issue - t_request)
                metrics.count("remote.transactions")
                if attempt:
                    metrics.observe("transport.retries_per_txn", attempt)
                if self.obs.tracer.enabled:
                    if blaming:
                        self._blame_final_attempt(
                            request.seq, attempt_start, valid_at, grant, complete
                        )
                    self.obs.tracer.add_request(
                        request.seq, issue, complete, pid=self._obs_pid or 1
                    )
        return result

    # ------------------------------------------------------------------
    # Causal attribution (blame spans; see repro.obs.attrib)
    # ------------------------------------------------------------------
    def _blame_failed_attempt(
        self, seq: int, attempt_start: Time, grant: Time, wake: Time
    ) -> None:
        """Charge one doomed ARQ attempt: datapath replay + timer wait."""
        tracer = self.obs.tracer
        pid = self._obs_pid or 1
        # A software timer (``timer_from_send``) can fire while the
        # attempt is still queued at the gate; clamp the grant into the
        # attempt's interval so the blame rows tile [attempt_start,
        # wake] exactly instead of leaking past the next attempt.
        grant = min(max(grant, attempt_start), wake)
        if grant > attempt_start:
            tracer.add_blame(
                "retry", attempt_start, grant, pid=pid, seq=seq, resource="transport.arq"
            )
        if wake > grant:
            tracer.add_blame(
                "backoff", grant, wake, pid=pid, seq=seq, resource="transport.rto"
            )

    def _blame_final_attempt(
        self, seq: int, attempt_start: Time, valid_at: Time, grant: Time, complete: Time
    ) -> None:
        """Charge the successful attempt, completing the blame tiling.

        The whole gate wait is ``injected_delay``, like the base
        datapath; the remaining round trip — wire, lender memory, wire
        back, ingress — is charged as one coarse ``service`` interval
        because the faulty channel decides delivery fates wholesale,
        not per stage.
        """
        tracer = self.obs.tracer
        pid = self._obs_pid or 1
        valid_at = min(max(valid_at, attempt_start), complete)
        grant = min(max(grant, valid_at), complete)
        spans = (
            ("service", attempt_start, valid_at, "nic.egress"),
            ("injected_delay", valid_at, grant, "delay.injector"),
            ("service", grant, complete, "datapath.round_trip"),
        )
        for cat, start, end, resource in spans:
            if end > start:
                tracer.add_blame(cat, start, end, pid=pid, seq=seq, resource=resource)

    # ------------------------------------------------------------------
    # Overload-failure accounting
    # ------------------------------------------------------------------
    def _count_overload_failure(self, reason: str) -> None:
        """Count one overload fail-fast under ``overload.<reason>``."""
        self.stats.count(f"overload.{reason}")
        if self.obs.enabled:
            self.obs.metrics.count(f"overload.{reason}")

    def _overload_failed(
        self,
        exc: OverloadError,
        seq: int,
        issue: Time,
        attempt_start: Time,
        traffic_class: TrafficClass,
        blaming: bool,
    ) -> None:
        """Release resources and account one overload fail-fast.

        The failed transaction still gets a blame envelope: the
        interval since the last attempt boundary is charged ``backoff``
        on the failing overload resource (``overload.deadline`` /
        ``overload.retry_budget`` / ``overload.shed`` /
        ``overload.breaker``) so attribution rows tile
        ``[issue, fail_at]`` exactly and ``repro obs attrib`` shows the
        suppression explicitly.
        """
        sim = self.sim
        self.borrower.window.release()
        self._tx_slots.release()
        self.transport.buffer.ack(seq)  # idempotent; frees the replay slot
        reason = exc.blame_resource.rsplit(".", 1)[1]
        self._count_overload_failure(reason)
        if self.obs.enabled and isinstance(exc, OverloadShed):
            self.obs.metrics.count(
                f"overload.shed.{traffic_class.name.lower()}"
            )
        self.overload.record_outcome(False, sim.now)
        fail_at = sim.now
        if blaming and self.obs.enabled and self.obs.tracer.enabled and fail_at > issue:
            tracer = self.obs.tracer
            pid = self._obs_pid or 1
            if fail_at > attempt_start:
                tracer.add_blame(
                    "backoff",
                    attempt_start,
                    fail_at,
                    pid=pid,
                    seq=seq,
                    resource=exc.blame_resource,
                )
            tracer.add_request(seq, issue, fail_at, pid=pid)

    def _classify_reverse(
        self,
        reverse: Optional[Delivery],
        is_nack: bool,
        nack_at: Optional[Time] = None,
    ) -> Tuple[Optional[Time], Optional[Time], Optional[Packet]]:
        """Fate of the lender's reply as seen at the borrower ingress."""
        if reverse is None or not reverse.delivered:
            return None, nack_at, None
        if reverse.corrupted:
            # The reply died at the borrower ingress CRC; recovered by
            # the retransmission timer like a plain loss.
            self.transport.stats.corrupt_drops += 1
            self.stats.count("transport.corrupt_drops")
            return None, nack_at, None
        at = reverse.arrival + self._ingress_latency
        if is_nack:
            return None, at if nack_at is None else min(nack_at, at), None
        return at, nack_at, reverse.packet

    def _raise_crashed(self) -> None:
        from repro.core.resilience.failures import HostCrash

        raise HostCrash("borrower host checkstopped (remote window dead)")

    # ------------------------------------------------------------------
    # Graceful degradation
    # ------------------------------------------------------------------
    def _enter_degraded(self, seq: int, t_request: Time) -> None:
        """Quarantine the remote window; record the switchover stall."""
        if self.quarantined_at is not None:
            return  # another in-flight transaction got here first
        sim = self.sim
        self.quarantined_at = sim.now
        self.switchover_ps = sim.now - t_request
        self.watchdog.reset()
        self.stats.count("degraded.switchovers")
        self.log.emit(
            "control",
            f"remote window quarantined after seq {seq} exhausted retries "
            f"(switchover stall {format_time(self.switchover_ps)}); "
            "serving from local fallback",
        )
        if self.obs.enabled:
            self.obs.metrics.count("degraded.switchovers")
            self.obs.metrics.observe("degraded.switchover_ps", self.switchover_ps)

    def _fallback_access(self, addr: int, kind: PacketKind) -> Generator:
        """Serve a quarantined remote access from borrower-local DRAM."""
        del addr  # the local fallback pool is address-agnostic
        result = yield from self.fallback_access(kind)
        return result
