"""Unit tests for the reliable NIC transport state machines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FaultConfig, TransportConfig
from repro.errors import (
    ChecksumError,
    LinkCorruption,
    ProtocolError,
    RetryExhausted,
)
from repro.net.faults import Delivery, FaultModel
from repro.nic import LenderIngress, ReliableTransport, RetransmitBuffer, TransportStats
from repro.nic.packet import Packet, PacketKind
from repro.sim import RngStreams


def packet(seq=1, kind=PacketKind.READ_REQ, size=128):
    return Packet(kind=kind, src=0, dst=1, seq=seq, addr=0x1000, size=size)


def clean_delivery(pkt, arrival=100):
    return Delivery(packet=pkt, arrival=arrival, wire=pkt.encode())


class TestRetransmitBuffer:
    def test_add_get_ack(self):
        buf = RetransmitBuffer(4)
        p = packet(seq=7)
        buf.add(p)
        assert buf.holds(7) and buf.get(7) is p and len(buf) == 1
        buf.ack(7)
        assert not buf.holds(7) and len(buf) == 0

    def test_ack_idempotent(self):
        buf = RetransmitBuffer(4)
        buf.add(packet(seq=1))
        buf.ack(1)
        buf.ack(1)  # no error

    def test_get_missing_raises(self):
        with pytest.raises(ProtocolError):
            RetransmitBuffer(4).get(99)

    def test_overflow_raises(self):
        buf = RetransmitBuffer(2)
        buf.add(packet(seq=1))
        buf.add(packet(seq=2))
        with pytest.raises(ProtocolError):
            buf.add(packet(seq=3))

    def test_cumulative_ack_frees_prefix(self):
        buf = RetransmitBuffer(8)
        for s in (1, 2, 3, 5):
            buf.add(packet(seq=s))
        assert buf.ack_cumulative(3) == 3
        assert not buf.holds(2) and buf.holds(5)

    def test_high_water(self):
        buf = RetransmitBuffer(8)
        for s in range(1, 5):
            buf.add(packet(seq=s))
        buf.ack_cumulative(4)
        assert buf.high_water == 4

    def test_stalled_cumulative_ack_keeps_the_seq_index_bounded(self):
        # seq 1 is never delivered (its retries ran out), so the lender's
        # cumulative ACK stays at 0 while later seqs are acked one by one.
        buf = RetransmitBuffer(4)
        buf.add(packet(seq=1))
        for s in range(2, 200):
            buf.add(packet(seq=s))
            buf.ack(s)
            assert buf.ack_cumulative(0) == 0
        assert len(buf._seq_heap) <= 2 * buf.capacity
        buf.add(packet(seq=200))
        assert buf.ack_cumulative(1000) == 2
        assert len(buf) == 0

    def test_capacity_validation(self):
        with pytest.raises(ProtocolError):
            RetransmitBuffer(0)


class TestLenderIngressVerify:
    def test_clean_delivery_decodes(self):
        ingress = LenderIngress(selective_repeat=False)
        p = packet(seq=3)
        assert ingress.verify(clean_delivery(p)).seq == 3

    def test_header_corruption_refused(self):
        ingress = LenderIngress(selective_repeat=False)
        model = FaultModel(FaultConfig(corrupt_rate=1.0), RngStreams(3))
        d = model.apply(packet(kind=PacketKind.PROBE, size=0), arrival=0)
        assert d.header_corrupted
        # ChecksumError when the flip lands in a CRC-covered field,
        # plain ProtocolError when it mangles the magic.
        with pytest.raises(ProtocolError):
            ingress.verify(d)

    def test_payload_corruption_raises_link_corruption(self):
        ingress = LenderIngress(selective_repeat=False)
        p = packet()
        d = Delivery(packet=p, arrival=0, wire=p.encode(), payload_corrupted=True)
        with pytest.raises(LinkCorruption):
            ingress.verify(d)


class TestGoBackNReceiver:
    def test_in_order_delivery(self):
        ingress = LenderIngress(selective_repeat=False)
        assert ingress.accept(1) == (True, True)
        assert ingress.accept(2) == (True, True)
        assert ingress.cum_ack == 2 and ingress.delivered == 2

    def test_duplicate_responds_again(self):
        ingress = LenderIngress(selective_repeat=False)
        ingress.accept(1)
        assert ingress.accept(1) == (False, True)
        assert ingress.stats.dup_suppressed == 1

    def test_out_of_order_discarded_silently(self):
        ingress = LenderIngress(selective_repeat=False)
        ingress.accept(1)
        assert ingress.accept(3) == (False, False)
        assert ingress.stats.discarded_out_of_order == 1
        assert ingress.cum_ack == 1
        # The gap fill is then accepted, but 3 must be resent.
        assert ingress.accept(2) == (True, True)
        assert ingress.accept(3) == (True, True)
        assert ingress.cum_ack == 3


class TestSelectiveRepeatReceiver:
    def test_out_of_order_buffered(self):
        ingress = LenderIngress(selective_repeat=True)
        assert ingress.accept(2) == (True, True)  # buffered, responds
        assert ingress.cum_ack == 0
        assert ingress.accept(1) == (True, True)  # fills the gap
        assert ingress.cum_ack == 2

    def test_buffered_duplicate_suppressed(self):
        ingress = LenderIngress(selective_repeat=True)
        ingress.accept(2)
        assert ingress.accept(2) == (False, True)
        assert ingress.stats.dup_suppressed == 1

    def test_old_duplicate_suppressed(self):
        ingress = LenderIngress(selective_repeat=True)
        ingress.accept(1)
        assert ingress.accept(1) == (False, True)


class TestReliableTransport:
    def make(self, **kw):
        return ReliableTransport(TransportConfig(**kw), initial_rto=1_000_000)

    def test_invalid_rto(self):
        with pytest.raises(ProtocolError):
            ReliableTransport(TransportConfig(), initial_rto=0)

    def test_backoff_capped(self):
        t = self.make(backoff=2.0, max_rto=3_000_000)
        assert t.next_rto(1_000_000) == 2_000_000
        assert t.next_rto(2_000_000) == 3_000_000  # capped

    def test_retry_budget_exhaustion(self):
        t = self.make(max_retries=2)
        p = packet(seq=5)
        t.buffer.add(p)
        t.charge_retry(p, attempt=1, now=0)
        t.charge_retry(p, attempt=2, now=0)
        with pytest.raises(RetryExhausted):
            t.charge_retry(p, attempt=3, now=0)
        assert t.stats.retransmissions == 2
        assert t.stats.exhausted == 1
        assert not t.buffer.holds(5)  # slot given up

    def test_on_response_frees_cumulatively(self):
        t = self.make()
        for s in (1, 2, 3):
            t.buffer.add(packet(seq=s))
        t.on_response(packet(seq=3), cum_ack=2)
        assert t.stats.acks == 1
        assert not t.buffer.holds(1) and not t.buffer.holds(2) and not t.buffer.holds(3)

    def test_stats_as_dict_roundtrip(self):
        stats = TransportStats(sent=3, retransmissions=1)
        d = stats.as_dict()
        assert d["sent"] == 3 and d["retransmissions"] == 1
        assert set(d) == {
            "sent",
            "retransmissions",
            "timeouts",
            "nacks",
            "acks",
            "dup_suppressed",
            "corrupt_drops",
            "discarded_out_of_order",
            "exhausted",
        }


class TestNackPacket:
    def test_make_nack_swaps_endpoints(self):
        p = packet(seq=9)
        n = p.make_nack()
        assert n.kind is PacketKind.NACK
        assert (n.src, n.dst) == (p.dst, p.src)
        assert n.seq == 9 and n.size == 0 and not n.carries_data


def _comprehension_ack_cumulative(packets: dict, upto: int) -> int:
    """The original list-comprehension sweep, kept as the oracle."""
    stale = [seq for seq in packets if seq <= upto]
    for seq in stale:
        del packets[seq]
    return len(stale)


_buffer_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(min_value=1, max_value=40)),
        st.tuples(st.just("ack"), st.integers(min_value=1, max_value=40)),
        st.tuples(st.just("cum"), st.integers(min_value=0, max_value=45)),
        st.tuples(st.just("readd"), st.integers(min_value=1, max_value=40)),
    ),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(ops=_buffer_ops)
def test_ack_cumulative_matches_the_comprehension(ops):
    """Same freed set and count as the full scan, under any op mix.

    ``readd`` replays a seq that a cumulative ACK freed, as the reliable
    datapath does when its own response died after the lender had it.
    """
    capacity = 16
    buf = RetransmitBuffer(capacity)
    oracle: dict = {}
    freed_by_cum: set = set()
    high_water = 0
    for op, seq in ops:
        if op == "add" or (op == "readd" and seq in freed_by_cum):
            if seq not in oracle and len(oracle) >= capacity:
                continue
            pkt = packet(seq=seq)
            buf.add(pkt)
            oracle[seq] = pkt
            freed_by_cum.discard(seq)
            high_water = max(high_water, len(oracle))
        elif op == "ack":
            buf.ack(seq)
            oracle.pop(seq, None)
        elif op == "cum":
            before = set(oracle)
            assert buf.ack_cumulative(seq) == _comprehension_ack_cumulative(oracle, seq)
            freed_by_cum |= before - set(oracle)
        assert len(buf) == len(oracle)
        assert buf.high_water == high_water
        assert all(buf.holds(s) and buf.get(s) is p for s, p in oracle.items())
        assert not any(buf.holds(s) for s in range(0, 46) if s not in oracle)
