"""Unit tests for the drop-tail queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue


def mkpkt(size=1400, flow=1):
    return Packet(flow_id=flow, size=size)


def test_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        DropTailQueue(0)


def test_fifo_order():
    q = DropTailQueue(10_000_000)
    pkts = [mkpkt(100) for _ in range(5)]
    for p in pkts:
        assert q.push(p)
    assert [q.pop() for _ in range(5)] == pkts


def test_byte_accounting_includes_headers():
    q = DropTailQueue(10_000_000)
    q.push(mkpkt(1400))
    assert q.bytes == 1440  # payload + 40B header
    q.pop()
    assert q.bytes == 0


def test_tail_drop_when_full():
    q = DropTailQueue(capacity_bytes=2 * 1440)
    assert q.push(mkpkt())
    assert q.push(mkpkt())
    assert not q.push(mkpkt())
    assert q.stats.drops == 1
    assert q.stats.arrivals == 3
    assert len(q) == 2


def test_drop_callback_observes_dropped_packet():
    dropped = []
    q = DropTailQueue(capacity_bytes=1440, on_drop=dropped.append)
    q.push(mkpkt())
    victim = mkpkt()
    q.push(victim)
    assert dropped == [victim]


def test_small_packet_fits_after_large_drop():
    """Byte budget, not packet slots: a small packet can still fit."""
    q = DropTailQueue(capacity_bytes=1500)
    assert q.push(mkpkt(1400))   # 1440 bytes
    assert not q.push(mkpkt(1400))
    assert q.push(mkpkt(10))     # 50 bytes fits in the remaining 60


def test_drop_ratio():
    q = DropTailQueue(capacity_bytes=1440)
    q.push(mkpkt())
    q.push(mkpkt())
    q.push(mkpkt())
    assert q.stats.drop_ratio == pytest.approx(2 / 3)


def test_peak_tracking():
    q = DropTailQueue(capacity_bytes=10 * 1440)
    for _ in range(4):
        q.push(mkpkt())
    q.pop()
    assert q.stats.peak_packets == 4
    assert q.stats.peak_bytes == 4 * 1440


def test_clear_resets_contents_but_not_stats():
    q = DropTailQueue(capacity_bytes=10 * 1440)
    q.push(mkpkt())
    q.clear()
    assert q.empty and q.bytes == 0
    assert q.stats.arrivals == 1


@given(st.lists(st.integers(min_value=1, max_value=3000), max_size=200))
@settings(max_examples=50, deadline=None)
def test_bytes_never_exceed_capacity(sizes):
    """Invariant: queued bytes stay within the configured budget."""
    q = DropTailQueue(capacity_bytes=8 * 1440)
    for s in sizes:
        q.push(mkpkt(s))
        assert q.bytes <= 8 * 1440
    # Conservation: arrivals = drops + still-queued + departures(0)
    assert q.stats.arrivals == q.stats.drops + len(q)


@given(st.lists(st.integers(min_value=1, max_value=3000), min_size=1,
                max_size=200), st.data())
@settings(max_examples=50, deadline=None)
def test_pop_returns_in_push_order(sizes, data):
    q = DropTailQueue(capacity_bytes=1 << 30)
    pkts = [mkpkt(s) for s in sizes]
    for p in pkts:
        q.push(p)
    out = [q.pop() for _ in range(len(pkts))]
    assert out == pkts
