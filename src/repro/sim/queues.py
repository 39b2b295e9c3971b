"""Router/link queues.

The bottleneck drop-tail queue is where every effect the paper measures is
born: loss ratios trigger the adaptation callbacks, and queueing delay is the
delay/jitter the tables report.  The implementation therefore keeps precise
drop and occupancy accounting.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..obs.bus import NULL_BUS
from ..obs.events import QUEUE_DEPTH
from .packet import Packet

__all__ = ["DropTailQueue", "QueueStats"]


class QueueStats:
    """Arrival/drop/occupancy counters for one queue."""

    __slots__ = ("arrivals", "departures", "drops", "bytes_in", "bytes_dropped",
                 "peak_bytes", "peak_packets", "flushed")

    def __init__(self) -> None:
        self.arrivals = 0
        self.departures = 0
        self.drops = 0
        self.bytes_in = 0
        self.bytes_dropped = 0
        self.peak_bytes = 0
        self.peak_packets = 0
        self.flushed = 0

    @property
    def drop_ratio(self) -> float:
        """Fraction of arrivals dropped (0.0 when idle)."""
        return self.drops / self.arrivals if self.arrivals else 0.0


class DropTailQueue:
    """FIFO byte-budget queue with tail drop.

    ``capacity_bytes`` bounds total queued wire bytes -- the classic router
    buffer model.  A packet that does not fit is dropped in its entirety.
    ``on_drop`` (if given) observes each dropped packet, which the failure
    injection tests and monitors use.

    ``__slots__`` keeps instances compact and attribute access cheap --
    every packet the simulation forwards crosses :meth:`push`/:meth:`pop`.
    """

    __slots__ = ("capacity_bytes", "on_drop", "_q", "_bytes", "stats",
                 "trace", "name", "flight", "spans")

    def __init__(self, capacity_bytes: int,
                 on_drop: Callable[[Packet], None] | None = None):
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.on_drop = on_drop
        self._q: deque[Packet] = deque()
        self._bytes = 0
        self.stats = QueueStats()
        # Owning Link rebinds these; standalone queues stay untraced.
        self.trace = NULL_BUS
        self.name = "queue"
        # Forensics hooks, rebound by the owning Link.  They live here (not
        # only on the Link) because burst enqueues drop inside
        # :meth:`push_all`'s per-packet degradation, which never returns
        # through Link.send -- noting at the queue keeps the flight/span
        # record byte-identical between burst and per-packet paths.
        self.flight = None
        self.spans = None

    def __len__(self) -> int:
        return len(self._q)

    @property
    def bytes(self) -> int:
        """Wire bytes currently queued."""
        return self._bytes

    @property
    def empty(self) -> bool:
        return not self._q

    def push(self, pkt: Packet) -> bool:
        """Enqueue ``pkt``; returns False (and drops) when full."""
        st = self.stats
        wire = pkt.wire_size
        st.arrivals += 1
        new_bytes = self._bytes + wire
        if new_bytes > self.capacity_bytes:
            st.drops += 1
            st.bytes_dropped += wire
            fl = self.flight
            if fl is not None:
                fl.note("net", "DROP", kind="queue", link=self.name,
                        flow=pkt.flow_id, pkt=pkt.seq)
            sp = self.spans
            if sp is not None:
                sp.on_drop(pkt, self.name, "queue")
            if self.on_drop is not None:
                self.on_drop(pkt)
            return False
        q = self._q
        q.append(pkt)
        self._bytes = new_bytes
        st.bytes_in += wire
        if new_bytes > st.peak_bytes:
            st.peak_bytes = new_bytes
        if len(q) > st.peak_packets:
            st.peak_packets = len(q)
            # Emitting only on new occupancy peaks keeps the event count
            # O(peak) rather than O(packets).
            tr = self.trace
            if tr.enabled:
                tr.emit("net", QUEUE_DEPTH, queue=self.name,
                        pkts=len(q), bytes=new_bytes,
                        capacity=self.capacity_bytes)
        return True

    def push_all(self, pkts: "list[Packet]") -> int:
        """Enqueue a burst; returns the number accepted.

        Accounting is exactly ``len(pkts)`` repeated :meth:`push` calls.
        The one-extend fast path applies when the whole burst fits and no
        trace sink is attached (per-push occupancy peaks are monotone
        within a pure extend, so only the final peak is observable);
        otherwise it degrades to per-packet pushes, keeping drop order,
        ``on_drop`` callbacks and peak trace events identical.
        """
        total = 0
        for p in pkts:
            total += p.wire_size
        new_bytes = self._bytes + total
        if new_bytes > self.capacity_bytes or self.trace.enabled:
            ok = 0
            push = self.push
            for p in pkts:
                ok += push(p)
            return ok
        st = self.stats
        n = len(pkts)
        q = self._q
        q.extend(pkts)
        self._bytes = new_bytes
        st.arrivals += n
        st.bytes_in += total
        if new_bytes > st.peak_bytes:
            st.peak_bytes = new_bytes
        if len(q) > st.peak_packets:
            st.peak_packets = len(q)
        return n

    def pop(self) -> Packet:
        """Dequeue the head-of-line packet."""
        pkt = self._q.popleft()
        self._bytes -= pkt.wire_size
        self.stats.departures += 1
        return pkt

    def pop_all(self) -> list[Packet]:
        """Dequeue every queued packet in FIFO order in one step.

        Byte/departure accounting is exactly ``len(result)`` repeated
        :meth:`pop` calls (peaks are recorded on push, so popping in bulk
        is unobservable).  This is the array-level drain used by the burst
        fast path in :mod:`repro.sim.batch`.
        """
        q = self._q
        out = list(q)
        q.clear()
        self._bytes = 0
        self.stats.departures += len(out)
        return out

    def set_capacity(self, capacity_bytes: int) -> None:
        """Resize the buffer mid-run (router reconfiguration / handover to
        a shallower-buffered path).  Already-queued packets are never
        evicted; a shrunken queue just drops new arrivals until it drains
        below the new budget."""
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_bytes = capacity_bytes

    def clear(self) -> None:
        self._q.clear()
        self._bytes = 0

    def flush(self) -> int:
        """Discard every queued packet, *accounting* for the discard (the
        ``flushed`` counter) so datagram conservation still balances.  Used
        when a link fails with packets queued.  Returns the packet count."""
        n = len(self._q)
        self.stats.flushed += n
        self._q.clear()
        self._bytes = 0
        return n

    def telemetry_probe(self) -> dict[str, float]:
        """Read-only occupancy/drop snapshot for the telemetry recorder."""
        return {"pkts": float(len(self._q)), "bytes": float(self._bytes),
                "drops": float(self.stats.drops)}

    def conservation_violation(self) -> str | None:
        """Datagram conservation at this queue: every arrival must be
        queued, departed, dropped, or flushed.  Returns a description of
        the imbalance, or None when the books balance."""
        st = self.stats
        accounted = st.departures + st.drops + st.flushed + len(self._q)
        if st.arrivals != accounted:
            return (f"queue conservation: arrivals={st.arrivals} != "
                    f"departures={st.departures} + drops={st.drops} + "
                    f"flushed={st.flushed} + queued={len(self._q)}")
        if self._bytes < 0:
            return f"queued byte count negative ({self._bytes})"
        return None
