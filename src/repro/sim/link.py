"""Point-to-point links with serialization delay, propagation delay and an
egress drop-tail queue.

This is the Emulab substitute: the paper's "emulated 20Mb physical links with
a path RTT of 30ms" become two :class:`Link` instances (one per direction)
between the dumbbell routers.
"""

from __future__ import annotations

from typing import Callable, Protocol

from .engine import Simulator
from .packet import Packet
from .queues import DropTailQueue

__all__ = ["Link", "PacketSink", "LossModel", "BernoulliLoss",
           "GilbertElliottLoss", "DelayJitter"]


class PacketSink(Protocol):
    """Anything that can accept a delivered packet."""

    def receive(self, pkt: Packet) -> None: ...


class LossModel:
    """Base class for stochastic wire-loss injection (failure testing).

    The paper's testbed has no random wire loss -- all loss is queue drop --
    so the default model never drops.  Subclass for lossy-link experiments.
    """

    def drops(self, pkt: Packet) -> bool:
        return False


class BernoulliLoss(LossModel):
    """IID packet loss with probability ``p`` (failure-injection tests)."""

    def __init__(self, p: float, rng) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("loss probability must be in [0,1]")
        self.p = p
        self._rng = rng

    def drops(self, pkt: Packet) -> bool:
        return self._rng.random() < self.p


class GilbertElliottLoss(LossModel):
    """Two-state Markov (Gilbert--Elliott) bursty wire loss.

    Each packet first moves the chain -- good->bad with probability
    ``p_gb``, bad->good with ``p_bg`` -- then drops with the state's loss
    probability (``loss_bad`` defaults to 1: the classic Gilbert model).
    The stationary bad-state occupancy is ``p_gb / (p_gb + p_bg)``, so with
    ``loss_good=0, loss_bad=1`` the long-run loss rate converges there.
    """

    def __init__(self, *, p_gb: float, p_bg: float, loss_good: float = 0.0,
                 loss_bad: float = 1.0, rng) -> None:
        for name, p in (("p_gb", p_gb), ("p_bg", p_bg),
                        ("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {p}")
        if p_gb + p_bg <= 0:
            raise ValueError("p_gb + p_bg must be positive (the chain "
                             "must be able to move)")
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._rng = rng
        self.bad = False
        # Introspection counters for tests/reports.
        self.bursts = 0
        self.dropped = 0
        self.offered = 0

    def drops(self, pkt: Packet) -> bool:
        r = self._rng
        if self.bad:
            if r.random() < self.p_bg:
                self.bad = False
        elif r.random() < self.p_gb:
            self.bad = True
            self.bursts += 1
        self.offered += 1
        p = self.loss_bad if self.bad else self.loss_good
        if p > 0.0 and r.random() < p:
            self.dropped += 1
            return True
        return False


class DelayJitter:
    """Per-packet extra propagation delay: ``U(0, max_extra_s)`` applied
    with probability ``p``.  Installed on ``Link.jitter``; delayed packets
    can arrive after later undelayed ones, so this also induces reordering.
    """

    __slots__ = ("max_extra_s", "p", "_rng", "applied")

    def __init__(self, *, max_extra_s: float, p: float = 1.0, rng) -> None:
        if max_extra_s <= 0:
            raise ValueError("max_extra_s must be positive")
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0,1]")
        self.max_extra_s = max_extra_s
        self.p = p
        self._rng = rng
        self.applied = 0

    def extra(self) -> float:
        r = self._rng
        if self.p < 1.0 and r.random() >= self.p:
            return 0.0
        self.applied += 1
        return r.random() * self.max_extra_s


class Link:
    """Unidirectional link: egress FIFO -> serialization -> propagation.

    Parameters
    ----------
    bandwidth_bps : link rate in bits per second (the paper's 20 Mb link is
        ``20e6``).
    delay_s : one-way propagation delay in seconds.
    queue_bytes : drop-tail buffer budget at the egress.
    """

    def __init__(self, sim: Simulator, bandwidth_bps: float, delay_s: float,
                 sink: PacketSink, *, queue_bytes: int = 64 * 1440,
                 name: str = "link", loss: LossModel | None = None,
                 on_drop: Callable[[Packet], None] | None = None):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay_s < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.sink = sink
        self.name = name
        self.events = sim.events
        self.queue = DropTailQueue(queue_bytes, on_drop=on_drop, name=name,
                                   events=sim.events)
        self.loss = loss or LossModel()
        self.jitter: DelayJitter | None = None
        self._busy = False
        self.up = True
        # Wire counters for utilisation / fairness accounting.
        self.bytes_sent = 0
        self.packets_sent = 0
        self.packets_lost_wire = 0

    # ------------------------------------------------------------------
    def tx_time(self, pkt: Packet) -> float:
        """Serialization time of ``pkt`` on this link."""
        return pkt.wire_size * 8.0 / self.bandwidth_bps

    def send(self, pkt: Packet) -> bool:
        """Offer ``pkt`` to the link; False when the egress queue drops it
        or the link is administratively down."""
        if not self.up:
            self.packets_lost_wire += 1
            ev = self.events
            if ev.drop:
                ev.emit("drop", pkt, link=self.name, kind="down",
                        flow=pkt.flow_id, pkt=pkt.seq, size=pkt.wire_size)
            return False
        if not self.queue.push(pkt):
            return False
        if not self._busy:
            self._start_transmission()
        return True

    def send_burst(self, pkts: "list[Packet]") -> int:
        """Offer a back-to-back burst; returns the number accepted.

        Exactly equivalent to calling :meth:`send` per packet -- the only
        shortcut is the queue's bulk enqueue, and the transmitter is
        kicked once instead of per packet.  Down links, and runs where a
        subscriber records queue depth, degrade to the per-packet path so
        drop accounting and recorded events stay identical.
        """
        if not self.up or self.events.queue_depth:
            ok = 0
            send = self.send
            for p in pkts:
                ok += send(p)
            return ok
        ok = 0
        if not self._busy and pkts:
            # The head packet starts serialising immediately (vacating its
            # queue slot before the rest arrive), exactly as under
            # per-packet send -- this keeps overflow drops identical.
            ok += self.send(pkts[0])
            pkts = pkts[1:]
        return ok + self.queue.push_all(pkts)

    # ------------------------------------------------------------------
    def _start_transmission(self) -> None:
        pkt = self.queue.pop()
        self._busy = True
        self.sim.schedule(self.tx_time(pkt), self._tx_done, pkt)

    def _finish_tx(self, pkt: Packet) -> None:
        """Account one packet leaving the serialiser at the current instant
        and hand it to propagation (or the wire-loss drop path).  Shared by
        the per-packet chain here and the coalesced chain in
        :class:`repro.sim.batch.BatchLink`."""
        self.bytes_sent += pkt.wire_size
        self.packets_sent += 1
        if self.up and not self.loss.drops(pkt):
            delay = self.delay_s
            jit = self.jitter
            if jit is not None:
                delay += jit.extra()
            self._deliver(pkt, delay)
        else:
            self.packets_lost_wire += 1
            ev = self.events
            if ev.drop:
                ev.emit("drop", pkt, link=self.name, kind="wire",
                        flow=pkt.flow_id, pkt=pkt.seq, size=pkt.wire_size)

    def _deliver(self, pkt: Packet, delay: float) -> None:
        # Propagation: deliver after the flight time.  priority=-1 makes
        # arrivals at an instant precede timers at the same instant.
        self.sim.schedule(delay, self.sink.receive, pkt, priority=-1)

    def _tx_done(self, pkt: Packet) -> None:
        self._finish_tx(pkt)
        if not self.queue.empty:
            self._start_transmission()
        else:
            self._busy = False

    # ------------------------------------------------------------------
    # Dynamics (failure injection, handover ramps)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Administratively down the link; queued packets are flushed.
        Idempotent -- failing a down link is a no-op."""
        if not self.up:
            return
        self.up = False
        flushed = self.queue.flush()
        self.packets_lost_wire += flushed
        ev = self.events
        if ev.link_fail:
            ev.emit("link_fail", link=self.name, flushed=flushed)

    def recover(self) -> None:
        if self.up:
            return
        self.up = True
        ev = self.events
        if ev.link_recover:
            ev.emit("link_recover", link=self.name)

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Change the link rate mid-run (capacity ramp/cliff).  Packets
        already serialising keep their old transmission time."""
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bps = bandwidth_bps

    def set_delay(self, delay_s: float) -> None:
        """Change the propagation delay mid-run (path change).  Packets
        already in flight keep their old delay, which can reorder across
        the boundary -- exactly what a real path change does."""
        if delay_s < 0:
            raise ValueError("propagation delay cannot be negative")
        self.delay_s = delay_s

    def telemetry_probe(self) -> dict[str, float]:
        """Read-only wire counters for the telemetry recorder (cumulative;
        the recorder differences successive probes for utilisation)."""
        return {"bytes_sent": float(self.bytes_sent),
                "packets_sent": float(self.packets_sent),
                "packets_lost_wire": float(self.packets_lost_wire),
                "up": 1.0 if self.up else 0.0}

    def accounting_violation(self) -> str | None:
        """Wire accounting at this link: every queue departure must either
        have finished serialising (``packets_sent``) or still be on the
        wire (``_busy``).  Returns a description, or None when sane."""
        st = self.queue.stats
        in_service = 1 if self._busy else 0
        if st.departures != self.packets_sent + in_service:
            return (f"link accounting: queue departures={st.departures} != "
                    f"packets_sent={self.packets_sent} + "
                    f"in_service={in_service}")
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Link {self.name} {self.bandwidth_bps/1e6:.1f}Mbps "
                f"{self.delay_s*1e3:.1f}ms q={len(self.queue)}>")
