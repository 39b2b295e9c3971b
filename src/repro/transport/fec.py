"""Forward-error-correction repair tier for the RUDP-family transports.

The paper's reliability story is pure ARQ: lost packets are retransmitted
(or skipped, under adaptive reliability), which costs at least one
retransmission round trip per loss and head-of-line stalls the window
under bursty wire loss.  FlEC (PAPERS.md) makes the modern argument that
reliability mechanisms should be *application-tailored*; this module adds
the coding half of that trade-off as a strictly additive layer:

* The sender groups its first-transmission data segments into
  *generations* of ``k`` packets and emits ``r`` XOR *repair* segments per
  generation.  Repairs are **interleaved**: repair ``i`` of a generation
  covers members ``i, i+r, i+2r, ...``, so a contiguous burst of up to
  ``r`` in-generation losses (the Gilbert-Elliott shape the dynamics
  sweeps inject) hits ``r`` distinct stripes and every stripe can still
  recover its single missing member.  In general each stripe recovers at
  most one loss -- the classic single-parity limit, stated honestly.
* The receiver reconstructs a stripe's one missing segment from the
  repair's carried member metadata and injects the rebuilt packet through
  the normal receive path, so delivery logs, ACK generation, spans and
  the sender's window all observe an ordinary (if synthesised) arrival --
  no retransmission round trip was paid.
* Stripes that cannot be repaired immediately (two or more members
  missing) are held, bounded, and re-checked as ARQ retransmissions fill
  holes -- compound recovery -- and the existing ARQ/skip machinery
  remains the correctness backstop throughout: FEC disarmed or
  overwhelmed degenerates to exactly the pre-FEC protocol.

Payload bytes are not simulated (the simulator carries sizes, not data),
so the "XOR" here is the bookkeeping that a real coder would need anyway:
which sequence numbers a repair covers and each member's full header
metadata, which is exactly what reconstruction must reproduce.  A repair
segment's wire size is the largest covered member's size (a real XOR
parity is as long as the longest input), so redundancy bandwidth is
charged faithfully.

Determinism: the coder draws no randomness and keys everything on
sequence numbers and the simulation clock, so armed runs are
reproducible and disarmed runs execute only ``is None`` guards.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..sim.packet import Packet, PacketKind

__all__ = ["FecConfig", "FecState", "FecSender", "FecReceiver"]


class FecConfig:
    """Coding-rate knobs; a :class:`~repro.experiments.common.ScenarioConfig`
    field value, so instances are picklable with a stable ``repr`` (the
    runner's ``config_fingerprint`` hashes config fields via ``repr``).

    Parameters
    ----------
    k : data segments per generation (the block length).
    r : repair segments per generation at rest (the base redundancy).
    r_max : ceiling the coordinator may raise redundancy to under loss
        (``None`` defaults to ``min(k - 1, max(r, 2))``).
    adaptive : when True the IQ coordinator re-adapts ``r`` from loss and
        stall telemetry; False pins the configured rate.
    """

    def __init__(self, *, k: int = 8, r: int = 1, r_max: int | None = None,
                 adaptive: bool = True):
        k = int(k)
        r = int(r)
        if not 2 <= k <= 64:
            raise ValueError(f"fec k must be in [2, 64], got {k}")
        if not 1 <= r < k:
            raise ValueError(f"fec r must be in [1, k), got r={r} k={k}")
        if r_max is None:
            r_max = min(k - 1, max(r, 2))
        r_max = int(r_max)
        if not r <= r_max < k:
            raise ValueError(f"fec r_max must be in [r, k), got "
                             f"r_max={r_max} r={r} k={k}")
        self.k = k
        self.r = r
        self.r_max = r_max
        self.adaptive = bool(adaptive)

    @classmethod
    def parse(cls, value: Any) -> "FecConfig | None":
        """Coerce a config-field value into a :class:`FecConfig`.

        Accepts ``None``/``"none"``/``"off"`` (disarmed), an existing
        instance, a mapping of constructor kwargs, or the compact string
        dialect ``"K/R"`` / ``"K/R/RMAX"`` (append ``"/static"`` to pin
        the rate) used by ``--set fec=8/2`` and campaign TOML ``fec``
        fields.
        """
        if value is None:
            return None
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls(**value)
        if isinstance(value, str):
            text = value.strip().lower()
            if text in ("", "none", "off"):
                return None
            parts = text.split("/")
            adaptive = True
            if parts and parts[-1] in ("static", "adaptive"):
                adaptive = parts.pop() == "adaptive"
            try:
                nums = [int(p) for p in parts]
            except ValueError:
                nums = []
            if len(nums) == 2:
                return cls(k=nums[0], r=nums[1], adaptive=adaptive)
            if len(nums) == 3:
                return cls(k=nums[0], r=nums[1], r_max=nums[2],
                           adaptive=adaptive)
            raise ValueError(
                f"cannot parse fec spec {value!r}: expected 'none', 'K/R' "
                f"or 'K/R/RMAX' (optionally '/static', e.g. '8/2' or "
                f"'8/1/3/static'), a mapping of FecConfig fields, or a "
                f"FecConfig instance")
        raise TypeError(f"fec must be a FecConfig, spec string, mapping or "
                        f"None, got {type(value).__name__}")

    def __repr__(self) -> str:
        return (f"FecConfig(k={self.k!r}, r={self.r!r}, "
                f"r_max={self.r_max!r}, adaptive={self.adaptive!r})")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FecConfig)
                and self.__dict__ == other.__dict__)

    def __hash__(self) -> int:
        return hash((self.k, self.r, self.r_max, self.adaptive))


class FecState:
    """Shared coder state and lifetime counters for one connection.

    One object referenced by both endpoints' coders -- the same
    co-located-endpoint idiom the reliability policy already uses (a real
    implementation would piggyback the handful of shared scalars on ACKs).
    ``r`` is the *live* redundancy; the coordinator moves it within
    ``[cfg.r, cfg.r_max]`` through :meth:`set_redundancy`.
    """

    __slots__ = ("cfg", "r", "data_enrolled", "repairs_sent",
                 "repair_bytes", "recovered", "unrecoverable",
                 "repairs_unused", "pending_evicted")

    def __init__(self, cfg: FecConfig):
        self.cfg = cfg
        self.r = cfg.r
        self.data_enrolled = 0    # first-transmission segments coded over
        self.repairs_sent = 0     # repair segments emitted
        self.repair_bytes = 0     # payload bytes of emitted repairs
        self.recovered = 0        # segments rebuilt without retransmission
        self.unrecoverable = 0    # stripes that arrived >1 member short
        self.repairs_unused = 0   # repairs whose stripe was already whole
        self.pending_evicted = 0  # held stripes dropped at the bound

    def set_redundancy(self, r: int) -> int:
        """Clamp ``r`` into ``[cfg.r, cfg.r_max]`` and apply; returns the
        effective value (takes effect at the next generation flush)."""
        self.r = max(self.cfg.r, min(int(r), self.cfg.r_max))
        return self.r

    def conservation_violation(self) -> str | None:
        """Segment-accounting law for the invariant checker: pure reads."""
        if self.recovered > self.repairs_sent:
            return (f"fec accounting: recovered {self.recovered} segments "
                    f"from only {self.repairs_sent} repairs (each repair "
                    f"can rebuild at most one member)")
        if self.repairs_unused + self.unrecoverable > self.repairs_sent:
            return (f"fec accounting: classified outcomes "
                    f"(unused={self.repairs_unused} + "
                    f"unrecoverable={self.unrecoverable}) exceed repairs "
                    f"sent ({self.repairs_sent})")
        if self.r < self.cfg.r or self.r > self.cfg.r_max:
            return (f"fec redundancy {self.r} outside configured "
                    f"[{self.cfg.r}, {self.cfg.r_max}]")
        return None


class FecSender:
    """Sender-side coder: accumulates first transmissions, emits repairs.

    Driven from ``WindowedSender._pump`` (one ``on_data`` per first
    transmission -- retransmissions are ARQ's business) and ``finish()``
    (flush of the final partial generation).
    """

    def __init__(self, sender, state: FecState):
        self.sender = sender
        self.state = state
        self._members: list[tuple] = []
        self._gen_id = 0

    # ------------------------------------------------------------------
    def on_data(self, pkt: Packet) -> None:
        """Enroll a first-transmission data segment into the open
        generation; flushes when the generation reaches ``k``."""
        self.state.data_enrolled += 1
        self._members.append((pkt.seq, pkt.size, pkt.frame_id, pkt.marked,
                              pkt.tagged, pkt.last_of_frame, pkt.created_at))
        if len(self._members) >= self.state.cfg.k:
            self._flush_generation()

    def flush(self) -> None:
        """Flush a partial final generation (called from ``finish()``).
        A lone member still gets a repair: it protects the transfer tail,
        where an ARQ recovery is at its most expensive (no dup-ACK clock)."""
        if self._members:
            self._flush_generation()

    # ------------------------------------------------------------------
    def _flush_generation(self) -> None:
        members = self._members
        self._members = []
        gen_id = self._gen_id
        self._gen_id += 1
        snd = self.sender
        n_repair = min(self.state.r, len(members))
        for stripe in range(n_repair):
            covered = tuple(members[stripe::n_repair])
            self._send_repair(gen_id, stripe, covered)
        ev = snd.events
        if ev.fec_gen:
            ev.emit("fec_gen", flow=snd.flow_id, gen=gen_id, k=len(members),
                    r=n_repair)

    def _send_repair(self, gen_id: int, stripe: int, covered: tuple) -> None:
        snd = self.sender
        state = self.state
        # An XOR parity is as long as its longest input.
        size = max(m[1] for m in covered)
        pkt = Packet(flow_id=snd.flow_id, kind=PacketKind.DATA, size=size,
                     src=snd.host.address, dst=snd.peer_addr,
                     sport=snd.port, dport=snd.peer_port,
                     created_at=snd.sim.now)
        pkt.frame_id = -1
        pkt.fec = (gen_id, stripe, covered)
        pkt.sent_at = snd.sim.now
        snd.host.send(pkt)
        state.repairs_sent += 1
        state.repair_bytes += size
        ev = snd.events
        if ev.fec_repair:
            ev.emit("fec_repair", flow=snd.flow_id, gen=gen_id,
                    stripe=stripe, size=size,
                    covered=[m[0] for m in covered])


class FecReceiver:
    """Receiver-side decoder: rebuilds a stripe's single missing member.

    Driven from ``WindowedReceiver.receive``: repairs route here instead
    of the reorder buffer, and every ordinary data arrival re-checks the
    held stripes (compound ARQ+FEC recovery).
    """

    #: Bound on held unrecoverable stripes; beyond it the oldest is
    #: evicted (ARQ remains the backstop for its members).
    PENDING_LIMIT = 128

    def __init__(self, receiver, state: FecState):
        self.receiver = receiver
        self.state = state
        self.pending: list[tuple] = []   # held (gen_id, stripe, covered)
        self._busy = False

    # ------------------------------------------------------------------
    def _present(self, seq: int) -> bool:
        """A covered sequence number needs no rebuild once the receiver
        has consumed or buffered it (skips included -- the sender already
        abandoned that payload)."""
        reorder = self.receiver.reorder
        return seq < reorder.rcv_nxt or reorder.contains(seq)

    def _missing(self, covered: tuple) -> list[tuple]:
        return [m for m in covered if not self._present(m[0])]

    # ------------------------------------------------------------------
    def on_repair(self, pkt: Packet) -> None:
        """A repair segment arrived; recover, hold, or discard it."""
        gen_id, stripe, covered = pkt.fec
        missing = self._missing(covered)
        if not missing:
            self.state.repairs_unused += 1
            return
        if len(missing) == 1:
            self._recover(gen_id, stripe, missing[0])
            self.retry_pending()
            return
        # Beyond single-parity reach right now: hold for compound
        # recovery as ARQ fills holes; count the shortfall once.
        self.state.unrecoverable += 1
        ev = self.receiver.events
        if ev.fec_short:
            ev.emit("fec_short", flow=self.receiver.flow_id, gen=gen_id,
                    stripe=stripe, missing=len(missing))
        if len(self.pending) >= self.PENDING_LIMIT:
            self.pending.pop(0)
            self.state.pending_evicted += 1
        self.pending.append((gen_id, stripe, covered))

    def on_progress(self) -> None:
        """An ordinary data arrival advanced the receive state; re-check
        held stripes (called from the receive path only while armed)."""
        if self.pending:
            self.retry_pending()

    def retry_pending(self) -> None:
        """Recover every held stripe that is now one member short.  Each
        rebuild can unlock further stripes, so iterate to a fixed point;
        re-entrant calls (a rebuild re-enters the receive path) fold into
        the outer loop."""
        if self._busy:
            return
        self._busy = True
        try:
            progress = True
            while progress:
                progress = False
                still: list[tuple] = []
                for gen_id, stripe, covered in self.pending:
                    missing = self._missing(covered)
                    if not missing:
                        continue  # ARQ finished the stripe; drop the hold
                    if len(missing) == 1:
                        self._recover(gen_id, stripe, missing[0])
                        progress = True
                    else:
                        still.append((gen_id, stripe, covered))
                self.pending = still
        finally:
            self._busy = False

    # ------------------------------------------------------------------
    def _recover(self, gen_id: int, stripe: int, member: tuple) -> None:
        """Rebuild one missing member and inject it through the normal
        receive path (delivery log, spans, ACK generation and the sender's
        window all see an ordinary arrival)."""
        seq, size, frame_id, marked, tagged, last_of_frame, created_at \
            = member
        rcv = self.receiver
        pkt = Packet(flow_id=rcv.flow_id, kind=PacketKind.DATA, seq=seq,
                     size=size, src=rcv.peer_addr, dst=rcv.host.address,
                     sport=rcv.peer_port, dport=rcv.port,
                     created_at=created_at, marked=marked, tagged=tagged,
                     frame_id=frame_id)
        pkt.last_of_frame = last_of_frame
        pkt.sent_at = rcv.sim.now
        self.state.recovered += 1
        ev = rcv.events
        if ev.fec_recovered:
            ev.emit("fec_recovered", pkt, flow=rcv.flow_id, gen=gen_id,
                    stripe=stripe, pkt=seq, size=size)
        rcv.receive(pkt)
