"""Trace-event vocabulary and the event record itself.

Every event names *one* causally meaningful step of a run.  The vocabulary
deliberately mirrors the paper's two control loops plus the substrate they
share:

========================  =================================================
Packet life cycle         :data:`PACKET_SEND`, :data:`PACKET_DROP`,
                          :data:`PACKET_ACK`, :data:`PACKET_RETX`
Transport adaptation      :data:`CWND_CHANGE`, :data:`PERIOD_ROLL`
Network state             :data:`QUEUE_DEPTH`
Network dynamics          :data:`FAULT_PHASE`, :data:`LINK_FAIL`,
                          :data:`LINK_RECOVER`
Application loop          :data:`CALLBACK_FIRED`, :data:`ADAPT_ACTION`
Coordination channel      :data:`ATTR_SENT`, :data:`ATTR_RECEIVED`,
                          :data:`COORD_ACTION`
========================  =================================================

:data:`ATTR_RECEIVED` events carry the attribute set the coordinator saw;
each :data:`COORD_ACTION` it produces carries ``attr_seq`` -- the sequence
number of that ``ATTR_RECEIVED`` event -- so the report's coordination audit
can pair every attribute exchange with the transport action it caused.

Instrumented code does not talk to the trace directly: it emits *kinds*
into the simulator's :class:`~repro.obs.bus.EventStream`, and
:data:`ROUTES` says what each subscriber records for each kind.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

__all__ = [
    "PACKET_SEND", "PACKET_DROP", "PACKET_ACK", "PACKET_RETX",
    "CWND_CHANGE", "QUEUE_DEPTH", "CALLBACK_FIRED", "ATTR_SENT",
    "ATTR_RECEIVED", "COORD_ACTION", "ADAPT_ACTION", "PERIOD_ROLL",
    "FAULT_PHASE", "LINK_FAIL", "LINK_RECOVER",
    "FEC_REPAIR", "FEC_RECOVERED", "FRAME_ABANDONED",
    "EVENT_TYPES", "LAYERS", "TraceEvent", "Route", "ROUTES", "PER_PACKET",
]

PACKET_SEND = "PACKET_SEND"
PACKET_DROP = "PACKET_DROP"
PACKET_ACK = "PACKET_ACK"
PACKET_RETX = "PACKET_RETX"
CWND_CHANGE = "CWND_CHANGE"
QUEUE_DEPTH = "QUEUE_DEPTH"
CALLBACK_FIRED = "CALLBACK_FIRED"
ATTR_SENT = "ATTR_SENT"
ATTR_RECEIVED = "ATTR_RECEIVED"
COORD_ACTION = "COORD_ACTION"
ADAPT_ACTION = "ADAPT_ACTION"
PERIOD_ROLL = "PERIOD_ROLL"
FAULT_PHASE = "FAULT_PHASE"
LINK_FAIL = "LINK_FAIL"
LINK_RECOVER = "LINK_RECOVER"
# FEC repair tier (armed scenarios only; disarmed traces never carry these).
FEC_REPAIR = "FEC_REPAIR"
FEC_RECOVERED = "FEC_RECOVERED"
# Deadline-aware frame scheduling: a segment abandoned unsent because its
# frame's delivery deadline passed.
FRAME_ABANDONED = "FRAME_ABANDONED"

#: Emitting layers, in stack order (used by the report for display only).
LAYERS = ("net", "transport", "coord", "app")


class Route(NamedTuple):
    """What each subscriber records for one emitted kind.

    The trace records ``etype`` and the flight ring ``label``, both under
    ``layer`` (None: not recorded); ``keys`` projects the fields the ring
    keeps (None: all, in emission order).  ``span`` names the
    :class:`~repro.obs.spans.SpanRecorder` hook; ``note`` makes the
    telemetry payload annotate the action.  ``pairing="open"`` starts an
    attribute exchange (the trace keeps its ``seq``, the spans open an
    episode); ``"paired"`` actions carry its ``attr_seq``/episode.
    """

    layer: str
    etype: "str | None" = None
    label: "str | None" = None
    keys: "tuple[str, ...] | None" = None
    span: "str | None" = None
    note: bool = False
    pairing: "str | None" = None


_T, _C = "transport", "coord"

#: kind -> Route.  Every ``EventStream.emit(kind, ...)`` site names one;
#: a kind no armed subscriber records costs its site one guard.
ROUTES: dict[str, Route] = {
    # per packet: never noted by the flight ring
    "segment": Route(_T, span="segment"),
    "send": Route(_T, PACKET_SEND, span="transmit"),
    "ack": Route(_T, PACKET_ACK),
    "deliver": Route(_T, span="deliver"),
    "cwnd": Route(_T, CWND_CHANGE),
    "queue_depth": Route("net", QUEUE_DEPTH),
    "drop": Route("net", PACKET_DROP, "DROP", span="drop",
                  keys=("kind", "link", "flow", "pkt")),
    "retx": Route(_T, PACKET_RETX, "RETX"),
    "skip": Route(_T, span="skip"),
    "discard": Route(_T, None, "DISCARD", span="discard"),
    "expire": Route(_T, FRAME_ABANDONED, "EXPIRE", span="expire"),
    "rto": Route(_T, None, "RTO"),
    "stall": Route(_T, None, "STALL"),
    "resume": Route(_T, None, "RESUME"),
    "complete": Route(_T, None, "COMPLETE"),
    "period": Route(_T, PERIOD_ROLL),
    "fec_gen": Route(_T, None, "FEC_GEN"),
    "fec_repair": Route(_T, FEC_REPAIR),
    "fec_short": Route(_T, None, "FEC_SHORT"),
    "fec_recovered": Route(_T, FEC_RECOVERED, "FEC_RECOVERED", span="recover",
                           keys=("flow", "gen", "stripe", "pkt")),
    "link_fail": Route("net", LINK_FAIL, "LINK_FAIL"),
    "link_recover": Route("net", LINK_RECOVER, "LINK_RECOVER"),
    "fault_phase": Route("net", FAULT_PHASE, "FAULT_PHASE",
                         keys=("phase", "kind", "state")),
    "callback": Route(_T, CALLBACK_FIRED),
    "attr_sent": Route(_T, ATTR_SENT),
    "adapt": Route("app", ADAPT_ACTION),
    # action fields are ``flow, action, *rest``; spans and annotations
    # keep only the rest
    "attrs": Route(_C, ATTR_RECEIVED, "ATTR", span="attrs", pairing="open"),
    "action": Route(_C, COORD_ACTION, "ACTION", span="action",
                    pairing="paired"),
    "rescale": Route(_C, COORD_ACTION, "ACTION", span="action", note=True,
                     pairing="paired", keys=("flow", "action", "factor",
                                             "cwnd_before", "cwnd_after")),
    "rescale_skipped": Route(_C, COORD_ACTION, "ACTION", span="action",
                             pairing="paired",
                             keys=("flow", "action", "rate_chg")),
    # transport-initiated (stall, FEC controller): no exchange caused it
    "transport_action": Route(_C, COORD_ACTION, "ACTION", span="action",
                              note=True),
    "run_start": Route("run", None, "START"),
    "run_error": Route("run", None, "EXCEPTION"),
    "violation": Route("run", None, "VIOLATION"),
}

#: The closed trace vocabulary; sinks and the report validate against it.
EVENT_TYPES = frozenset(r.etype for r in ROUTES.values() if r.etype)

#: Kinds that fire per packet.  The flight ring must never record them
#: (its armed cost is gated as a cold-path cost).
PER_PACKET = ("segment", "send", "ack", "deliver", "cwnd", "queue_depth")


class TraceEvent:
    """One trace record: ``(seq, t, layer, etype, fields)``.

    ``seq`` is the per-bus emission counter -- the total order of events
    within one simulation, stable across worker counts because each scenario
    owns its bus.  ``fields`` is a flat mapping of event-specific data
    (JSON-serialisable values only); field names must not collide with the
    reserved keys ``seq``/``t``/``layer``/``event``, which :meth:`as_obj`
    flattens into the same namespace -- e.g. packet sequence numbers travel
    as ``pkt``, never ``seq``.
    """

    __slots__ = ("seq", "t", "layer", "etype", "fields")

    def __init__(self, seq: int, t: float, layer: str, etype: str,
                 fields: Mapping[str, Any]):
        self.seq = seq
        self.t = t
        self.layer = layer
        self.etype = etype
        self.fields = fields

    def as_obj(self) -> dict[str, Any]:
        """Flat JSON-ready dict; reserved keys first, fields merged in."""
        obj = {"seq": self.seq, "t": self.t, "layer": self.layer,
               "event": self.etype}
        obj.update(self.fields)
        return obj

    # __slots__ classes need explicit pickle support (workers ship events
    # back to the batch parent).
    def __getstate__(self):
        return (self.seq, self.t, self.layer, self.etype, self.fields)

    def __setstate__(self, state):
        self.seq, self.t, self.layer, self.etype, self.fields = state

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceEvent):
            return self.__getstate__() == other.__getstate__()
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"<TraceEvent #{self.seq} t={self.t:.6f} {self.etype} {inner}>"
