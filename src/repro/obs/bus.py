"""The event stream: every instrumented fact is emitted here, once.

Each simulator owns one :class:`EventStream`.  Instrumented code emits a
*kind* with the fact's fields, and the subscribers -- the trace
(:class:`TraceBus`), the flight ring, the span recorder and the telemetry
payload -- record what :data:`~repro.obs.events.ROUTES` says they record
for it.

Design constraints, in order:

1. **One guard per fact.**  Every call site is written as::

       ev = self.events
       if ev.send:
           ev.emit("send", pkt, flow=..., ...)

   The stream has one boolean slot per kind, true only while some
   subscriber records it: an unrecorded kind costs one slot load and a
   branch, and ``emit`` is never called -- with only the always-on flight
   ring armed, the per-packet kinds stay silent.  The fast paths that
   coalesce per-packet facts (``send_burst``, ``push_all``, ``BatchLink``)
   read the same slots.  ``bench_obs_overhead`` gates the guard cost.

2. **Determinism.**  ``emit`` stamps each fact with its simulator's
   clock; each subscriber numbers only what it records, so the trace,
   flight dump and spans are pure functions of the config.  The
   subscribers keep the ATTR -> ACTION pairing: the trace's last
   ``attr_seq``, the spans' last episode.

3. **Serialisability.**  A pickled stream comes back disarmed, with no
   subscribers and no simulator; trace events, flight dumps and spans
   travel as plain data on the result.
"""

from __future__ import annotations

from typing import Any

from .events import ROUTES, TraceEvent

__all__ = ["EventStream", "NULL_STREAM", "TraceBus"]


class EventStream:
    """Per-simulator fan-out of instrumented facts to their subscribers.

    A subscriber's ``handler(kind, route)`` returns None or a callable
    ``h(t, subject, fields)``; ``subject`` is the object the fact is about
    (a packet), for subscribers that keep object state.
    """

    __slots__ = tuple(ROUTES) + ("_sim", "_routes", "subscribers")

    def __init__(self, sim) -> None:
        self._sim = sim
        self._routes: dict[str, list] = {}
        self.subscribers: list = []
        for kind in ROUTES:
            setattr(self, kind, False)

    def subscribe(self, subscriber):
        """Arm every kind ``subscriber`` records; returns it."""
        if self is NULL_STREAM:
            raise TypeError("NULL_STREAM is shared; subscribe to a "
                            "simulator's own stream")
        self.subscribers.append(subscriber)
        for kind, route in ROUTES.items():
            h = subscriber.handler(kind, route)
            if h is not None:
                self._routes.setdefault(kind, []).append(h)
                setattr(self, kind, True)
        return subscriber

    def emit(self, kind: str, subject: Any = None, /, **fields: Any) -> None:
        """Hand one fact to every subscriber that records ``kind``."""
        t = self._sim._now
        for h in self._routes[kind]:
            h(t, subject, fields)

    def __reduce__(self):
        return (EventStream, (None,))  # disarmed (module docstring)


#: Disarmed stream for components built without a simulator (a standalone
#: queue, an unbound adaptation strategy); it refuses subscribers, so it
#: never emits.
NULL_STREAM = EventStream(None)


class TraceBus:
    """The trace subscriber: numbers events (``seq``, the total order of
    one simulation's trace) and fans them out to its sinks."""

    def __init__(self, sinks=()) -> None:
        self._seq = 0
        self._attr_seq = -1
        self.sinks = list(sinks)

    def handler(self, kind: str, route):
        if route.etype is None:
            return None
        record = self._recorder(route.layer, route.etype)
        if route.pairing == "open":
            def open_exchange(t: float, subject, fields: dict) -> None:
                self._attr_seq = record(t, subject, fields)
            return open_exchange
        if route.pairing == "paired":
            def paired(t: float, subject, fields: dict) -> None:
                rec = {"flow": fields["flow"], "attr_seq": self._attr_seq}
                rec.update(fields)
                record(t, subject, rec)
            return paired
        return record

    def _recorder(self, layer: str, etype: str):
        sinks = self.sinks

        def record(t: float, subject, fields: dict) -> int:
            seq = self._seq
            self._seq = seq + 1
            ev = TraceEvent(seq, t, layer, etype, fields)
            for sink in sinks:
                sink.append(ev)
            return seq
        return record

    @property
    def events_emitted(self) -> int:
        return self._seq

    # -- pickling: come back inert (see module docstring) -----------------
    def __getstate__(self):
        return {"_seq": self._seq, "_attr_seq": -1, "sinks": []}

    def __setstate__(self, state):
        self.__dict__.update(state)
