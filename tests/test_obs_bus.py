"""Unit tests for the event stream and its trace subscriber: per-kind
arming (a kind nobody records is one guard and never reaches the stream),
determinism of sequence/timestamp stamping, the ATTR -> ACTION pairing
kept by the subscribers, and pickle behaviour (the worker pool and the
persistent cache both ship objects that hold a stream)."""

import pathlib
import pickle
import re

import pytest

from repro.obs.bus import NULL_STREAM, EventStream, TraceBus
from repro.obs.events import PACKET_SEND, PER_PACKET, ROUTES, TraceEvent
from repro.obs.flight import FlightRecorder
from repro.obs.sinks import RingBufferSink
from repro.obs.spans import SpanRecorder
from repro.sim.engine import Simulator

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def armed(ev) -> set:
    """Kinds some subscriber of ``ev`` records."""
    return {k for k in ROUTES if getattr(ev, k)}


class PoisonedSink:
    """Raises on any append: proves the disarmed path never reaches sinks."""

    def append(self, ev):
        raise AssertionError("sink touched on a disarmed path")


class TestDisarmedStream:
    def test_fresh_stream_has_every_kind_disarmed(self):
        ev = Simulator().events
        assert armed(ev) == set()
        # Each kind is a slot: the call-site guard is a plain slot load.
        assert set(ROUTES) <= set(EventStream.__slots__)

    def test_null_stream_refuses_subscribers(self):
        assert armed(NULL_STREAM) == set()
        with pytest.raises(TypeError):
            NULL_STREAM.subscribe(FlightRecorder())

    def test_simulator_owns_an_attached_stream(self):
        sim = Simulator()
        stream = sim.events
        assert isinstance(stream, EventStream)
        sim._now = 2.5  # the simulator's clock stamps every fact
        sink = RingBufferSink()
        stream.subscribe(TraceBus(sinks=[sink]))
        stream.emit("ack", flow=1, ack=3, newly=1)
        assert sink.events[0].t == 2.5


class TestArming:
    def test_flight_ring_alone_arms_no_per_packet_kind(self):
        ev = Simulator().events
        ev.subscribe(FlightRecorder())
        recorded = armed(ev)
        assert recorded == {k for k, r in ROUTES.items() if r.label}
        assert not recorded & set(PER_PACKET)

    def test_each_subscriber_arms_what_it_records(self):
        ev = Simulator().events
        ev.subscribe(SpanRecorder())
        assert armed(ev) == {k for k, r in ROUTES.items() if r.span}
        ev.subscribe(TraceBus())
        assert armed(ev) == {k for k, r in ROUTES.items()
                                   if r.span or r.etype}

    def test_pickled_stream_comes_back_disarmed(self):
        ev = Simulator().events
        ev.subscribe(TraceBus(sinks=[PoisonedSink()]))
        clone = pickle.loads(pickle.dumps(ev))
        assert armed(clone) == set() and clone.subscribers == []

    def test_every_emit_site_names_a_routed_kind(self):
        """Call sites are ``if ev.<kind>: ev.emit("<kind>", ...)``: every
        emitted kind and every guard slot read names a routed kind."""
        emitted, guarded = set(), set()
        for path in (SRC / "sim", SRC / "transport", SRC / "core",
                     SRC / "middleware", SRC / "faults", SRC / "invariants",
                     SRC / "experiments"):
            for py in path.rglob("*.py"):
                text = py.read_text()
                emitted |= set(re.findall(r'\bemit\("(\w+)"', text))
                guarded |= {a or b for a, b in re.findall(
                    r"\b(?:el)?if (?:[\w .!=]+ and )?ev\.(\w+)"
                    r"|(?<!obs\.)\bevents\.([a-z_]+)\b(?!\()", text)}
        assert emitted <= set(ROUTES), emitted - set(ROUTES)
        assert guarded <= set(ROUTES), guarded - set(ROUTES)
        assert emitted == set(ROUTES)  # no routed kind is dead


class TestTraceBus:
    def test_emit_stamps_seq_and_sim_clock(self):
        sim = Simulator()
        sink = RingBufferSink()
        bus = sim.events.subscribe(TraceBus(sinks=[sink]))
        sim._now = 1.5
        sim.events.emit("send", None, flow=1, pkt=7, size=1400)
        sim._now = 2.0
        sim.events.emit("drop", None, link="l", kind="wire")
        assert bus.events_emitted == 2
        evs = sink.events
        assert [ev.seq for ev in evs] == [0, 1]
        assert [ev.t for ev in evs] == [1.5, 2.0]
        assert (evs[0].layer, evs[0].etype) == ("transport", PACKET_SEND)
        assert evs[0].fields == {"flow": 1, "pkt": 7, "size": 1400}

    def test_fans_out_to_every_sink(self):
        a, b = RingBufferSink(), RingBufferSink()
        ev = Simulator().events
        ev.subscribe(TraceBus(sinks=[a, b]))
        ev.emit("adapt", trigger="upper")
        assert len(a) == len(b) == 1
        assert a.events == b.events

    def test_pickles_back_inert(self):
        ev = Simulator().events
        bus = ev.subscribe(TraceBus(sinks=[RingBufferSink()]))
        ev.emit("send", None, flow=1)
        clone = pickle.loads(pickle.dumps(bus))
        assert clone.sinks == []
        assert clone.events_emitted == 1

    def test_disabled_guard_protects_poisoned_sink(self):
        """Every hook site is written as ``if ev.<kind>: ev.emit(...)``;
        on a disarmed stream the sink (even a poisoned one) is
        unreachable."""
        live = Simulator().events
        live.subscribe(TraceBus(sinks=[PoisonedSink()]))
        inert = pickle.loads(pickle.dumps(live))
        for ev in (NULL_STREAM, inert, Simulator().events):
            for _ in range(100):
                if ev.send:
                    ev.emit("send", None, flow=1)

    def test_paired_actions_carry_the_exchange_seq(self):
        sink = RingBufferSink()
        ev = Simulator().events
        ev.subscribe(TraceBus(sinks=[sink]))
        spans = ev.subscribe(SpanRecorder())
        ev.emit("attrs", flow=1, attrs={"ADAPT_MARK": 0.4})
        ev.emit("action", flow=1, action="discard", enabled=True)
        ev.emit("transport_action", flow=1, action="stall_degrade")
        objs = [e.as_obj() for e in sink.events]
        assert list(objs[1]) == ["seq", "t", "layer", "event", "flow",
                                 "attr_seq", "action", "enabled"]
        assert objs[1]["attr_seq"] == objs[0]["seq"] == 0
        assert "attr_seq" not in objs[2]
        assert [a["episode"] for a in spans.actions] == [0, None]

    def test_event_pickle_roundtrip(self):
        ev = TraceEvent(3, 0.25, "coord", "COORD_ACTION",
                        {"action": "discard", "enabled": True})
        clone = pickle.loads(pickle.dumps(ev))
        assert clone == ev
        assert clone.as_obj() == {"seq": 3, "t": 0.25, "layer": "coord",
                                  "event": "COORD_ACTION",
                                  "action": "discard", "enabled": True}

    def test_untraced_run_emits_nothing(self):
        """A scenario without a trace sink has no trace subscriber, and
        with only the flight ring armed no per-packet kind is armed."""
        from repro.experiments.common import ScenarioConfig, run_scenario
        res = run_scenario(ScenarioConfig(transport="iq", workload="greedy",
                                          n_frames=50, time_cap=60.0))
        assert res.completed
        ev = res.sim.events
        assert not any(isinstance(s, TraceBus) for s in ev.subscribers)
        assert not armed(ev) & set(PER_PACKET)
        assert res.conn.sender.events is ev
