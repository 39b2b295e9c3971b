"""Cost of the observability layer: one stream guard per instrumented fact,
the always-on flight ring, and armed telemetry.

Every instrumented fact is one ``if ev.<kind>: ev.emit(...)`` site on the
simulator's :class:`~repro.obs.bus.EventStream`; the trace, the flight
ring, the span recorder and the telemetry annotations are subscribers.
A recorder that is not armed therefore costs nothing beyond the guards
every run pays anyway, so the three disarmed figures below are one
number: per-guard cost (a slot load and a branch) x a deliberately
generous guards-per-packet count, against the measured per-packet cost of
a full RUDP transfer.  It is measured compositionally because the guards
are interleaved with real work and cannot be compiled out.

Records (gated by ``check_regression.py`` against the committed ceilings
in ``perf_baseline.json``):

* ``trace_overhead`` -- ``disabled_overhead_pct`` (the guard estimate,
  <= 3%) plus stream emit throughput into the in-memory ring buffer and
  the streaming JSONL writer.
* ``flight_overhead`` -- ``flight_overhead_pct``: the armed ring's cost,
  again compositional -- per-note cost (one emit of a queue drop into a
  stream with only the ring armed) x the notes a congested scenario takes,
  against that scenario's ``REPRO_FLIGHT=0`` wall time (<= 3%; the ring
  records no per-packet kind).  A whole-scenario delta would be a
  difference of two noisy timings, so it is kept for information only
  (``flight_armed_delta_pct``).  Also ``spans_overhead_pct`` (the guard
  estimate, <= 3%) and, for information, the armed span cost.
* ``telemetry_overhead`` -- ``telemetry_overhead_pct`` (the guard
  estimate, <= 3%) and ``armed_overhead_pct``: the armed sampler's
  whole-scenario delta (<= 25%; it scales with the cadence, not the
  packet rate).
"""

import os
import time

from repro.experiments.common import ScenarioConfig, run_scenario
from repro.middleware.receiver import DeliveryLog
from repro.obs.bus import TraceBus
from repro.obs.flight import FlightRecorder
from repro.obs.sinks import JsonlTraceSink, RingBufferSink
from repro.obs.telemetry import TelemetryConfig
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell
from repro.transport.rudp import RudpConnection

#: Stream guards a data packet and its ACK cross: segment, send, deliver,
#: ack, queue-depth checks at every hop both ways, plus a share of the
#: drop/retransmit/period guards.  Deliberately generous.
GUARDS_PER_PACKET = 12


def _best_s(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _pct(slow: float, fast: float) -> float:
    return 100.0 * max(slow - fast, 0.0) / fast


def bench_obs_overhead(benchmark, perf_record, tmp_path):
    """Guard estimate, armed ring / telemetry deltas, emit throughput."""
    # -- per-guard cost: a disarmed stream slot load and branch ------------
    n = 200_000
    ev = Simulator().events

    def guarded_loop():
        acc = 0
        for _ in range(n):
            if ev.send:
                acc += 1
        return acc

    def plain_loop():
        acc = 0
        for _ in range(n):
            acc += 1
        return acc

    guard_ns = max(_best_s(guarded_loop) - _best_s(plain_loop), 0.0) \
        / n * 1e9

    # -- per-packet cost of the instrumented full stack --------------------
    n_pkts = 5000

    def transfer():
        sim = Simulator()
        net = Dumbbell(sim)
        snd, rcv = net.add_flow_hosts("t")
        log = DeliveryLog()
        conn = RudpConnection(sim, snd, rcv, on_deliver=log.on_deliver)
        for i in range(n_pkts):
            conn.submit(1400, frame_id=i)
        conn.finish()
        sim.run(until=120.0)
        assert conn.completed
        return len(log)

    packet_ns = _best_s(transfer) / n_pkts * 1e9
    guard_pct = round(100.0 * guard_ns * GUARDS_PER_PACKET / packet_ns, 4)

    # -- per-note cost: one queue-drop emit into the armed ring ------------
    n_note = 50_000

    def note_loop():
        stream = Simulator().events
        stream.subscribe(FlightRecorder())
        for i in range(n_note):
            if stream.drop:
                stream.emit("drop", None, link="bottleneck", kind="queue",
                            flow=1, pkt=i, size=1428, queued_pkts=64,
                            queued_bytes=91392)

    note_ns = _best_s(note_loop) / n_note * 1e9

    # -- a congested scenario: the ring's notes, the armed sampler --------
    # CBR cross traffic overflows the bottleneck, so the ring notes every
    # queue drop and retransmission -- many more notes than a clean run.
    cfg = ScenarioConfig(transport="rudp", workload="greedy", n_frames=2000,
                         base_frame_size=1400, cbr_bps=16e6, time_cap=120.0)
    telemetry = cfg.replace(telemetry=TelemetryConfig(cadence_s=0.1))
    # warm-up (first-call setup must not bias the timings); the note count
    # is a pure function of the config
    notes = run_scenario(cfg).flight["events_noted"]
    saved = os.environ.pop("REPRO_FLIGHT", None)
    ring_s = bare_s = tel_s = float("inf")

    def timed(c):
        t0 = time.perf_counter()
        run_scenario(c)
        return time.perf_counter() - t0

    try:
        # Interleave the sides so clock drift / neighbour load hits all
        # of them equally instead of biasing whichever block ran last.
        for _ in range(7):
            os.environ.pop("REPRO_FLIGHT", None)            # default: armed
            ring_s = min(ring_s, timed(cfg))
            tel_s = min(tel_s, timed(telemetry))
            os.environ["REPRO_FLIGHT"] = "0"
            bare_s = min(bare_s, timed(cfg))
    finally:
        if saved is None:
            os.environ.pop("REPRO_FLIGHT", None)
        else:
            os.environ["REPRO_FLIGHT"] = saved
    spans_s = _best_s(lambda: run_scenario(cfg.replace(spans=True)),
                      repeats=3)
    flight_pct = 100.0 * note_ns * notes / (bare_s * 1e9)
    telemetry_armed_pct = _pct(tel_s, ring_s)

    # -- armed trace: stream emit throughput, per sink ---------------------
    n_emit = 50_000

    def emit_into(sink):
        stream = Simulator().events
        stream.subscribe(TraceBus(sinks=[sink]))
        emit = stream.emit
        for i in range(n_emit):
            emit("ack", flow=1, ack=i, newly=1)
        return n_emit

    def emit_ring():
        return emit_into(RingBufferSink(capacity=1024))

    def emit_jsonl():
        with JsonlTraceSink(tmp_path / "bench_trace.jsonl") as sink:
            return emit_into(sink)

    perf_record("trace_overhead",
                guard_ns=round(guard_ns, 3),
                packet_ns=round(packet_ns, 1),
                disabled_overhead_pct=guard_pct,
                emit_ring_events_per_s=n_emit / _best_s(emit_ring, 3),
                emit_jsonl_events_per_s=n_emit / _best_s(emit_jsonl, 3))
    perf_record("flight_overhead",
                guard_ns=round(guard_ns, 3),
                packet_ns=round(packet_ns, 1),
                note_ns=round(note_ns, 1),
                notes=notes,
                flight_overhead_pct=round(flight_pct, 4),
                flight_armed_delta_pct=round(_pct(ring_s, bare_s), 2),
                spans_overhead_pct=guard_pct,
                spans_armed_pct=round(_pct(spans_s, ring_s), 2))
    perf_record("telemetry_overhead",
                guard_ns=round(guard_ns, 3),
                packet_ns=round(packet_ns, 1),
                telemetry_overhead_pct=guard_pct,
                armed_overhead_pct=round(telemetry_armed_pct, 2))
    assert guard_pct < 3.0, (
        f"disarmed stream-guard overhead {guard_pct:.2f}% exceeds the 3% "
        "budget")
    assert flight_pct < 3.0, (
        f"armed flight-recorder overhead {flight_pct:.2f}% exceeds the 3% "
        "budget")
    assert benchmark(emit_ring) == n_emit
