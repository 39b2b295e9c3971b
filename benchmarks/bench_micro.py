"""Micro-benchmarks of the substrate itself (engine event rate, timer-churn
rate, transport packet rate, parallel batch throughput) -- the knobs that
bound how large an experiment the harness can simulate per wall-clock
second.

Each bench also records a machine-readable rate into
``benchmarks/results/bench_perf.json`` (via the ``perf_record`` fixture) so
``check_regression.py`` can compare runs against the committed baseline and
future PRs inherit a performance trajectory.
"""

import os
import time

import pytest

from repro.experiments.common import ScenarioConfig
from repro.middleware.receiver import DeliveryLog
from repro.runner import run_batch
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell
from repro.transport.rudp import RudpConnection


def _best_rate(fn, work_units: int, repeats: int = 3) -> float:
    """Best-of-N units/second for ``fn`` (min wall time wins: least noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return work_units / best


def bench_engine_event_rate(benchmark, perf_record):
    """Schedule+fire cost of the event loop (100k events per round)."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 100_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    perf_record("engine_event_rate", events_per_s=_best_rate(run, 100_000))
    assert benchmark(run) == 100_000


def bench_engine_cancel_churn(benchmark, perf_record):
    """Retransmission-timer pattern: schedule a timer, cancel it, repeat.

    Cancellations dominate firings in every congestion-controlled run; the
    lazy-deletion heap must absorb 100k of them without growing, which is
    what keeps long runs O(live events) instead of O(history).
    """

    def run():
        sim = Simulator()
        fired = [0]

        def noop():
            fired[0] += 1

        for i in range(100_000):
            ev = sim.schedule(10.0, noop)
            sim.schedule(0.0, noop)
            ev.cancel()
            sim.run(max_events=1)
        peak = len(sim._heap)
        sim.run()
        assert fired[0] == 100_000
        return peak

    peak = run()
    assert peak < 4096, f"dead timers accumulated: heap peaked at {peak}"
    perf_record("engine_cancel_churn", timers_per_s=_best_rate(run, 100_000))
    assert benchmark(run) < 4096


def bench_engine_burst_rate(benchmark, perf_record):
    """Throughput of the coalesced burst path (repro.sim.batch).

    A 50k-packet back-to-back burst enters a :class:`BatchLink` via the
    bulk ``send_burst`` API and drains into a terminal ``receive_burst``
    sink, so the whole run costs O(1) engine events instead of ~3 per
    packet.  The recorded rate counts 3 per-packet-equivalent events per
    packet (serialization completion + propagation arrival + their heap
    traffic), making it directly comparable to ``engine_event_rate``; the
    ISSUE acceptance bar is >= 10x the per-packet rate, asserted against
    a same-host, same-run, same-workload measurement: the identical blast
    through the plain per-packet :class:`Link`.  Same host and same work
    on both sides, so the ratio is host-speed independent and measures
    exactly what the tier replaces.
    """
    from repro.sim.batch import BatchLink, load_numpy
    from repro.sim.link import Link
    from repro.sim.packet import Packet

    class TerminalSink:
        """Terminal-sink contract twin of UdpSink: schedules nothing,
        reads nothing but its arguments."""
        __slots__ = ("packets_received", "bytes_received")

        def __init__(self):
            self.packets_received = 0
            self.bytes_received = 0

        def receive(self, pkt):
            self.packets_received += 1
            self.bytes_received += pkt.size

        def receive_burst(self, pkts, times):
            self.packets_received += len(pkts)
            self.bytes_received += sum(p.size for p in pkts)

    n_pkts = 50_000
    pkts = [Packet(flow_id=1, seq=i, size=1400) for i in range(n_pkts)]

    def run_burst(accel):
        sim = Simulator()
        sink = TerminalSink()
        link = BatchLink(sim, 1e9, 0.001, sink, accel=accel,
                         queue_bytes=10**9)
        sim.at(0.0, link.send_burst, pkts)
        sim.run()
        assert sink.packets_received == n_pkts
        return sink.packets_received

    def run_per_packet():
        # Same-host, same-workload reference: the identical blast through
        # the plain per-packet Link (the path the burst tier replaces).
        sim = Simulator()
        sink = TerminalSink()
        link = Link(sim, 1e9, 0.001, sink, queue_bytes=10**9)

        def feed():
            send = link.send
            for p in pkts:
                send(p)

        sim.at(0.0, feed)
        sim.run()
        assert sink.packets_received == n_pkts
        return sink.packets_received

    pure_rate = _best_rate(lambda: run_burst(""), 3 * n_pkts)
    numpy_rate = (pure_rate if load_numpy() is None
                  else _best_rate(lambda: run_burst("numpy"), 3 * n_pkts))
    per_packet_rate = _best_rate(run_per_packet, 3 * n_pkts)
    speedup = max(pure_rate, numpy_rate) / per_packet_rate

    perf_record("engine_burst_rate",
                events_per_s=pure_rate,
                numpy_events_per_s=numpy_rate,
                per_packet_events_per_s=per_packet_rate,
                speedup_vs_per_packet=round(speedup, 2),
                numpy_available=load_numpy() is not None)
    assert speedup >= 10.0, (
        f"burst path is only {speedup:.1f}x the per-packet event rate "
        "(acceptance bar: 10x)")
    assert benchmark(lambda: run_burst("")) == n_pkts


def bench_rudp_transfer_rate(benchmark, perf_record):
    """Full-stack packet cost: a 5k-packet RUDP transfer on the dumbbell."""

    def run():
        sim = Simulator()
        net = Dumbbell(sim)
        snd, rcv = net.add_flow_hosts("m")
        log = DeliveryLog()
        conn = RudpConnection(sim, snd, rcv, on_deliver=log.on_deliver)
        for i in range(5000):
            conn.submit(1400, frame_id=i)
        conn.finish()
        sim.run(until=120.0)
        assert conn.completed
        return len(log)

    perf_record("rudp_transfer", packets_per_s=_best_rate(run, 5000))
    assert benchmark(run) == 5000


def bench_parallel_batch_throughput(benchmark, perf_record):
    """Serial vs process-pool wall clock for a batch of independent runs.

    Records both timings plus the speedup; on a single-core host the
    parallel path only pays pool overhead, so the bench *skips* there and
    annotates the JSON (``"skipped": true``), which ``check_regression.py``
    honours by ignoring the bench entirely.
    """
    if (os.cpu_count() or 1) == 1:
        perf_record("parallel_batch", skipped=True, cpu_count=1)
        pytest.skip("single-core host: pool speedup is unmeasurable")
    cfgs = [ScenarioConfig(workload="greedy", n_frames=1500, seed=s,
                           cbr_bps=10e6, time_cap=120.0)
            for s in range(1, 5)]
    jobs = min(4, os.cpu_count() or 1)

    t0 = time.perf_counter()
    serial = run_batch(cfgs, jobs=1, cache=False)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_batch(cfgs, jobs=jobs, cache=False)
    parallel_s = time.perf_counter() - t0

    for a, b in zip(serial, parallel):
        assert a.summary == b.summary, "worker count changed results"

    perf_record("parallel_batch", serial_s=round(serial_s, 3),
                parallel_s=round(parallel_s, 3), jobs=jobs,
                speedup=round(serial_s / max(parallel_s, 1e-9), 3),
                cpu_count=os.cpu_count())
    benchmark.pedantic(lambda: run_batch(cfgs, jobs=jobs, cache=False),
                       rounds=1, iterations=1)


@pytest.mark.perf_regression
def bench_perf_regression_gate():
    """Opt-in gate (``pytest -m perf_regression benchmarks/bench_micro.py``):
    fails when bench_perf.json regresses >25% against the committed
    baseline.  Run the other micro-benches first to produce fresh numbers.
    ``REPRO_PERF_THRESHOLD`` widens/narrows the tolerance (a fraction,
    e.g. ``0.4``) so slower or noisier CI hosts can gate without flaking.
    """
    import check_regression
    args = []
    threshold = os.environ.get("REPRO_PERF_THRESHOLD")
    if threshold:
        args = ["--threshold", threshold]
    rc = check_regression.main(args)
    assert rc == 0, "performance regression against committed baseline"
