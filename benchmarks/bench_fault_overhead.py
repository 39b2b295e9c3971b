"""Cost of the fault-injection subsystem on the *no-faults* path.

A scenario without a :class:`~repro.faults.FaultSchedule` must not pay for
the dynamics machinery it is not using.  The machinery cannot be compiled
out, though: every packet that crosses a :class:`~repro.sim.link.Link`
passes the administrative ``up`` flag check (``send`` and ``_tx_done``) and
the ``jitter is None`` check, and every retransmission-timer arm passes the
falsy ``rto_jitter`` / ``stall_threshold`` guards that transport hardening
hangs off.

As with ``bench_obs_overhead`` the overhead is measured compositionally
-- per-guard cost x a generous guards-per-packet count, against the
measured per-packet cost of a full RUDP transfer -- because the guards are
interleaved with real work and cannot be toggled at runtime.  The committed
baseline gates the estimate at <= 3% (``fault_overhead_pct_max`` in
``perf_baseline.json``).
"""

import time

from repro.middleware.receiver import DeliveryLog
from repro.sim.engine import Simulator
from repro.sim.topology import Dumbbell
from repro.transport.rudp import RudpConnection

#: Fault-path guard points a data packet (and its share of the ACK path)
#: crosses when no schedule is installed: per link traversal the ``up``
#: check in ``send``, the ``up`` check in ``_tx_done`` and the
#: ``jitter is None`` check (3), over ~2 links each way (12), plus the
#: falsy ``rto_jitter`` / ``stall_threshold`` guards on the timer path.
#: Deliberately generous -- the estimate below multiplies by it.
GUARDS_PER_PACKET = 16


def _best_s(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_fault_overhead(benchmark, perf_record):
    """No-faults-path guard cost as a fraction of real per-packet work."""
    # -- per-guard cost: flag checks on a Link-shaped object ---------------
    n = 200_000

    class _LinkShape:
        __slots__ = ("up", "jitter")

        def __init__(self):
            self.up = True
            self.jitter = None

    lk = _LinkShape()

    def guarded_loop():
        acc = 0
        for _ in range(n):
            if lk.up and lk.jitter is None:
                acc += 1
        return acc

    def plain_loop():
        acc = 0
        for _ in range(n):
            acc += 1
        return acc

    # guarded_loop performs two checks per iteration; normalise to one.
    guard_ns = max(_best_s(guarded_loop) - _best_s(plain_loop), 0.0) \
        / (2 * n) * 1e9

    # -- per-packet cost of the full stack (no schedule installed) ---------
    n_pkts = 5000

    def transfer():
        sim = Simulator()
        net = Dumbbell(sim)
        snd, rcv = net.add_flow_hosts("f")
        log = DeliveryLog()
        conn = RudpConnection(sim, snd, rcv, on_deliver=log.on_deliver)
        for i in range(n_pkts):
            conn.submit(1400, frame_id=i)
        conn.finish()
        sim.run(until=120.0)
        assert conn.completed
        return len(log)

    packet_ns = _best_s(transfer) / n_pkts * 1e9
    fault_overhead_pct = 100.0 * guard_ns * GUARDS_PER_PACKET / packet_ns

    perf_record("fault_overhead",
                guard_ns=round(guard_ns, 3),
                packet_ns=round(packet_ns, 1),
                fault_overhead_pct=round(fault_overhead_pct, 4))
    assert fault_overhead_pct < 3.0, (
        f"no-faults-path guard overhead {fault_overhead_pct:.2f}% exceeds "
        "the 3% budget")
    assert benchmark(transfer) == n_pkts
