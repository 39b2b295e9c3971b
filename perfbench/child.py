"""One benchmark pass in a fresh interpreter (started by ``run.py``).

Usage: ``python3 perfbench/child.py '<json spec>'``.  The spec names the
workload, seed, size, mode and the files to write:

* ``mode="pass"``: run one measured pass, write its result JSON;
* ``mode="traced"``: run the pass under :class:`layertrace.LayerTracer`,
  write the result with per-layer metrics and the span file;
* ``mode="setup"``: exit at the workload's first simulated event;
* ``mode="import"``: import the package and exit (compiles bytecode).

In every mode the time of the first simulated event (the first
``Simulator.run`` call, in whichever process) is written once to
``spec["first_event"]``; the parent subtracts its spawn time from it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def arm_first_event(path: str, stop: bool):
    """Note the first ``Simulator.run`` call (then get out of the way);
    returns the original method."""
    from repro.sim.engine import Simulator
    original = Simulator.run

    def run(self, *args, **kw):
        Simulator.run = original
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            pass
        else:
            os.write(fd, repr(time.monotonic()).encode())
            os.close(fd)
        if stop:
            os._exit(0)
        return original(self, *args, **kw)

    Simulator.run = run
    return original


def combine(cells) -> dict:
    from workloads import MAX_COUNTERS
    out: dict = {}
    for cell in cells:
        for key, value in cell.counters.items():
            if key in MAX_COUNTERS:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def per_layer(res, tracer, sim_run) -> dict:
    """Every per-layer metric of a traced pass (see README.md)."""
    from layertrace import LAYER_NAMES, calls_of, edges_into, func_key
    from repro.campaign.store import CampaignStore
    from repro.experiments.common import make_transport, run_scenario
    from repro.experiments.population import run_population
    from repro.sim.batch import BatchLink
    from repro.sim.engine import Simulator
    from repro.sim.fluid import FluidSource
    from repro.sim.link import Link
    from repro.sim.node import Router
    from repro.sim.packet import Packet
    from repro.transport.udp import UdpSender

    stats = tracer.stats
    classify = tracer.classify
    c = combine(res.cells)
    pkts = max(res.pkts, 1)

    def n(fn):
        return calls_of(stats, fn)[0]

    def cum(fn):
        return calls_of(stats, fn)[1]

    def ratio(num, den):
        return num / den if den else 0.0

    events = sum(e[2] for e in edges_into(stats) if e[0] == func_key(sim_run))
    scheduled = n(Simulator.schedule) + n(Simulator.at)
    fused = sum(e[2] for e in edges_into(stats, "receive_burst")
                if e[0] == func_key(BatchLink._tx_burst))
    fallback = sum(e[2] for e in edges_into(stats, callee=Link._finish_tx)
                   if e[0] == func_key(BatchLink._tx_step))
    datagrams = sum(e[2] for e in edges_into(stats, callee=UdpSender.send)
                    if classify(e[0][0]) == "traffic")
    # Scenario construction: the scenario entry points minus the engine
    # run and the result collection they call.
    sim_runs = sum(e[3] for e in edges_into(stats, callee=sim_run)
                   if classify(e[0][0]) == "experiments")
    collect = sum(e[3] for name in ("flow_summary",
                                    "collect_scenario_metrics")
                  for e in edges_into(stats, name)
                  if classify(e[0][0]) == "experiments")
    build = cum(run_scenario) + cum(run_population) - sim_runs - collect
    self_s = tracer.layer_totals()
    calls_in = tracer.layer_calls()
    writes = n(CampaignStore.store_cell)
    sweep_cells = len(res.cells) if res.workload == "sweep" else 0
    conn_calls, conn_s = calls_of(stats, make_transport)

    m = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYER_NAMES}
    m.update({
        "sim.engine.events": events,
        "sim.engine.events_per_pkt": events / pkts,
        "sim.engine.cancel_ratio": ratio(n(Simulator._note_dead), scheduled),
        "sim.link.pkts": res.pkts,
        "sim.link.wire_drops": c.get("wire_drops", 0),
        "sim.queues.drops": c.get("queue_drops", 0),
        "sim.queues.drop_ratio": ratio(c.get("queue_drops", 0),
                                       c.get("queue_arrivals", 0)),
        "sim.queues.peak_pkts": c.get("queue_peak_pkts", 0),
        "sim.node.forwards": n(Router.receive),
        "sim.packet.allocs_per_pkt": n(Packet.__init__) / pkts,
        "sim.packet.copies_per_pkt": n(Packet.copy) / pkts,
        "traffic.datagrams": datagrams,
        "sim.batch.fused_ratio": ratio(fused, fused + fallback),
        "sim.fluid.ticks": n(FluidSource._tick),
        "transport.setup_us": 1e6 * ratio(conn_s, conn_calls),
        "transport.segments_sent": c.get("segments_sent", 0),
        "transport.retransmissions": c.get("retransmissions", 0),
        "transport.timeouts": c.get("timeouts", 0),
        "transport.useful_ratio": ratio(c.get("acked_packets", 0),
                                        c.get("segments_sent", 0)),
        "transport.fec.repairs_sent": c.get("fec_repairs_sent", 0),
        "transport.fec.useful_ratio": ratio(c.get("fec_recovered", 0),
                                            c.get("fec_repairs_sent", 0)),
        "faults.drops": c.get("fault_drops", 0),
        "core.coordination.calls": calls_in.get("core.coordination", 0),
        "core.coordination.discarded_msgs": c.get("discarded_msgs", 0),
        "core.coordination.window_rescales": c.get("window_rescales", 0),
        "middleware.frames": c.get("frames", 0),
        "middleware.adaptations": c.get("adaptations", 0),
        "obs.flight_notes": c.get("flight_notes", 0),
        "experiments.build_s": max(build, 0.0),
        "campaign.store_writes": writes,
        "campaign.store_reads": n(CampaignStore.load_cell),
        "campaign.wait_s": ratio(sum(tracer.claims), len(tracer.claims)),
        "campaign.retries": max(writes - sweep_cells, 0),
    })
    return m


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    sim_run = arm_first_event(spec["first_event"],
                              stop=spec["mode"] == "setup")
    import workloads
    if spec["mode"] == "import":
        import repro.api  # noqa: F401
        import repro.campaign  # noqa: F401
        import repro.experiments.overreaction  # noqa: F401
        import repro.experiments.population  # noqa: F401
        import repro.experiments.reliability  # noqa: F401
        import layertrace  # noqa: F401
        return 0
    workdir = Path(spec["workdir"])
    tracer = None
    phase = workloads.timer_phase
    if spec["mode"] == "traced":
        from layertrace import LayerTracer
        tracer = LayerTracer(src=Path(spec["src"]), bench=HERE,
                             workdir=workdir)
        phase = tracer.phase
    run = workloads.WORKLOADS[spec["workload"]]
    res = run(spec["seed"], spec["index"], spec["size"], phase, workdir)
    # ru_maxrss is in KiB on Linux; children = the largest reaped worker.
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    failures = [f"{cell.label}: {problem}" for cell in res.cells
                for problem in cell.failures]
    out = {
        "host_s": res.host_s, "wall_s": res.wall_s, "resume_s": res.resume_s,
        "pkts": res.pkts, "rss_mb": rss_kib / 1024.0,
        "cells": len(res.cells),
        "failed_cells": sum(1 for cell in res.cells if cell.failures),
        "failures": failures[:20], "wins": res.wins,
        "digest": res.digest(),
    }
    if tracer is not None:
        tracer.finish()
        tracer.write(Path(spec["trace_out"]))
        out["per_layer"] = per_layer(res, tracer, sim_run)
        out["self_sum_s"] = sum(tracer.layer_totals().values())
        out["profiled_s"] = tracer.profiled_s()
        out["negative_self"] = [s["name"] for s in tracer.spans
                                if s["self_s"] < 0]
    with open(spec["out"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
