"""The benchmark's four workloads, run against the public API.

Each workload turns the workload seed into inputs, runs one *pass* and
returns a :class:`PassResult`: the cells it ran (each with its
deterministic summary, output-check failures and counters), the host time
of the timed section and the work it moved.  The output checks run after
the timed section, through the program's own public checks.

``phase`` is a context-manager factory supplied by the caller: a plain
timer for measured passes, a profiling timer for the traced pass
(:mod:`layertrace`).  Everything the workload times happens inside a
phase; nothing outside a phase is timed.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["WORKLOADS", "SIZES", "PassResult", "Cell", "timer_phase",
           "digest"]

#: Pass sizes.  ``full`` is what the benchmark measures; ``tiny`` is the
#: smoke-test size (every code path, a fraction of the work).
#:
#: ``span`` (congestion, reliability): their cell durations swing
#: several-fold with the scenario seed (an 18 Mb Table 6 cell takes 10-25
#: simulated seconds, a blackout cell 30-300), and host time follows.
#: Their passes report host seconds per span of work -- the pass's host
#: time scaled by the span over the work the pass covered -- so the figure
#: compares across seeds.  The span is about one pass at a typical seed:
#: simulated seconds on congestion; bottleneck packets on reliability,
#: whose stalled cells simulate long idle stretches cheaply.
SIZES = {
    "full": {
        "congestion": {"n_frames": 1000, "span": ("sim_s", 40.0)},
        "population": {},
        "reliability": {"n_frames": 250, "span": ("pkts", 160000)},
        "sweep": {"n_frames": 300, "rates": (4e6, 8e6, 12e6), "seeds": 4},
    },
    "tiny": {
        "congestion": {"n_frames": 60, "span": ("sim_s", 4.0)},
        "population": {"n_flows": 40, "frames_per_flow": 8,
                       "arrival_window_s": 0.5},
        "reliability": {"n_frames": 30, "span": ("pkts", 20000)},
        "sweep": {"n_frames": 40, "rates": (12e6,), "seeds": 2},
    },
}


@dataclass
class Cell:
    """One simulated cell of a pass."""

    label: str
    summary: dict
    failures: list
    counters: dict


@dataclass
class PassResult:
    """Outcome of one pass (see module docstring)."""

    workload: str
    host_s: float          # host seconds of the timed section
    wall_s: float          # host_s, scaled to the span where there is one
    resume_s: float        # host seconds of the resume pass
    pkts: int              # bottleneck packets, both directions
    cells: list
    wins: list             # one bool per paired arm
    extra: str = ""        # further deterministic output (campaign report)

    def digest(self) -> str:
        return digest([(c.label, c.summary) for c in self.cells], self.extra)


def digest(rows, extra: str = "") -> str:
    """Stable hash of cell summaries (exact float reprs, sorted keys)."""
    text = json.dumps(rows, sort_keys=True) + extra
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _Timer:
    seconds = 0.0


@contextmanager
def timer_phase(name: str, *, workers: bool = False):
    """Untraced phase: host seconds only."""
    t = _Timer()
    t0 = time.perf_counter()
    try:
        yield t
    finally:
        t.seconds = time.perf_counter() - t0


def scenario_seeds(workload: str, seed: int, index: int, n: int = 1) -> list:
    """The scenario seeds of pass ``index`` of a run with workload seed
    ``seed``: deterministic, and different for every pass."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return [rng.randrange(1, 2 ** 31) for _ in range(n)]


# ---------------------------------------------------------------------------
# Per-cell counters and output checks
# ---------------------------------------------------------------------------
#: Counters combined with max() across cells; every other one is summed.
MAX_COUNTERS = ("queue_peak_pkts",)


def _link_counters(net) -> dict:
    fwd, bwd = net.forward, net.backward
    queues = (fwd.queue.stats, bwd.queue.stats)
    return {
        "pkts": fwd.packets_sent + bwd.packets_sent,
        "wire_drops": fwd.packets_lost_wire + bwd.packets_lost_wire,
        "queue_drops": sum(q.drops for q in queues),
        "queue_arrivals": sum(q.arrivals for q in queues),
        "queue_flushed": sum(q.flushed for q in queues),
        "queue_peak_pkts": max(q.peak_packets for q in queues),
    }


def _link_failures(net) -> list:
    bad = []
    for link in (net.forward, net.backward):
        for problem in (link.queue.conservation_violation(),
                        link.accounting_violation()):
            if problem:
                bad.append(f"{link.name}: {problem}")
    return bad


def scenario_cell(label: str, res) -> Cell:
    """Counters and output checks of one :class:`ScenarioResult` (or a
    captured :class:`FailedResult`)."""
    if getattr(res, "failed", False):
        return Cell(label, {"failed": repr(res)}, [f"raised: {res!r}"],
                    {"pkts": 0})
    s = res.summary
    st = res.conn.sender.stats
    counters = _link_counters(res.net)
    counters.update(
        sim_s=res.sim.now,
        segments_sent=st.packets_sent,
        retransmissions=st.retransmissions,
        timeouts=st.timeouts,
        acked_packets=st.acked_packets,
        fec_repairs_sent=s.get("obs_fec_repairs_sent", 0.0),
        fec_recovered=s.get("obs_fec_recovered", 0.0),
        fault_drops=(counters["wire_drops"] + counters["queue_flushed"]
                     if res.injector is not None else 0),
        discarded_msgs=st.discarded_msgs,
        window_rescales=s.get("obs_coord_window_rescales", 0.0),
        frames=s.get("obs_frames_submitted", 0.0),
        adaptations=(s.get("obs_adapt_upper_events", 0.0)
                     + s.get("obs_adapt_lower_events", 0.0)),
        flight_notes=(res.flight or {}).get("events_noted", 0),
    )
    failures = [] if res.completed else ["did not complete"]
    problem = res.log.consistency_violation()
    if problem:
        failures.append(problem)
    failures += _link_failures(res.net)
    failures += res.conn.sender.invariant_violations()
    failures += res.conn.receiver.invariant_violations()
    return Cell(label, s, failures, counters)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def _span_pass(name: str, seed: int, index: int, span: tuple, phase,
               run_unit, better) -> PassResult:
    """One experiment sweep at the pass's scenario seed.

    ``run_unit(scenario_seed)`` returns ``[(label, arm_key, result)]``;
    the two results sharing an ``arm_key`` are a paired comparison,
    coordinated arm first, and ``better(coordinated, baseline)`` says
    whether the coordinated arm won.
    """
    [sub] = scenario_seeds(name, seed, index)
    with phase("cold") as t:
        rows = run_unit(sub)
    cells = []
    arms: dict = {}
    for label, key, res in rows:
        cells.append(scenario_cell(f"s{sub}/{label}", res))
        arms.setdefault(key, []).append(res)
    wins = [better(*pair) for pair in arms.values()]
    sim_s = sum(c.counters.get("sim_s", 0.0) for c in cells)
    pkts = sum(c.counters["pkts"] for c in cells)
    unit, size = span
    wall = t.seconds * size / {"sim_s": sim_s, "pkts": pkts}[unit]
    # No persistence tier in this workload: resuming it recomputes.
    return PassResult(name, t.seconds, wall, wall, pkts, cells, wins)


def congestion(seed: int, index: int, size: str, phase,
               workdir) -> PassResult:
    """Table 6 sweep (greedy IQ-RUDP vs RUDP, resolution adaptation,
    12/16/18 Mb CBR + 1 Mb MBone VBR), serial, cache off."""
    from repro.experiments.overreaction import run_table6
    p = SIZES[size]["congestion"]

    def unit(sub):
        table = run_table6(n_frames=p["n_frames"], seed=sub, jobs=1,
                           cache=False)
        return [(f"{rate}Mb/{arm}", rate, res)
                for rate, rows in table.items() for arm, res in rows.items()]

    # Rows are listed IQ-RUDP first: the coordinated arm wins on duration.
    return _span_pass(
        "congestion", seed, index, p["span"], phase, unit,
        lambda iq, rudp: iq.summary["duration_s"] < rudp.summary["duration_s"])


def reliability(seed: int, index: int, size: str, phase,
                workdir) -> PassResult:
    """IQ+FEC vs ARQ-only IQ under Gilbert-Elliott burst loss and a
    handover blackout, with span lineage and telemetry armed."""
    from repro.api import TelemetryConfig
    from repro.experiments.reliability import run_reliability
    p = SIZES[size]["reliability"]
    overrides = {"spans": True, "telemetry": TelemetryConfig()}

    def unit(sub):
        out = run_reliability(n_frames=p["n_frames"], seed=sub, jobs=1,
                              cache=False, overrides=overrides)
        return [(f"{sched}/{arm}", sched, res)
                for sched, rows in out.items() for arm, res in rows.items()]

    # ARMS order is armed-first: iq+fec, then ARQ-only iq.
    return _span_pass(
        "reliability", seed, index, p["span"], phase, unit,
        lambda fec, arq: fec.summary["goodput_fps"]
        > arq.summary["goodput_fps"])


def population(seed: int, index: int, size: str, phase,
               workdir) -> PassResult:
    """1000 mixed IQ/RUDP/TCP flows on a 200 Mb dumbbell with burst links
    and fluid background traffic (``run_population`` defaults)."""
    from repro.experiments.population import run_population
    kw = dict(SIZES[size]["population"])
    [kw["seed"]] = scenario_seeds("population", seed, index)
    with phase("cold") as t:
        res = run_population(**kw)
    s = res.summary
    counters = _link_counters(res.net)
    counters.update(
        segments_sent=s["datagrams"] + s["retransmissions"],
        retransmissions=s["retransmissions"],
        timeouts=s["timeouts"],
        acked_packets=s["datagrams"],
    )
    failures = _link_failures(res.net)
    if s["completed"] != s["flows"]:
        failures.append(f"{s['flows'] - s['completed']:.0f} flows did not "
                        f"complete")
    cell = Cell("population", s, failures, counters)
    # Paired arms: IQ and RUDP flows paired in arrival order; the IQ flow
    # wins when it completes sooner.
    waiting = {"iq": [], "rudp": []}
    wins = []
    for fct, tp in zip(res.fcts, res.transports):
        if tp not in waiting:
            continue
        other = waiting["rudp" if tp == "iq" else "iq"]
        if other:
            mate = other.pop(0)
            iq, rudp = (fct, mate) if tp == "iq" else (mate, fct)
            wins.append(iq is not None and (rudp is None or iq < rudp))
        else:
            waiting[tp].append(fct)
    # No persistence tier in this workload: resuming it recomputes.
    return PassResult("population", t.seconds, t.seconds, t.seconds,
                      counters["pkts"], [cell], wins)


def sweep(seed: int, index: int, size: str, phase, workdir) -> PassResult:
    """A campaign of short greedy cells (transports x cross rates x seeds)
    on two workers: a cold pass into a fresh directory, then a resume pass
    that reads every cell back, each followed by ``.report()``."""
    from repro.api import load_campaign, run_campaign
    p = SIZES[size]["sweep"]
    campaign = load_campaign({
        "name": "perfbench-sweep",
        "template": {"workload": "greedy", "n_frames": p["n_frames"],
                     "adaptation": "resolution", "vbr_mean_bps": 1e6,
                     "metric_period": 0.5, "time_cap": 900.0},
        "axes": {"transport": ["iq", "rudp"], "cbr_bps": list(p["rates"])},
        "seeds": {"list": scenario_seeds("sweep", seed, index, p["seeds"])},
    })
    root = workdir / "campaign"
    with phase("cold", workers=True) as cold:
        run_campaign(campaign, dir=root, workers=2, cache=False,
                     progress=False).report()
    with phase("resume") as warm:
        run = run_campaign(campaign, dir=root, workers=2, cache=False,
                           progress=False)
        report = run.report()
    results = run.results
    cells = [scenario_cell(c.label, results[c.label])
             if c.label in results
             else Cell(c.label, {}, ["missing from the store"], {"pkts": 0})
             for c in run.cells]
    by_pair = {}
    for c in run.cells:
        res = results.get(c.label)
        key = (c.assignment["cbr_bps"], c.seed)
        by_pair.setdefault(key, {})[c.assignment["transport"]] = res
    wins = [pair["iq"].summary["duration_s"]
            < pair["rudp"].summary["duration_s"]
            for pair in by_pair.values()
            if not any(getattr(r, "failed", True) for r in pair.values())]
    pkts = sum(c.counters["pkts"] for c in cells)
    shutil.rmtree(root, ignore_errors=True)
    return PassResult("sweep", cold.seconds, cold.seconds, warm.seconds,
                      pkts, cells, wins, report.to_json())


WORKLOADS = {"congestion": congestion, "population": population,
             "reliability": reliability, "sweep": sweep}

#: Workloads whose first simulated event happens in the pass process
#: itself (sweep's happens in a forked campaign worker).
IN_PROCESS = ("congestion", "population", "reliability")
