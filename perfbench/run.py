"""The repository benchmark: four workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload congestion --seed 1 --seconds 15 \\
        --trace 0

Run from the root of a checkout.  Each pass runs in a fresh interpreter
(``child.py``), so set-up time and peak memory are measured per pass and
nothing carries over between passes or workloads.  A run makes as many
passes as fit ``--seconds`` on the reference host, each with its own
scenario seeds; the reported values are medians over passes.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs pass 1
untraced, then repeats it traced, and prints every per-layer metric.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("congestion", "population", "reliability", "sweep")
#: Workloads whose first simulated event happens in the pass process, so
#: extra set-up samples can be taken by interpreters that stop there.
IN_PROCESS = ("congestion", "population", "reliability")
SETUP_SAMPLES = 5
#: Host seconds of one pass, interpreter start included, on the reference
#: host (2 vCPUs).  A run makes ``--seconds / PASS_SECONDS`` passes: a
#: count fixed by the arguments, so that two commits measured with the
#: same arguments run the same inputs.
PASS_SECONDS = {"congestion": 3.4, "population": 4.0, "reliability": 5.0,
                "sweep": 2.6}
#: Sweep's first event happens in a forked worker: its set-up samples all
#: come from full passes.
MIN_PASSES = {"sweep": 3}
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """A pass process failed; the benchmark prints no result."""


def _child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    env["REPRO_NO_CACHE"] = "1"     # no results cache outside the checkout
    env["REPRO_PROGRESS"] = "0"
    env.pop("REPRO_LEDGER_DIR", None)
    env.pop("REPRO_BURST", None)
    env.pop("REPRO_INVARIANTS", None)
    return env


def spawn(mode: str, args, workdir: Path, n: int) -> dict:
    """Run pass ``n`` in a child; returns its result (plus ``setup_s``)."""
    tag = f"{mode}-{n}"
    spec = {
        "mode": mode, "workload": args.workload, "seed": args.seed,
        "index": n,
        "size": args.size, "src": str(SRC),
        "workdir": str(workdir / tag),
        "first_event": str(workdir / f"{tag}.first"),
        "out": str(workdir / f"{tag}.json"),
        "trace_out": str(args.trace_file),
    }
    (workdir / tag).mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)],
                            cwd=str(ROOT), env=_child_env(workdir),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{tag}: pass exceeded {CHILD_TIMEOUT_S:.0f} s")
    finally:
        # Campaign workers share the pass's session; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{tag}: exit {proc.returncode}\n{err[-4000:]}")
    result = {}
    if mode in ("pass", "traced"):
        with open(spec["out"]) as fh:
            result = json.load(fh)
    first = Path(spec["first_event"])
    if first.exists():
        result["setup_s"] = float(first.read_text()) - t0
    shutil.rmtree(workdir / tag, ignore_errors=True)
    return result


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES.get(workload, 1),
               round(seconds / PASS_SECONDS[workload]))


def measured_passes(args, workdir: Path, count: int) -> list:
    """The run's measured passes."""
    spawn("import", args, workdir, 0)   # bytecode compiled before timing
    passes = [spawn("pass", args, workdir, n) for n in range(1, count + 1)]
    for p in passes:
        p["pps"] = p["pkts"] / p["host_s"]
    return passes


def setup_samples(args, workdir: Path, passes) -> list:
    """Set-up times of the passes, topped up by set-up probes."""
    setups = [p["setup_s"] for p in passes if "setup_s" in p]
    n = 0
    while args.workload in IN_PROCESS and len(setups) < SETUP_SAMPLES:
        n += 1
        probe = spawn("setup", args, workdir, n)
        if "setup_s" not in probe:
            raise BenchError("set-up probe reached no simulated event")
        setups.append(probe["setup_s"])
    return setups


def end_to_end(passes, setups) -> dict:
    attempted = sum(p["cells"] for p in passes)
    failed = sum(p["failed_cells"] for p in passes)
    return {
        "wall_s": statistics.median([p["wall_s"] for p in passes]),
        "pkts_per_s": statistics.median([p["pps"] for p in passes]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([p["rss_mb"] for p in passes]),
        "success_ratio": 1.0 - failed / attempted if attempted else 0.0,
        "resume_s": statistics.median([p["resume_s"] for p in passes]),
    }


def traced(args, workdir: Path, passes) -> tuple[dict, list]:
    """A traced repeat of pass 1; per-layer metrics and its checks."""
    t = spawn("traced", args, workdir, 1)
    problems = list(t["failures"])
    if t["digest"] != passes[0]["digest"] or t["wins"] != passes[0]["wins"]:
        problems.append("traced summaries differ from the measured pass")
    if t["negative_self"]:
        problems.append(f"negative self time: {t['negative_self']}")
    ratio = t["self_sum_s"] / t["profiled_s"] if t["profiled_s"] else 0.0
    if abs(ratio - 1.0) > 0.05:
        problems.append(f"layer self times sum to {ratio:.3f} of the "
                        f"profiled time")
    measured = passes[0]["host_s"]
    if args.workload in IN_PROCESS and not (
            0.95 * measured <= t["self_sum_s"] <= 1.05 * t["host_s"]):
        problems.append(
            f"layer self times sum to {t['self_sum_s']:.3f} s, outside "
            f"[{measured:.3f}, {t['host_s']:.3f}] s (untraced, traced)")
    metrics = dict(t["per_layer"])
    metrics["trace.overhead_ratio"] = t["host_s"] / measured
    metrics["trace.self_sum_ratio"] = ratio
    wins = [w for p in passes for w in p["wins"]]
    metrics["iq_win_ratio"] = sum(wins) / len(wins) if wins else 0.0
    attempted = sum(p["cells"] for p in passes)
    metrics["failed_ratio"] = (sum(p["failed_cells"] for p in passes)
                               / attempted if attempted else 0.0)
    return metrics, problems


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test size")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no program to measure (expected {SRC}/repro and "
              f"{SPEC.name} in the checkout)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    out_dir = ROOT / ".perfbench_out"
    if args.trace:
        out_dir.mkdir(exist_ok=True)
    args.trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    workdir = ROOT / ".perfbench_work" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # The traced pass repeats pass 1, which is its untraced reference.
        count = 1 if args.trace else pass_count(args.workload, args.seconds)
        passes = measured_passes(args, workdir, count)
        problems = [f for p in passes for f in p["failures"]]
        if args.trace:
            values, more = traced(args, workdir, passes)
            problems += more
        else:
            values = end_to_end(passes,
                                setup_samples(args, workdir, passes))
        names = spec["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    attempted = sum(p["cells"] for p in passes)
    failed = sum(p["failed_cells"] for p in passes)
    run_digest = hashlib.sha256(
        " ".join(p["digest"] for p in passes).encode()).hexdigest()[:16]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} "
          f"passes, {attempted} cells, digest {run_digest}")
    for key in ("wall_s", "host_s", "pps", "resume_s", "rss_mb", "setup_s"):
        print(f"  per pass {key}: "
              + " ".join(f"{p[key]:.4g}" for p in passes if key in p))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems
    # A check that fails outside any one cell (on the traced pass) still
    # counts as a failed operation.
    failed = max(failed, 0 if correct else 1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
