"""Smoke tests for the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs at the ``tiny`` size: every named metric must be
reported with its unit, the same seed must reproduce the summary digest
and another seed must change it, and no span may have negative self time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def bench(workload: str, *, seed: int = 1, trace: int = 0,
          cwd: Path = ROOT) -> tuple[int, str, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, proc.stdout + proc.stderr, result


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    workload = request.param
    return workload, bench(workload, trace=0), bench(workload, trace=1)


def test_reports_every_metric_with_unit(runs):
    _workload, measured, traced = runs
    for (code, text, result), kind in ((measured, "end_to_end"),
                                       (traced, "per_layer")):
        assert code == 0, text
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), name


def test_end_to_end_metrics_are_nonzero(runs):
    _workload, (_code, _text, result), _traced = runs
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name


def test_spans_have_nonnegative_self_time(runs):
    workload, _measured, _traced = runs
    path = ROOT / ".perfbench_out" / f"trace-{workload}-seed1.json"
    spans = json.loads(path.read_text())["spans"]
    assert spans[0]["name"] == "pass" and spans[0]["parent"] is None
    ids = {s["id"] for s in spans}
    for span in spans:
        assert span["self_s"] >= 0, span["name"]
        assert span["end"] >= span["start"]
        assert span["parent"] is None or span["parent"] in ids
        for layer, row in span.get("layers", {}).items():
            assert row["self_s"] >= 0, (span["name"], layer)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_follows_the_seed(workload, tmp_path):
    import workloads
    run = workloads.WORKLOADS[workload]

    def digest(seed):
        return run(seed, 1, "tiny", workloads.timer_phase,
                   tmp_path).digest()

    first = digest(3)
    assert digest(3) == first
    assert digest(4) != first


def test_covered_time_is_a_union():
    from layertrace import _covered
    parent = {"start": 0.0, "end": 10.0}
    kids = [{"start": 1.0, "end": 4.0}, {"start": 3.0, "end": 6.0},
            {"start": 8.0, "end": 12.0}]
    assert _covered(parent, kids) == pytest.approx(7.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, _text, result = bench("congestion", cwd=tmp_path)
    assert code != 0 and result is None
