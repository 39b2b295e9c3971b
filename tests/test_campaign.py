"""Tests for :mod:`repro.campaign`: spec validation and expansion, stable
cell identity across processes, work-stealing execution (zero duplicate
executions, dead-worker lease reclaim), interrupt/resume byte-identity,
aggregation determinism, and the ``repro campaign`` CLI.

Scenario sizing: a greedy n_frames=5 cell runs in about a millisecond, so
even the 200+ cell acceptance campaign stays cheap.
"""

import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.api import Scenario
from repro.campaign import (Campaign, CampaignStore, aggregate, cell_key,
                            load_campaign, run_campaign, run_rows)
from repro.experiments.common import ScenarioConfig
from repro.middleware.adaptation import ADAPTATIONS, resolution_default
from repro.runner.cache import ResultsCache
from repro.runner.failures import FailedResult

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

TINY = dict(workload="greedy", n_frames=5, time_cap=30.0)


def _tiny_campaign(**kw) -> Campaign:
    spec = dict(template=Scenario(**TINY), name="tiny",
                axes={"transport": ["tcp", "iq"]}, seeds=2)
    spec.update(kw)
    return Campaign(spec.pop("template"), **spec)


def _done_counts(root) -> list[int]:
    """Cells executed per worker, from the workers' heartbeat files --
    the zero-duplicate witness: summed, every cell ran exactly once."""
    return [hb["done"] for hb in CampaignStore(root).status()["heartbeats"]]


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
def test_unknown_axis_field_fails_with_did_you_mean():
    with pytest.raises(ValueError, match="did you mean 'transport'"):
        Campaign(Scenario(**TINY), axes={"transprot": ["tcp"]})


def test_unknown_top_level_spec_key_fails_with_hint():
    with pytest.raises(ValueError, match="did you mean 'axes'"):
        Campaign.from_mapping({"template": dict(TINY),
                               "axis": {"transport": ["tcp"]}})


def test_zip_length_mismatch_fails():
    with pytest.raises(ValueError, match="equal lengths"):
        Campaign(Scenario(**TINY),
                 zip_axes={"rtt_s": [0.03, 0.1], "queue_pkts": [64]})


def test_axis_and_zip_overlap_fails():
    with pytest.raises(ValueError, match="both 'axes' and 'zip'"):
        Campaign(Scenario(**TINY), axes={"rtt_s": [0.03]},
                 zip_axes={"rtt_s": [0.1]})


def test_seed_cannot_be_an_axis():
    with pytest.raises(ValueError, match="'seeds' section"):
        Campaign(Scenario(**TINY), axes={"seed": [1, 2]})


def test_case_with_seed_or_empty_rejected():
    with pytest.raises(ValueError, match="seeds come from"):
        Campaign(Scenario(**TINY), cases=[{"seed": 3}])
    with pytest.raises(ValueError, match="non-empty mapping"):
        Campaign(Scenario(**TINY), cases=[{}])


def test_duplicate_cells_rejected():
    with pytest.raises(ValueError, match="duplicate campaign cell"):
        Campaign(Scenario(**TINY), axes={"transport": ["tcp"]},
                 cases=[{"transport": "tcp"}]).cells()


def test_seeds_forms():
    base_seed = Scenario(**TINY).seed
    assert Campaign(Scenario(**TINY), seeds=3).seeds == (
        base_seed, base_seed + 1, base_seed + 2)
    assert Campaign(Scenario(**TINY), seeds=[5, 9]).seeds == (5, 9)
    with pytest.raises(ValueError, match=">= 1"):
        Campaign(Scenario(**TINY), seeds=0)
    with pytest.raises(ValueError, match="duplicate seeds"):
        Campaign(Scenario(**TINY), seeds=[1, 1])


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
def test_grid_zip_cases_seed_counts():
    camp = Campaign(
        Scenario(**TINY),
        axes={"transport": ["tcp", "iq"], "cbr_bps": [0.0, 4e6, 8e6]},
        zip_axes={"rtt_s": [0.03, 0.1], "queue_pkts": [64, 256]},
        cases=[{"transport": "rudp"}, {"transport": "iq_nocond"}],
        seeds=3)
    # grid 2*3 x zip 2 x seeds 3 = 36, plus cases 2 x seeds 3 = 6.
    assert len(camp) == 42
    # zip axes advance together: rtt 0.03 always pairs with queue 64.
    for cell in camp.cells():
        if "rtt_s" in cell.assignment:
            pair = (cell.assignment["rtt_s"], cell.assignment["queue_pkts"])
            assert pair in ((0.03, 64), (0.1, 256))


def test_expansion_order_is_deterministic_and_labels_stable():
    a = _tiny_campaign().cells()
    b = _tiny_campaign().cells()
    assert [c.key for c in a] == [c.key for c in b]
    assert [c.label for c in a] == [c.label for c in b]
    assert a[0].label == "transport='tcp',seed=1"


def test_spec_mapping_coercion_and_adaptation_registry():
    camp = Campaign.from_mapping({
        "name": "coerce",
        "template": {**TINY, "cbr_bps": "8e6", "adaptation": "resolution"},
        "axes": {"transport": ["tcp", "iq"]},
        "seeds": {"count": 2},
    })
    assert camp.template.cbr_bps == 8e6
    assert camp.template.adaptation is ADAPTATIONS["resolution"]
    assert len(camp) == 4
    with pytest.raises(ValueError, match="unknown adaptation"):
        Campaign.from_mapping({"template": {"adaptation": "resolutoin"}})


def test_lambda_adaptation_rejected_for_cell_identity():
    cfg = ScenarioConfig(**TINY).replace(adaptation=lambda: None)
    with pytest.raises(ValueError, match="stably hashable"):
        cell_key(cfg)
    with pytest.raises(ValueError, match="stably hashable"):
        Campaign(Scenario(**TINY).replace(adaptation=lambda: None),
                 axes={"transport": ["tcp"]}).cells()


def test_load_campaign_toml_and_json(tmp_path):
    spec = tmp_path / "spec.toml"
    spec.write_text(textwrap.dedent("""\
        name = "t"
        [template]
        workload = "greedy"
        n_frames = 5
        time_cap = 30.0
        [axes]
        transport = ["tcp", "iq"]
        [seeds]
        count = 2
    """))
    camp = load_campaign(str(spec))
    assert camp.name == "t" and len(camp) == 4
    jspec = tmp_path / "spec.json"
    jspec.write_text(json.dumps({"name": "t", "template": dict(TINY),
                                 "axes": {"transport": ["tcp", "iq"]},
                                 "seeds": 2}))
    assert [c.key for c in load_campaign(str(jspec)).cells()] == \
        [c.key for c in camp.cells()]
    with pytest.raises(ValueError, match="unrecognised campaign spec"):
        load_campaign(str(tmp_path / "spec.txt"))


# ----------------------------------------------------------------------
# Stable cell identity
# ----------------------------------------------------------------------
def test_cell_keys_agree_across_processes():
    """Two independent interpreters expanding the same spec agree
    byte-for-byte on every cell key (hash randomisation notwithstanding)."""
    prog = textwrap.dedent("""\
        from repro.api import Scenario
        from repro.campaign import Campaign
        from repro.middleware.adaptation import ADAPTATIONS
        camp = Campaign(Scenario(workload="greedy", n_frames=5,
                                 time_cap=30.0,
                                 adaptation=ADAPTATIONS["resolution"]),
                        axes={"transport": ["tcp", "iq"]}, seeds=2)
        print(",".join(c.key for c in camp.cells()))
    """)
    outs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hashseed)
        outs.append(subprocess.run(
            [sys.executable, "-c", prog], env=env, capture_output=True,
            text=True, check=True).stdout.strip())
    assert outs[0] == outs[1]
    assert len(outs[0].split(",")) == 4


def test_scenario_repr_renders_callables_deterministically():
    sc = Scenario(**TINY).replace(adaptation=resolution_default)
    text = repr(sc)
    assert "repro.middleware.adaptation.resolution_default" in text
    assert "0x" not in text


# ----------------------------------------------------------------------
# Execution: in-memory and store-backed
# ----------------------------------------------------------------------
def test_run_campaign_in_memory():
    run = run_campaign(_tiny_campaign(), cache=False)
    assert run.complete and len(run.results) == 4
    report = run.report()
    assert report.done == 4 and report.failed == 0
    assert "transport" in report.axes


def test_two_workers_split_campaign_no_duplicate_executions(tmp_path):
    camp = _tiny_campaign(seeds=3)
    run = run_campaign(camp, dir=tmp_path / "camp", workers=2, cache=False)
    assert run.complete
    # How the cells split between the two workers is timing-dependent and
    # not asserted; the sum is.
    assert sum(_done_counts(tmp_path / "camp")) == len(camp)
    assert not (tmp_path / "camp" / "journal").exists()
    assert len(list((tmp_path / "camp" / "cells").iterdir())) == len(camp)


def test_rerun_serves_from_store_without_reexecuting(tmp_path):
    camp = _tiny_campaign()
    r1 = run_campaign(camp, dir=tmp_path / "camp", workers=1, cache=False)
    assert sum(_done_counts(tmp_path / "camp")) == len(camp)
    shutil.rmtree(tmp_path / "camp" / "heartbeats")
    r2 = run_campaign(camp, dir=tmp_path / "camp", workers=1, cache=False)
    assert _done_counts(tmp_path / "camp") == [0]  # nothing re-executed
    assert r1.report().to_json() == r2.report().to_json()


def test_campaign_dir_rejects_different_campaign(tmp_path):
    run_campaign(_tiny_campaign(), dir=tmp_path / "camp", cache=False)
    with pytest.raises(ValueError, match="different cell set"):
        run_campaign(_tiny_campaign(seeds=3), dir=tmp_path / "camp",
                     cache=False)


def test_campaign_dir_rejects_other_code_version(tmp_path, monkeypatch):
    from repro.campaign import store as store_mod
    from repro.cli import main
    run_campaign(_tiny_campaign(), dir=tmp_path / "camp", cache=False)
    manifest = json.loads((tmp_path / "camp" / "manifest.json").read_text())
    assert manifest["version"] == 2
    assert manifest["code_salt"] == store_mod.code_salt()
    monkeypatch.setattr(store_mod, "code_salt", lambda: "f" * 64)
    with pytest.raises(ValueError, match=r"code version .*ffffffffffff.*"
                                         r"fresh directory") as ei:
        run_campaign(_tiny_campaign(), dir=tmp_path / "camp", cache=False)
    assert manifest["code_salt"][:12] in str(ei.value)
    # Read-only views of the directory keep working under the new code.
    assert CampaignStore(tmp_path / "camp").status()["done"] == 4
    assert main(["campaign", "status", str(tmp_path / "camp")]) == 0


def test_failures_captured_and_aggregated(tmp_path):
    # queue_pkts=0 raises at run time -> deterministic "error" cells.
    camp = Campaign(Scenario(**TINY), name="mixed",
                    axes={"queue_pkts": [64, 0]}, seeds=2)
    run = run_campaign(camp, dir=tmp_path / "camp", cache=False)
    assert run.complete
    report = run.report()
    assert report.failed == 2
    assert report.failures.get("error") == 2
    assert report.as_dict()["cells"]["ok"] == 2
    prom = report.render_prometheus()
    assert 'repro_campaign_failures{kind="error"} 2' in prom


def test_interrupt_then_resume_is_byte_identical(tmp_path):
    """Partial run (half the store prefilled is equivalent to a worker
    having died mid-campaign), then resume; the final report must be
    byte-identical to an uninterrupted run elsewhere."""
    camp = _tiny_campaign(seeds=3)
    cells = camp.cells()

    # Partial: execute only the first half by hand.
    store = CampaignStore(tmp_path / "partial")
    store.init(camp)
    from repro.runner.pool import run_one
    for cell in cells[:len(cells) // 2]:
        store.store_cell(cell.key, run_one(cell.config, cache=False))
    partial = aggregate(camp, {c.key: store.load_cell(c.key)
                               for c in cells if store.load_cell(c.key)})
    assert not partial.complete

    resumed = run_campaign(camp, dir=tmp_path / "partial", cache=False)
    fresh = run_campaign(camp, dir=tmp_path / "fresh", cache=False)
    assert resumed.report().to_json() == fresh.report().to_json()


def test_sigint_mid_campaign_then_resume(tmp_path):
    """Real SIGINT against a running campaign process; the resume completes
    and reports byte-identically to an undisturbed campaign."""
    camp_dir = tmp_path / "camp"
    prog = textwrap.dedent(f"""\
        import sys
        from repro.api import Scenario
        from repro.campaign import run_campaign, Campaign
        camp = Campaign(Scenario(workload="greedy", n_frames=400,
                                 time_cap=30.0),
                        name="sig", axes={{"transport": ["tcp", "iq"]}},
                        seeds=6)
        run_campaign(camp, dir={str(camp_dir)!r}, workers=1, cache=False)
        print("DONE")
    """)
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_PROGRESS="0")
    proc = subprocess.Popen([sys.executable, "-c", prog], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # Wait until at least one cell result landed, then interrupt.
    store = CampaignStore(camp_dir)
    deadline = time.time() + 60
    while time.time() < deadline and len(store.done_keys()) < 1:
        time.sleep(0.02)
        if proc.poll() is not None:
            break
    assert len(store.done_keys()) >= 1, proc.communicate()
    proc.send_signal(signal.SIGINT)
    proc.wait(timeout=60)
    assert proc.returncode != 0  # interrupted, not finished

    camp = Campaign(Scenario(workload="greedy", n_frames=400,
                             time_cap=30.0),
                    name="sig", axes={"transport": ["tcp", "iq"]}, seeds=6)
    assert len(store.done_keys()) < len(camp)  # genuinely partial
    resumed = run_campaign(camp, dir=camp_dir, cache=False)
    fresh = run_campaign(camp, dir=tmp_path / "fresh", cache=False)
    assert resumed.complete
    assert resumed.report().to_json() == fresh.report().to_json()


def test_torn_cell_file_is_healed_on_rerun(tmp_path):
    """A cell result file that exists but does not unpickle (torn write)
    must be re-executed, not skipped-on-existence forever."""
    camp = _tiny_campaign()
    cells = camp.cells()
    r1 = run_campaign(camp, dir=tmp_path / "camp", cache=False)
    victim = CampaignStore(tmp_path / "camp").cell_path(cells[0].key)
    victim.write_bytes(victim.read_bytes()[:10])
    r2 = run_campaign(camp, dir=tmp_path / "camp", cache=False)
    assert r2.complete
    assert r1.report().to_json() == r2.report().to_json()


def test_dead_worker_lease_is_reclaimed(tmp_path):
    camp = _tiny_campaign()
    cells = camp.cells()
    store = CampaignStore(tmp_path / "camp", worker="survivor",
                          lease_s=0.2)
    store.init(camp)
    # A "dead" worker claimed the first cell and never released it.
    dead = CampaignStore(tmp_path / "camp", worker="dead", lease_s=0.2)
    assert dead.try_claim(cells[0].key)
    # While the lease lives, the survivor cannot take the cell...
    assert not store.try_claim(cells[0].key)
    time.sleep(0.25)
    # ...after expiry it steals and the campaign completes.
    run = run_campaign(camp, dir=tmp_path / "camp", cache=False,
                       lease_s=0.2)
    assert run.complete
    claim = store.read_claim(cells[0].key)
    assert claim is None  # released after the steal finished the cell


def test_live_lease_blocks_and_leaves_campaign_incomplete(tmp_path):
    camp = _tiny_campaign()
    cells = camp.cells()
    holder = CampaignStore(tmp_path / "camp", worker="holder",
                           lease_s=3600.0)
    holder.init(camp)
    assert holder.try_claim(cells[0].key)
    run = run_campaign(camp, dir=tmp_path / "camp", cache=False)
    assert not run.complete
    assert [c.key for c in run.incomplete] == [cells[0].key]


# ----------------------------------------------------------------------
# run_rows bridge (tables/dynamics routing)
# ----------------------------------------------------------------------
def test_run_rows_without_dir_matches_run_batch():
    from repro.runner import run_batch
    rows = {"tcp": ScenarioConfig(**TINY).replace(transport="tcp"),
            "iq": ScenarioConfig(**TINY).replace(transport="iq")}
    a = run_rows(rows, name="t", cache=False)
    b = run_batch(rows, cache=False)
    assert list(a) == list(b) == ["tcp", "iq"]
    assert a["tcp"].summary == b["tcp"].summary


def test_run_rows_with_dir_keys_results_like_legacy(tmp_path):
    rows = {"tcp": ScenarioConfig(**TINY).replace(transport="tcp"),
            ("iq", 2): ScenarioConfig(**TINY).replace(transport="iq")}
    got = run_rows(rows, name="t", dir=tmp_path / "camp", cache=False)
    assert list(got) == ["tcp", ("iq", 2)]
    assert sum(_done_counts(tmp_path / "camp")) == 2
    shutil.rmtree(tmp_path / "camp" / "heartbeats")
    # Second pass re-executes nothing and returns identical summaries.
    again = run_rows(rows, name="t", dir=tmp_path / "camp", cache=False)
    assert _done_counts(tmp_path / "camp") == [0]
    assert again["tcp"].summary == got["tcp"].summary


def test_run_rows_rejects_trace_with_dir(tmp_path):
    rows = {"tcp": ScenarioConfig(**TINY)}
    with pytest.raises(ValueError, match="trace"):
        run_rows(rows, name="t", dir=tmp_path / "camp", trace="t.jsonl")


def test_table_bench_accepts_campaign_dir(tmp_path):
    from repro.experiments import baseline
    res = baseline.run_table2(n_frames=5, cache=False,
                              campaign_dir=str(tmp_path / "camp"))
    assert list(res) == ["TCP", "IQ-RUDP"]
    assert (tmp_path / "camp" / "manifest.json").exists()


# ----------------------------------------------------------------------
# Aggregation determinism
# ----------------------------------------------------------------------
def test_report_json_has_no_wallclock(tmp_path):
    run = run_campaign(_tiny_campaign(), dir=tmp_path / "c", cache=False)
    payload = run.report().to_json()
    # Nothing epoch-like anywhere: resume byte-identity depends on it.
    assert "claimed_at" not in payload and "expires_at" not in payload
    decoded = json.loads(payload)
    assert decoded["cells"]["total"] == 4


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _write_spec(tmp_path):
    spec = tmp_path / "spec.toml"
    spec.write_text(textwrap.dedent("""\
        name = "cli"
        [template]
        workload = "greedy"
        n_frames = 5
        time_cap = 30.0
        [axes]
        transport = ["tcp", "iq"]
        [seeds]
        count = 2
    """))
    return spec


def test_campaign_cli_run_status_report(tmp_path, capsys, monkeypatch):
    from repro.cli import main
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    spec = _write_spec(tmp_path)
    camp_dir = str(tmp_path / "camp")
    assert main(["campaign", "run", str(spec), "--dir", camp_dir]) == 0
    out = capsys.readouterr().out
    assert "4/4 cells done" in out

    assert main(["campaign", "status", camp_dir]) == 0
    assert "4/4 done" in capsys.readouterr().out

    assert main(["campaign", "resume", camp_dir]) == 0
    capsys.readouterr()

    assert main(["campaign", "report", camp_dir, "--json"]) == 0
    decoded = json.loads(capsys.readouterr().out)
    assert decoded["cells"] == {"total": 4, "done": 4, "ok": 4,
                                "failed": 0, "pending": 0}

    assert main(["campaign", "report", camp_dir, "--prom"]) == 0
    assert 'repro_campaign_cells{state="done"} 4' in capsys.readouterr().out


def test_campaign_cli_set_overrides_template(tmp_path, capsys, monkeypatch):
    from repro.cli import main
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_PROGRESS", "0")
    spec = _write_spec(tmp_path)
    assert main(["campaign", "run", str(spec), "--set", "n_frames=3"]) == 0
    assert "4/4 cells done" in capsys.readouterr().out


def test_campaign_cli_errors_are_exit_2(tmp_path, capsys):
    from repro.cli import main
    assert main(["campaign", "status", str(tmp_path / "nope")]) == 2
    assert "no campaign manifest" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Acceptance: >= 200 cells, 2 workers, no duplicates, cache-served re-run
# ----------------------------------------------------------------------
def test_acceptance_200_cell_campaign_two_workers(tmp_path):
    camp = Campaign(
        Scenario(workload="greedy", n_frames=2, time_cap=30.0),
        name="acceptance",
        axes={"bottleneck_bps": [4e6 + i * 1e6 for i in range(9)],
              "rtt_s": [0.01 + 0.01 * i for i in range(8)]},
        seeds=3)
    assert len(camp) == 216
    cache = ResultsCache(tmp_path / "cache")
    run = run_campaign(camp, dir=tmp_path / "camp", workers=2, cache=cache)
    assert run.complete
    assert sum(_done_counts(tmp_path / "camp")) == 216  # none ran twice
    # Immediate re-run in a fresh directory: served from the results cache
    # (single in-process worker so the hit counter is observable here).
    cache2 = ResultsCache(tmp_path / "cache")
    rerun = run_campaign(camp, dir=tmp_path / "camp2", workers=1,
                         cache=cache2)
    assert rerun.complete
    assert cache2.hits >= 216
    assert run.report().to_json() == rerun.report().to_json()
