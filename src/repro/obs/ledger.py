"""Persistent cross-run ledger + rolling-window regression sentinels.

Every completed scenario batch row, campaign and bench produces summary
metrics -- and until now they evaporated with the process (the one
exception, ``bench_perf.json``, is overwritten on every rerun and judged
against a single frozen baseline).  The ledger gives runs longitudinal
memory:

* :class:`RunLedger` -- an append-only JSONL file (``ledger.jsonl``
  under :data:`REPRO_LEDGER_DIR <LEDGER_ENV>`) where each line is one
  finished run: kind (``scenario``/``campaign``/``bench``), a caller
  key, config fingerprint, code salt, summary metrics and timings.
  Appends are a single ``O_APPEND`` write of one complete line, so
  concurrent writers (pool workers, parallel benches) interleave at line
  granularity and never interleave *within* a line; the reader skips a
  torn tail.  Replay is
  deterministic: reading a ledger back yields exactly the records that
  were appended, in append order.
* :func:`record_run` -- the armed-only convenience every producer calls:
  a no-op (one env lookup) unless ``REPRO_LEDGER_DIR`` is set, so
  disarmed paths stay byte-identical to pre-ledger behaviour.
* :func:`sentinel_verdicts` -- the regression sentinel: for each key,
  the newest run is compared against the **median of a rolling window**
  of its predecessors instead of one frozen baseline.  Direction is
  inferred from the metric name (``*_per_s``/``*_fps`` higher-better;
  ``*_pct``/``*_s``/``*_ns``/``*_ms`` lower-better; anything else is
  informational only) and each comparison yields a typed verdict:
  ``ok``, ``regression``, ``improved`` or ``insufficient-data``.

``repro history KEY`` and ``repro sentinel`` are the CLI front ends;
``benchmarks/check_regression.py`` runs the sentinel alongside the
static-baseline gate when a ledger is armed.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import socket
import time
import warnings
from typing import Any, Iterable, Mapping

from ..runner.hashing import code_salt

__all__ = [
    "LEDGER_ENV", "RunLedger", "ledger_dir", "ledger_enabled", "record_run",
    "metric_direction", "sentinel_verdicts", "render_sentinel",
    "render_history", "DEFAULT_WINDOW", "DEFAULT_TOLERANCE",
]

#: Environment variable naming the ledger directory; unset = disarmed.
LEDGER_ENV = "REPRO_LEDGER_DIR"

#: Rolling-window size the sentinel compares the newest run against.
DEFAULT_WINDOW = 5

#: Fractional drift beyond which a verdict stops being ``ok`` (0.10 =
#: 10%; well under the 20%-slowdown class of regression it must catch).
DEFAULT_TOLERANCE = 0.10

_warned_broken = False


def ledger_dir() -> str | None:
    """The armed ledger directory, or None when disarmed."""
    return os.environ.get(LEDGER_ENV) or None


def ledger_enabled() -> bool:
    return ledger_dir() is not None


class RunLedger:
    """Append-only JSONL record of finished runs (see module docstring)."""

    def __init__(self, root: "str | os.PathLike"):
        self.root = pathlib.Path(root)
        self.path = self.root / "ledger.jsonl"

    def append(self, *, kind: str, key: str,
               metrics: Mapping[str, Any],
               fingerprint: str | None = None,
               timings: Mapping[str, float] | None = None,
               t: float | None = None,
               host: str | None = None,
               salt: str | None = None) -> dict:
        """Append one run record; returns the record as written.

        ``t``/``host``/``salt`` default to wall clock, hostname and the
        package code salt -- injectable so tests can pin every byte.
        Only JSON-serialisable finite scalars survive into ``metrics``
        (the ledger is a trajectory store, not an artifact store).
        """
        record = {
            "v": 1,
            "kind": str(kind),
            "key": str(key),
            "t": float(t if t is not None else time.time()),
            "host": host if host is not None else socket.gethostname(),
            "code_salt": (salt if salt is not None else code_salt())[:16],
            "fingerprint": fingerprint,
            "metrics": _clean_metrics(metrics),
            "timings": _clean_metrics(timings or {}),
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                     0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
        return record

    def read(self, *, key: str | None = None,
             kind: str | None = None) -> list[dict]:
        """All records (append order), optionally filtered; a torn or
        foreign tail line is skipped, never raised."""
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read()
        except OSError:
            return []
        out: list[dict] = []
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict) or "key" not in record:
                continue
            if key is not None and record.get("key") != key:
                continue
            if kind is not None and record.get("kind") != kind:
                continue
            out.append(record)
        return out

    def keys(self, *, kind: str | None = None) -> list[str]:
        """Distinct record keys, first-appearance order."""
        seen: dict[str, None] = {}
        for record in self.read(kind=kind):
            seen.setdefault(record["key"], None)
        return list(seen)


def _clean_metrics(metrics: Mapping[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for name, value in metrics.items():
        if isinstance(value, bool):
            out[str(name)] = value
        elif isinstance(value, (int, float)):
            out[str(name)] = value if math.isfinite(value) else repr(value)
        elif isinstance(value, str):
            out[str(name)] = value
    return out


def record_run(kind: str, key: str, metrics: Mapping[str, Any],
               **kw) -> dict | None:
    """Append to the armed ledger; silent no-op when disarmed.

    Producer-facing wrapper: an OSError (read-only filesystem, full
    disk) degrades to a one-time :class:`RuntimeWarning` and the run
    continues unledgered -- longitudinal memory must never fail the run
    it is remembering.
    """
    root = ledger_dir()
    if root is None:
        return None
    global _warned_broken
    try:
        return RunLedger(root).append(kind=kind, key=key, metrics=metrics,
                                      **kw)
    except OSError as exc:
        if not _warned_broken:
            _warned_broken = True
            warnings.warn(f"run ledger at {root} is not writable ({exc}); "
                          f"continuing without longitudinal records",
                          RuntimeWarning, stacklevel=2)
        return None


# ---------------------------------------------------------------------------
# sentinel


def metric_direction(name: str) -> str | None:
    """Which way is better for ``name``: ``higher``, ``lower`` or None
    (informational).  Order matters: ``*_per_s`` is a rate even though it
    ends in ``_s``."""
    if name.endswith(("_per_s", "_fps", "_bps", "_speedup")):
        return "higher"
    if name.endswith(("_pct", "_s", "_ns", "_ms", "_us")):
        return "lower"
    return None


def _median(values: "list[float]") -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def sentinel_verdicts(records: Iterable[Mapping[str, Any]], *,
                      window: int = DEFAULT_WINDOW,
                      tolerance: float = DEFAULT_TOLERANCE,
                      metrics: Iterable[str] | None = None) -> list[dict]:
    """Judge the newest record per key against its rolling window.

    ``records`` is a single key's (or several keys') ledger slice in
    append order.  Per key: the newest record is the candidate, the up to
    ``window`` records before it are the reference pool, and every
    directional metric of the candidate is compared against the pool
    median with ``tolerance`` fractional slack.  Returns one verdict dict
    per (key, metric): ``{key, metric, verdict, newest, baseline,
    window_n, delta_pct}``; a key with no history yields a single
    ``insufficient-data`` verdict.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window!r}")
    if tolerance < 0:
        raise ValueError(f"tolerance cannot be negative, got {tolerance!r}")
    wanted = set(metrics) if metrics is not None else None
    by_key: dict[str, list[Mapping[str, Any]]] = {}
    for record in records:
        by_key.setdefault(record["key"], []).append(record)

    verdicts: list[dict] = []
    for key, history in by_key.items():
        newest = history[-1]
        pool = history[max(0, len(history) - 1 - window):-1]
        if not pool:
            verdicts.append({"key": key, "metric": None,
                             "verdict": "insufficient-data",
                             "newest": None, "baseline": None,
                             "window_n": 0, "delta_pct": None})
            continue
        for name in sorted(newest.get("metrics", {})):
            if wanted is not None and name not in wanted:
                continue
            direction = metric_direction(name)
            if direction is None:
                continue
            value = newest["metrics"][name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            prior = [r["metrics"][name] for r in pool
                     if isinstance(r.get("metrics", {}).get(name),
                                   (int, float))
                     and not isinstance(r["metrics"][name], bool)]
            if not prior:
                continue
            baseline = _median(prior)
            if baseline == 0:
                continue
            delta = (value - baseline) / abs(baseline)
            worse = -delta if direction == "higher" else delta
            if worse > tolerance:
                verdict = "regression"
            elif worse < -tolerance:
                verdict = "improved"
            else:
                verdict = "ok"
            verdicts.append({"key": key, "metric": name, "verdict": verdict,
                             "newest": value, "baseline": baseline,
                             "window_n": len(prior),
                             "delta_pct": round(100.0 * delta, 2)})
    return verdicts


def render_sentinel(verdicts: "list[dict]") -> str:
    """Monospace verdict table, regressions first."""
    from ..analysis.tables import render_table
    order = {"regression": 0, "improved": 1, "ok": 2,
             "insufficient-data": 3}
    rows = []
    for v in sorted(verdicts, key=lambda v: (order.get(v["verdict"], 9),
                                             v["key"], v["metric"] or "")):
        rows.append([v["key"], v["metric"] or "-", v["verdict"],
                     "-" if v["newest"] is None else f"{v['newest']:g}",
                     "-" if v["baseline"] is None else f"{v['baseline']:g}",
                     v["window_n"],
                     "-" if v["delta_pct"] is None
                     else f"{v['delta_pct']:+.1f}%"])
    n_reg = sum(1 for v in verdicts if v["verdict"] == "regression")
    title = (f"sentinel: {len(verdicts)} verdict(s), "
             f"{n_reg} regression(s)")
    if not rows:
        return title + " (no ledger history)"
    return render_table(("key", "metric", "verdict", "newest", "baseline",
                         "window", "delta"), rows, title=title)


# ---------------------------------------------------------------------------
# history

_SPARK = "._-=*#%@"


def _sparkline(values: "list[float]") -> str:
    lo, hi = min(values), max(values)
    if hi == lo:
        return _SPARK[0] * len(values)
    span = hi - lo
    return "".join(_SPARK[min(int((v - lo) / span * len(_SPARK)),
                              len(_SPARK) - 1)] for v in values)


def render_history(records: "list[Mapping[str, Any]]", *,
                   metrics: Iterable[str] | None = None,
                   limit: int | None = None) -> str:
    """Metric trajectories across a key's ledger records.

    One table row per run (newest last) plus a per-metric trend footer
    with an ASCII sparkline -- enough to see a trajectory in a terminal
    without plotting dependencies.
    """
    from ..analysis.tables import render_table
    if not records:
        return "no ledger records (is REPRO_LEDGER_DIR set and populated?)"
    if limit is not None and limit > 0:
        records = records[-limit:]
    if metrics is None:
        chosen = [name for name in sorted(records[-1].get("metrics", {}))
                  if isinstance(records[-1]["metrics"][name], (int, float))
                  and not isinstance(records[-1]["metrics"][name], bool)
                  and metric_direction(name) is not None]
        if not chosen:  # fall back to any numeric metric at all
            chosen = [name for name in sorted(records[-1].get("metrics", {}))
                      if isinstance(records[-1]["metrics"][name],
                                    (int, float))][:6]
        chosen = chosen[:6]
    else:
        chosen = list(metrics)
    rows = []
    for i, record in enumerate(records):
        when = time.strftime("%Y-%m-%d %H:%M:%S",
                             time.gmtime(record.get("t", 0.0)))
        row = [i, when, record.get("code_salt", "")[:8]]
        for name in chosen:
            value = record.get("metrics", {}).get(name)
            row.append("-" if not isinstance(value, (int, float))
                       or isinstance(value, bool) else f"{value:g}")
        rows.append(row)
    key = records[-1].get("key", "?")
    out = [render_table(("run", "when (utc)", "salt", *chosen), rows,
                        title=f"history: {key} ({len(records)} run(s))")]
    trends = []
    for name in chosen:
        series = [r["metrics"][name] for r in records
                  if isinstance(r.get("metrics", {}).get(name), (int, float))
                  and not isinstance(r["metrics"][name], bool)]
        if len(series) < 2:
            continue
        first, last = series[0], series[-1]
        delta = ((last - first) / abs(first) * 100.0) if first else 0.0
        trends.append(f"  {name}: {first:g} -> {last:g} ({delta:+.1f}%)  "
                      f"{_sparkline(series)}")
    if trends:
        out.append("")
        out.append("trend (oldest -> newest):")
        out.extend(trends)
    return "\n".join(out)
