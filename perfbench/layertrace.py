"""Per-layer tracing for the benchmark's traced pass.

The traced pass runs the same workload code as a measured pass, with
every phase wrapped by :meth:`LayerTracer.phase` instead of a plain timer.
A phase becomes a span and runs under ``cProfile``, which records every
Python call the program makes -- every engine-dispatched callback and
every call into a layer's functions -- with its caller, count and time.
Nothing in the program is modified; on ``sweep`` the campaign's worker
entry point is wrapped (in this process only) so each forked worker
profiles itself and becomes a child span of the phase.

Spans are real intervals -- ``name``, ``start``, ``end``, ``parent`` and
``pass_id`` -- kept in memory and written once, at the end.  A span's self
time is its duration minus the time its child spans cover.  Each leaf
span also carries the per-layer breakdown of its profiled time: a
function's own time (``tottime``) belongs to the layer of its module, and
time in code outside the package (stdlib, numpy) is charged to the layer
that called it.  Per-layer self times therefore sum to the profiled time.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import timer_phase

__all__ = ["LAYERS", "LAYER_NAMES", "LayerTracer", "calls_of", "edges_into",
           "func_key"]

#: Module prefix -> layer; the first matching prefix wins.
LAYERS = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.link", "sim.link"),
    ("repro.sim.queues", "sim.queues"),
    ("repro.sim.node", "sim.node"),
    ("repro.sim.topology", "sim.node"),
    ("repro.sim.packet", "sim.packet"),
    ("repro.sim.batch", "sim.batch"),
    ("repro.sim.fluid", "sim.fluid"),
    ("repro.traffic", "traffic"),
    ("repro.transport.fec", "transport.fec"),
    ("repro.transport", "transport"),
    ("repro.faults", "faults"),
    ("repro.core", "core.coordination"),
    ("repro.middleware", "middleware"),
    ("repro.obs", "obs"),
    ("repro.analysis", "analysis"),
    ("repro.experiments", "experiments"),
    ("repro.runner", "runner"),
    ("repro.campaign", "campaign"),
    ("repro", "other"),
)

#: Every layer a self time is reported for ("bench" is this directory).
LAYER_NAMES = tuple(dict.fromkeys(name for _, name in LAYERS)) + ("bench",)


def layer_of_module(module: str) -> str | None:
    for prefix, layer in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class _Classifier:
    """Maps profiler function keys ``(file, line, name)`` to layers."""

    def __init__(self, src: Path, bench: Path):
        self.src = str(src.resolve()) + os.sep
        self.bench = str(bench.resolve()) + os.sep
        self._memo: dict[str, str | None] = {}

    def __call__(self, filename: str) -> str | None:
        try:
            return self._memo[filename]
        except KeyError:
            pass
        path = os.path.abspath(filename)
        layer = None
        if path.startswith(self.src) and path.endswith(".py"):
            module = path[len(self.src):-3].replace(os.sep, ".")
            if module.endswith(".__init__"):
                module = module[:-9]
            layer = layer_of_module(module)
        elif path.startswith(self.bench):
            layer = "bench"
        self._memo[filename] = layer
        return layer


def attribute(stats: pstats.Stats, classify) -> tuple[dict, dict]:
    """Per-layer ``(self_s, calls_in)`` of one profile.

    ``calls_in`` counts calls whose callee is in a layer and whose caller
    is in another one -- the layer's entries.
    """
    table = stats.stats
    own = {func: classify(func[0]) for func in table}
    shares: dict = {}

    def share(func, active=frozenset()) -> dict:
        if own.get(func) is not None:
            return {own[func]: 1.0}
        if func in shares:
            return shares[func]
        callers = {c: v for c, v in table[func][4].items()
                   if c not in active} if func in table else {}
        total: dict = {}
        # Split by the time spent on behalf of each caller; by call
        # counts when that time is below the clock's resolution.
        weights = {c: v[2] for c, v in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: v[0] for c, v in callers.items()}
        norm = sum(weights.values())
        if norm <= 0:
            out = {"other": 1.0}
        else:
            for caller, w in weights.items():
                for layer, part in share(caller, active | {func}).items():
                    total[layer] = total.get(layer, 0.0) + part * w / norm
            out = total
        if not active:
            shares[func] = out
        return out

    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    calls = dict.fromkeys(LAYER_NAMES, 0)
    for func, (_cc, _nc, tt, _ct, callers) in table.items():
        layer = own[func]
        if layer is not None:
            self_s[layer] += tt
            for caller, (nc, _c, _t, _ct2) in callers.items():
                src = share(caller)
                if max(src, key=src.get) != layer:
                    calls[layer] += nc
        elif not callers:
            self_s["other"] += tt
        else:
            for caller, (_n, _c, ctt, _ct2) in callers.items():
                for lay, part in share(caller).items():
                    self_s[lay] = self_s.get(lay, 0.0) + ctt * part
            # Time not split over callers (rounding) stays with "other".
            rest = tt - sum(v[2] for v in callers.values())
            if rest > 0:
                self_s["other"] += rest
    return self_s, calls


class LayerTracer:
    """Collects spans and per-layer profiles for one traced pass."""

    #: A run traces one pass.
    pass_id = 1

    def __init__(self, *, src: Path, bench: Path, workdir: Path):
        self.classify = _Classifier(src, bench)
        self.workdir = Path(workdir)
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.stats: pstats.Stats | None = None   # all leaves merged
        self.claims: list[float] = []            # campaign claim offsets
        root = self._span("pass", None)
        self.root = root["id"]

    # -- spans ---------------------------------------------------------------
    def _span(self, name: str, parent, start=None) -> dict:
        now = time.perf_counter() - self.origin
        span = {"id": len(self.spans) + 1, "name": name, "parent": parent,
                "pass_id": self.pass_id,
                "start": now if start is None else start, "end": None}
        self.spans.append(span)
        return span

    def _leaf(self, span: dict, stats: pstats.Stats) -> None:
        self_s, calls = attribute(stats, self.classify)
        span["layers"] = {k: {"self_s": v, "calls": calls.get(k, 0)}
                          for k, v in self_s.items() if v or calls.get(k)}
        if self.stats is None:
            self.stats = stats
        else:
            self.stats.add(stats)

    @contextmanager
    def phase(self, name: str, *, workers: bool = False):
        """Span + profile around one phase of the pass.  With
        ``workers=True`` the phase's work runs in forked campaign workers:
        each profiles itself and becomes a child span."""
        span = self._span(name, self.root)
        if workers:
            restore = self._wrap_workers(span)
            try:
                with timer_phase(name) as timer:
                    yield timer
            finally:
                restore()
                span["end"] = time.perf_counter() - self.origin
                self._collect_workers(span)
            return
        prof = cProfile.Profile(builtins=False)
        try:
            with timer_phase(name) as timer:
                prof.enable()
                try:
                    yield timer
                finally:
                    prof.disable()
        finally:
            span["end"] = time.perf_counter() - self.origin
            self._leaf(span, pstats.Stats(prof))

    # -- campaign workers ----------------------------------------------------
    def _wrap_workers(self, span: dict):
        from repro.campaign import exec as campaign_exec
        original = campaign_exec._worker_main
        outdir = self.workdir / f"workers-{span['id']}"
        outdir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()

        def profiled_worker(*args, **kw):
            from repro.campaign.store import CampaignStore
            claims = []
            try_claim = CampaignStore.try_claim

            def claim(store, key):
                ok = try_claim(store, key)
                if ok:
                    claims.append(time.perf_counter() - start)
                return ok

            CampaignStore.try_claim = claim
            prof = cProfile.Profile(builtins=False)
            t0 = time.perf_counter()
            prof.enable()
            try:
                original(*args, **kw)
            finally:
                prof.disable()
                t1 = time.perf_counter()
                base = outdir / f"w{os.getpid()}"
                prof.dump_stats(f"{base}.prof")
                with open(f"{base}.json", "w") as fh:
                    json.dump({"start": t0, "end": t1, "claims": claims}, fh)

        campaign_exec._worker_main = profiled_worker

        def restore():
            campaign_exec._worker_main = original
        return restore

    def _collect_workers(self, span: dict) -> None:
        outdir = self.workdir / f"workers-{span['id']}"
        for meta_path in sorted(outdir.glob("w*.json")):
            with open(meta_path) as fh:
                meta = json.load(fh)
            child = self._span(f"worker.{meta_path.stem}", span["id"],
                               start=meta["start"] - self.origin)
            child["end"] = meta["end"] - self.origin
            self.claims += meta["claims"]
            self._leaf(child, pstats.Stats(str(meta_path.with_suffix(
                ".prof"))))

    # -- results -------------------------------------------------------------
    def finish(self) -> None:
        self.spans[0]["end"] = time.perf_counter() - self.origin
        children: dict = {}
        for span in self.spans:
            children.setdefault(span["parent"], []).append(span)
        for span in self.spans:
            span["self_s"] = span["end"] - span["start"] - _covered(
                span, children.get(span["id"], ()))

    def layer_totals(self) -> dict:
        """Per-layer self seconds summed over every leaf span."""
        total = dict.fromkeys(LAYER_NAMES, 0.0)
        for span in self.spans:
            for layer, row in span.get("layers", {}).items():
                total[layer] = total.get(layer, 0.0) + row["self_s"]
        return total

    def layer_calls(self) -> dict:
        """Per-layer entry counts summed over every leaf span."""
        total = dict.fromkeys(LAYER_NAMES, 0)
        for span in self.spans:
            for layer, row in span.get("layers", {}).items():
                total[layer] = total.get(layer, 0) + row["calls"]
        return total

    def profiled_s(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if "layers" in s)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh, indent=1)


def _covered(span: dict, kids) -> float:
    """Length of the union of the child intervals, clipped to ``span``."""
    lo, hi = span["start"], span["end"]
    intervals = sorted((max(k["start"], lo), min(k["end"], hi)) for k in kids)
    covered = 0.0
    cur_s = cur_e = None
    for s, e in intervals:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return covered


def func_key(fn) -> tuple:
    """The profiler's key for a Python function: (file, line, name)."""
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def calls_of(stats: pstats.Stats | None, fn) -> tuple[int, float]:
    """``(calls, cumulative seconds)`` of one function in a profile."""
    if stats is None:
        return 0, 0.0
    row = stats.stats.get(func_key(fn))
    return (row[1], row[3]) if row else (0, 0.0)


def edges_into(stats: pstats.Stats | None, callee_name: str | None = None,
               callee=None) -> list:
    """``[(caller_key, callee_key, calls, cumulative seconds)]`` for every
    call edge into ``callee`` (a function) or into any function named
    ``callee_name``."""
    out = []
    if stats is None:
        return out
    want = func_key(callee) if callee is not None else None
    for key, (*_, callers) in stats.stats.items():
        if want is not None and key != want:
            continue
        if callee_name is not None and key[2] != callee_name:
            continue
        for caller, (nc, _cc, _tt, ct) in callers.items():
            out.append((caller, key, nc, ct))
    return out
