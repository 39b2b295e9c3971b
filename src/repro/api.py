"""Stable public API facade.

Everything a library user needs for "configure a scenario, run it, look at
the result" lives here, decoupled from the internal module layout (which
this package is free to keep refactoring):

    from repro.api import Scenario, run, sweep, load_result

    res = run(Scenario(transport="iq", workload="greedy", cbr_bps=16e6))
    print(res.summary["duration_s"])

Campaigns scale the same facade up: :func:`load_campaign` turns a spec
(TOML/YAML/JSON/dict: template x axes x seeds) into a
:class:`~repro.campaign.Campaign`, and :func:`run_campaign` executes it --
in-memory, or across worker processes/hosts splitting a shared campaign
directory via claim/lease work stealing::

    run = run_campaign("spec.toml", dir="camp/", workers=4)
    print(run.report().render())

:class:`Scenario` is a keyword-only, validated wrapper over the internal
:class:`~repro.experiments.common.ScenarioConfig`; unknown fields fail at
construction with a close-match suggestion instead of silently configuring
nothing.  :func:`run` and :func:`sweep` go through the batch runner, so
they share its persistent results cache, process-pool fan-out and JSONL
tracing.  :func:`load_result` reads a pickled result back (the cache's
``.pkl`` format, or anything ``pickle.dump``-ed from a ``ScenarioResult``).
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import Any, Iterable, Mapping

from .experiments.common import ScenarioConfig, ScenarioResult
from .faults import FaultSchedule  # noqa: F401  (re-export: schedules are config)
from .invariants import InvariantViolation  # noqa: F401  (re-export)
from .obs.telemetry import TelemetryConfig  # noqa: F401  (re-export: config)
from .runner.failures import (  # noqa: F401  (re-export: resilient sweeps)
    BatchExecutionError, FailedResult)
from .runner.hashing import callable_token

__all__ = ["Scenario", "ScenarioResult", "FaultSchedule", "TelemetryConfig",
           "FailedResult", "BatchExecutionError", "InvariantViolation",
           "run", "sweep", "load_result",
           "Campaign", "run_campaign", "load_campaign"]


class Scenario:
    """Validated, immutable-by-convention scenario description.

    All parameters are keyword-only and map one-to-one onto
    :class:`~repro.experiments.common.ScenarioConfig` fields (``transport``,
    ``workload``, ``adaptation``, ``cbr_bps``, ``faults``, ``seed``, ...).
    Validation -- unknown-field rejection with a did-you-mean hint, value
    checks -- happens at construction, so a `Scenario` that exists can run.
    """

    __slots__ = ("config",)

    def __init__(self, **fields: Any) -> None:
        # Route through replace() on a default config: it owns the
        # unknown-key diagnostics and ScenarioConfig.__init__ the value
        # validation, so the facade adds no second validation dialect.
        object.__setattr__(self, "config", ScenarioConfig().replace(**fields))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            "Scenario is immutable; use scenario.replace(...) to derive a "
            "modified copy")

    def __getattr__(self, name: str) -> Any:
        try:
            return getattr(object.__getattribute__(self, "config"), name)
        except AttributeError:
            raise AttributeError(
                f"{type(self).__name__!s} has no field {name!r}") from None

    def replace(self, **fields: Any) -> "Scenario":
        """Copy with overrides; unknown fields are rejected with a hint."""
        out = object.__new__(Scenario)
        object.__setattr__(out, "config", self.config.replace(**fields))
        return out

    def __repr__(self) -> str:
        cfg = self.config
        defaults = ScenarioConfig().__dict__
        diff = {k: v for k, v in cfg.__dict__.items()
                if defaults.get(k) != v}
        inner = ", ".join(f"{k}={_field_repr(v)}" for k, v in diff.items())
        return f"Scenario({inner})"


def _field_repr(value: Any) -> str:
    """Deterministic field rendering for ``Scenario.__repr__``.

    Callable fields (adaptation factories) render as their dotted import
    name instead of ``<function ... at 0x7f...>`` -- two processes must
    print the same scenario identically (campaign cell identity depends on
    the same property via :func:`repro.campaign.cell_key`).
    """
    if callable(value):
        token = callable_token(value)
        if token is not None:
            return token
    return repr(value)


def _as_config(scenario: Scenario | ScenarioConfig) -> ScenarioConfig:
    if isinstance(scenario, Scenario):
        return scenario.config
    if isinstance(scenario, ScenarioConfig):
        return scenario
    raise TypeError(f"expected a Scenario (or ScenarioConfig), "
                    f"got {type(scenario).__name__}")


def run(scenario: Scenario | ScenarioConfig, *,
        cache=None, trace: str | None = None) -> ScenarioResult:
    """Execute one scenario and return its :class:`ScenarioResult`.

    Goes through the batch runner: results are served from the persistent
    cache when the identical configuration has run before (disable with
    ``cache=False`` or ``REPRO_NO_CACHE=1``), and ``trace`` names a
    JSONL(.gz) file to record the run's full event stream into.
    """
    from .runner import run_one
    return run_one(_as_config(scenario), cache=cache, trace=trace)


def sweep(scenarios=None, /, *, jobs: int = 1, cache=None,
          trace: str | None = None, **resilience):
    """Run a batch of scenarios, optionally across ``jobs`` worker
    processes.

    ``scenarios`` is any collection of scenarios: a mapping returns
    ``{label: ScenarioResult}``, any other iterable (list, tuple,
    generator, ...) returns a list -- both in input (insertion) order.
    Common shapes::

        results = sweep({tp: base.replace(transport=tp)
                         for tp in ("iq", "rudp", "tcp")}, jobs=4)
        results = sweep(base.replace(seed=s) for s in range(20))

    Results are deterministic for any ``jobs`` value: every scenario
    derives all randomness from its own ``seed``.

    Resilience keywords (``on_error="capture"``, ``timeout``, ``retries``,
    ``retry_backoff_s``) pass through to
    :func:`repro.runner.run_batch`; with ``on_error="capture"`` failed
    slots hold :class:`FailedResult` rows instead of raising.

    .. deprecated::
        the old keyword form ``sweep(scenarios={...})`` still works but
        warns; pass the collection positionally.
    """
    if "scenarios" in resilience:
        if scenarios is not None:
            raise TypeError("sweep() got scenarios both positionally and "
                            "by keyword")
        scenarios = resilience.pop("scenarios")
        warnings.warn("sweep(scenarios=...) by keyword is deprecated; pass "
                      "the collection positionally: sweep({...}, jobs=...)",
                      DeprecationWarning, stacklevel=2)
    if scenarios is None:
        raise TypeError("sweep() missing required argument: a mapping or "
                        "iterable of scenarios")
    if isinstance(scenarios, (Scenario, ScenarioConfig)):
        raise TypeError("sweep() takes a collection of scenarios; for a "
                        "single scenario use run()")
    from .runner import run_batch
    if isinstance(scenarios, Mapping):
        configs = {label: _as_config(sc) for label, sc in scenarios.items()}
    else:
        if not isinstance(scenarios, Iterable):
            raise TypeError(f"sweep() needs a mapping or iterable of "
                            f"scenarios, got {type(scenarios).__name__}")
        configs = [_as_config(sc) for sc in scenarios]
    return run_batch(configs, jobs=jobs, cache=cache, trace=trace,
                     **resilience)


def load_campaign(source) -> "Any":
    """Load a :class:`~repro.campaign.Campaign` from a spec mapping or a
    ``.toml``/``.yaml``/``.json`` spec file.  Validation routes through
    :class:`Scenario`, so axis typos fail with the same did-you-mean
    dialect as every other entry point."""
    from .campaign import load_campaign as _load
    return _load(source)


def run_campaign(campaign, *, dir=None, workers: int = 1, cache=None,
                 timeout: float | None = None, retries: int = 0,
                 **kw) -> "Any":
    """Execute a campaign (a :class:`~repro.campaign.Campaign`, spec
    mapping or spec-file path); returns a
    :class:`~repro.campaign.CampaignRun`.

    With ``dir=None`` the expansion runs in-memory; with a campaign
    directory, ``workers`` processes split the cells via claim/lease work
    stealing, the run resumes after SIGINT, and additional hosts pointing
    at the same directory join in.  See :mod:`repro.campaign`.
    """
    from .campaign import run_campaign as _run
    return _run(campaign, dir=dir, workers=workers, cache=cache,
                timeout=timeout, retries=retries, **kw)


def __getattr__(name: str) -> Any:
    # Lazy re-exports: repro.campaign imports Scenario from this module,
    # so the campaign classes resolve on first touch instead of at import.
    if name in ("Campaign", "CampaignCell", "CampaignReport", "CampaignRun"):
        from . import campaign
        return getattr(campaign, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def load_result(path: str | os.PathLike) -> ScenarioResult:
    """Load a pickled :class:`ScenarioResult` (e.g. a results-cache
    ``.pkl`` entry) and type-check it.

    Raises ``FileNotFoundError`` for a missing file and ``TypeError`` when
    the pickle holds something other than a scenario result -- loading an
    arbitrary experiment artifact through this accessor is a bug, not a
    result.
    """
    with open(path, "rb") as fh:
        value = pickle.load(fh)
    if not isinstance(value, ScenarioResult):
        raise TypeError(
            f"{os.fspath(path)!r} holds {type(value).__name__}, not a "
            f"ScenarioResult; was it written by the results cache?")
    return value
