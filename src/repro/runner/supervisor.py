"""One-shot worker-process supervision: timeouts, retries, SIGINT draining.

``ProcessPoolExecutor`` cannot kill an individual hung worker -- a stuck
``map`` call wedges the whole batch, and one dead worker poisons the pool.
The resilient batch path therefore runs each scenario in its own one-shot
``multiprocessing.Process`` connected by a pipe:

* a scenario that **raises** reports a classified failure message through
  the pipe (crash isolation);
* a scenario that **hangs** past its wall-clock budget is sent SIGTERM
  (which the child converts to :class:`TimeoutKilled`, giving
  ``run_scenario`` a moment to report its flight-recorder dump through
  the pipe), then killed (``SIGKILL``) and classified ``"timeout"``;
* a worker that **dies silently** (OOM kill, interpreter abort) is
  detected by pipe EOF and classified ``"worker-lost"``;
* transient kinds are **retried** with exponential backoff, bounded by
  ``retries``, without blocking the rest of the batch (a backoff is a
  ready-time in a heap, not a sleep);
* **SIGINT** drains gracefully: running workers are killed, finished
  scenarios keep their results, unfinished slots become
  ``FailedResult(kind="interrupted")``.

Scenario results are deterministic functions of their config, so the
supervisor's scheduling freedom (completion order, retries) can never
change what a successful batch returns.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import signal
import time as _time
import traceback
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable

from ..invariants import InvariantViolation
from .failures import FailedResult, TRANSIENT_KINDS

__all__ = ["run_supervised", "describe_config", "classify_exception",
           "TimeoutKilled"]

#: Grace period between SIGTERM and SIGKILL on a timed-out worker: long
#: enough for the child to unwind through ``run_scenario`` and send its
#: flight dump, short enough not to stall the batch.
_TERM_GRACE_S = 1.0


class TimeoutKilled(BaseException):
    """Raised inside a timed-out worker by its SIGTERM handler.

    A ``BaseException`` (like ``KeyboardInterrupt``) so ordinary
    ``except Exception`` recovery blocks in scenario code cannot swallow
    the kill; ``run_scenario``'s forensics wrapper still sees it pass by
    and attaches the flight dump for the failure report.
    """


def describe_config(cfg) -> str:
    """Short triage label for failure rows."""
    return f"{cfg.transport}/{cfg.workload}/seed={cfg.seed}"


def classify_exception(exc: BaseException) -> str:
    """Failure kind for a raised exception (see :mod:`.failures`)."""
    if isinstance(exc, TimeoutKilled):
        return "timeout"
    return "invariant" if isinstance(exc, InvariantViolation) else "error"


def _child_main(conn, worker: Callable, cfg) -> None:
    """Worker-process entry: run one scenario, report through the pipe.

    The failure tuple's last element is the flight-recorder dump
    ``run_scenario`` attached to the exception (None when recording is
    disabled or the crash happened outside the scenario)."""

    def _on_term(signum, frame):
        raise TimeoutKilled("killed at wall-clock timeout")

    try:
        signal.signal(signal.SIGTERM, _on_term)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    try:
        res = worker(cfg)
    except BaseException as exc:
        conn.send(("fail", classify_exception(exc), type(exc).__name__,
                   str(exc), traceback.format_exc(),
                   getattr(exc, "flight_dump", None)))
    else:
        try:
            conn.send(("ok", res))
        except Exception as exc:
            # Result not picklable: report as a deterministic error rather
            # than dying silently (which would read as worker-lost).
            conn.send(("fail", "error", type(exc).__name__,
                       f"result not transferable: {exc}",
                       traceback.format_exc(),
                       getattr(res, "flight", None)))
    finally:
        conn.close()


class _Job:
    __slots__ = ("index", "cfg", "attempts")

    def __init__(self, index: int, cfg) -> None:
        self.index = index
        self.cfg = cfg
        self.attempts = 0


def run_supervised(tasks, worker: Callable, *, jobs: int = 1,
                   timeout: float | None = None, retries: int = 0,
                   retry_backoff_s: float = 0.05,
                   on_result: Callable[[int, Any], None],
                   ) -> bool:
    """Run ``tasks`` (an iterable of ``(index, cfg)``) through supervised
    one-shot worker processes.

    ``on_result(index, outcome)`` receives each task's final (non-retried)
    outcome -- a scenario result or :class:`FailedResult` -- as it lands;
    every task gets exactly one call, interrupted ones included.  Returns
    True when a SIGINT drained the run.
    """
    ctx = mp.get_context()
    slots = max(int(jobs or 1), 1)

    # Ready heap: (ready_at, tiebreak, job).  Backoffs are future
    # ready-times, so retrying one scenario never stalls the others.
    ready: list[tuple[float, int, _Job]] = []
    order = 0
    for index, cfg in tasks:
        heapq.heappush(ready, (0.0, order, _Job(index, cfg)))
        order += 1

    # conn -> (process, job, deadline, started_at)
    running: dict[Any, tuple[Any, _Job, float | None, float]] = {}

    def _finish(job: _Job, value: Any) -> None:
        on_result(job.index, value)

    def _fail_or_retry(job: _Job, kind: str, message: str,
                       elapsed: float, flight=None) -> None:
        nonlocal order
        if kind in TRANSIENT_KINDS and job.attempts <= retries:
            delay = retry_backoff_s * (2 ** (job.attempts - 1))
            heapq.heappush(ready,
                           (_time.monotonic() + delay, order, job))
            order += 1
            return
        _finish(job, FailedResult(kind=kind, message=message,
                                  attempts=job.attempts, elapsed_s=elapsed,
                                  scenario=describe_config(job.cfg),
                                  flight=flight))

    def _kill(proc, conn) -> None:
        try:
            proc.kill()
        except Exception:
            pass
        proc.join()
        conn.close()

    def _terminate_collect(proc, conn):
        """SIGTERM a timed-out worker, give it a grace period to unwind
        and report its flight dump, then hard-kill regardless.  Returns
        the dump or None."""
        flight = None
        try:
            proc.terminate()
            if conn.poll(_TERM_GRACE_S):
                msg = conn.recv()
                if msg and msg[0] == "fail" and len(msg) >= 6:
                    flight = msg[5]
        except Exception:
            pass  # a worker too wedged to report still gets killed
        _kill(proc, conn)
        return flight

    try:
        while ready or running:
            now = _time.monotonic()
            while ready and len(running) < slots and ready[0][0] <= now:
                _, _, job = heapq.heappop(ready)
                job.attempts += 1
                r_conn, w_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_child_main,
                                   args=(w_conn, worker, job.cfg),
                                   daemon=True)
                proc.start()
                w_conn.close()  # child holds the only writer now
                deadline = now + timeout if timeout is not None else None
                running[r_conn] = (proc, job, deadline, now)

            if not running:
                # Everything left is backing off; sleep to the nearest.
                _time.sleep(max(ready[0][0] - _time.monotonic(), 0.0))
                continue

            # Wake at the nearest deadline or backoff expiry, whichever
            # comes first; None blocks until some worker reports.
            nearest: float | None = None
            for _, _, deadline, _ in running.values():
                if deadline is not None:
                    nearest = (deadline if nearest is None
                               else min(nearest, deadline))
            if ready and len(running) < slots:
                nearest = (ready[0][0] if nearest is None
                           else min(nearest, ready[0][0]))
            wait_s = (None if nearest is None
                      else max(nearest - _time.monotonic(), 0.0))
            done = _conn_wait(list(running), timeout=wait_s)

            now = _time.monotonic()
            for conn in done:
                proc, job, _, started = running.pop(conn)
                try:
                    msg = conn.recv()
                except Exception:
                    msg = None  # pipe EOF/garbage: the worker died on us
                conn.close()
                proc.join()
                elapsed = now - started
                if msg is None:
                    _fail_or_retry(job, "worker-lost",
                                   "worker process died without reporting "
                                   f"(exit code {proc.exitcode})", elapsed)
                elif msg[0] == "ok":
                    _finish(job, msg[1])
                else:
                    _, kind, etype, emsg, tb, flight = msg
                    _finish(job, FailedResult(
                        kind=kind, error_type=etype, message=emsg,
                        traceback=tb, attempts=job.attempts,
                        elapsed_s=elapsed,
                        scenario=describe_config(job.cfg), flight=flight))

            for conn in [c for c, (_, _, dl, _) in running.items()
                         if dl is not None and now >= dl]:
                proc, job, _, started = running.pop(conn)
                flight = _terminate_collect(proc, conn)
                _fail_or_retry(job, "timeout",
                               f"exceeded {timeout:g}s wall-clock budget",
                               now - started, flight=flight)
    except KeyboardInterrupt:
        for conn, (proc, job, _, _) in running.items():
            _kill(proc, conn)
            _finish(job, FailedResult(kind="interrupted", attempts=job.attempts,
                                      scenario=describe_config(job.cfg)))
        while ready:
            _, _, job = heapq.heappop(ready)
            _finish(job, FailedResult(kind="interrupted", attempts=job.attempts,
                                      scenario=describe_config(job.cfg)))
        return True
    return False
