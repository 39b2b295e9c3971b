"""Application-level adaptation strategies (the paper's three algorithms).

Each strategy owns the application-side adaptation state machine, registers
the error-ratio threshold callbacks on the connection, and describes its
adaptations as quality attributes.  Whether the transport *uses* those
attributes is decided by the connection's coordinator -- plain RUDP ignores
them ("the call-back returns void" behaviour), IQ-RUDP acts on them -- so
the identical application code runs in coordinated and uncoordinated
experiments, exactly as in the paper.

The three algorithms, verbatim from the evaluation section:

* :class:`MarkingAdaptation` (section 3.3): above 30% loss, "there is a
  tagged packet every five packets; for all other packets, there is a
  probability of max(40, (5/4)*eratio) [percent] of being unmarked"; each
  lower-threshold callback (5%) reduces the unmarking probability by 20%.
* :class:`ResolutionAdaptation` (section 3.4): above 15% loss, "instantly
  reduces packet size by a percentage equal to the error ratio"; at/below
  1% loss, "increases packet size by 10%".
* :class:`DelayedResolutionAdaptation` (section 3.5): same control law, but
  the change "can only start ... at the next application frame with a
  sequence number divisible by 20"; the callback immediately reports
  ``ADAPT_WHEN="pending"`` and the executed change is piggybacked, with
  ``ADAPT_COND``, on the boundary frame's send call.
* :class:`FrequencyAdaptation` (extension; described in section 2.3.2 but
  not evaluated): trades frame *rate* instead of frame *size*; coordination
  deliberately performs no window change for it.
"""

from __future__ import annotations

import random

from ..core.attributes import (ADAPT_COND, ADAPT_FEC, ADAPT_FREQ, ADAPT_MARK,
                               ADAPT_PKTSIZE, ADAPT_WHEN, AttributeSet)
from ..obs.bus import NULL_STREAM

__all__ = ["AdaptationStrategy", "NullAdaptation", "MarkingAdaptation",
           "ResolutionAdaptation", "DelayedResolutionAdaptation",
           "FrequencyAdaptation", "FecAdaptation"]


class AdaptationStrategy:
    """Base class; a strategy plugs into an :class:`~repro.middleware.
    application.AdaptiveSource`.

    Attributes
    ----------
    scale : current resolution scale in (0, 1]; the source multiplies frame
        sizes by it.
    freq_scale : current frequency scale in (0, 1]; the source divides its
        frame rate by it... strictly, multiplies the inter-frame interval by
        ``1/freq_scale``.
    per_datagram_marking : when True the source splits frames into
        MSS datagrams and asks :meth:`datagram_flags` for each.
    """

    per_datagram_marking = False
    upper = 0.15
    lower = 0.01

    def __init__(self) -> None:
        self.scale = 1.0
        self.freq_scale = 1.0
        self.upper_events = 0
        self.lower_events = 0
        self.events = NULL_STREAM
        self._flow = -1

    def bind(self, conn, rng: random.Random) -> None:
        """Register threshold callbacks on ``conn`` (a Rudp/IqRudp
        connection).  TCP connections have no callback registry; binding a
        strategy to one is an error the experiments guard against."""
        self._rng = rng
        self._bind_events(conn)
        conn.register_callbacks(upper=self.upper, lower=self.lower,
                                on_upper=self._on_upper,
                                on_lower=self._on_lower)

    def _bind_events(self, conn) -> None:
        sender = getattr(conn, "sender", None)
        if sender is not None:
            self.events = sender.events
            self._flow = sender.flow_id

    # -- hooks ------------------------------------------------------------
    def _adapt_action(self, trigger: str, eratio: float,
                      attrs: AttributeSet | None) -> None:
        ev = self.events
        if ev.adapt and attrs is not None:
            ev.emit("adapt", flow=self._flow, trigger=trigger,
                    error_ratio=eratio, scale=self.scale,
                    freq_scale=self.freq_scale, attrs=attrs.as_dict())

    def _on_upper(self, eratio: float, metrics: dict) -> AttributeSet | None:
        self.upper_events += 1
        out = self.on_upper(eratio, metrics)
        self._adapt_action("upper", eratio, out)
        return out

    def _on_lower(self, eratio: float, metrics: dict) -> AttributeSet | None:
        self.lower_events += 1
        out = self.on_lower(eratio, metrics)
        self._adapt_action("lower", eratio, out)
        return out

    def on_upper(self, eratio: float, metrics: dict) -> AttributeSet | None:
        return None

    def on_lower(self, eratio: float, metrics: dict) -> AttributeSet | None:
        return None

    def frame_attrs(self, index: int) -> AttributeSet | None:
        """Attributes to piggyback on frame ``index``'s send call (the
        delayed-adaptation path).  Called once per frame."""
        return None

    def datagram_flags(self, counter: int) -> tuple[bool, bool]:
        """(marked, tagged) for datagram number ``counter``."""
        return True, False


class NullAdaptation(AdaptationStrategy):
    """No application adaptation (Table 1's TCP / IQ-RUDP-alone rows)."""

    def bind(self, conn, rng: random.Random) -> None:
        self._rng = rng  # registers nothing
        self._bind_events(conn)


class MarkingAdaptation(AdaptationStrategy):
    """Reliability adaptation: unmark droppable packets under congestion.

    ``floor`` is the paper's 40% minimum unmarking probability; ``tag_every``
    the 1-in-5 control-information tagging.
    """

    per_datagram_marking = True
    upper = 0.30
    lower = 0.05

    def __init__(self, *, floor: float = 0.40, slope: float = 1.25,
                 tag_every: int = 5, backoff: float = 0.20,
                 max_unmark: float = 0.95,
                 upper: float = 0.30, lower: float = 0.05):
        super().__init__()
        if tag_every < 1:
            raise ValueError("tag_every must be >= 1")
        self.upper = upper
        self.lower = lower
        self.floor = floor
        self.slope = slope
        self.tag_every = tag_every
        self.backoff = backoff
        self.max_unmark = max_unmark
        self.unmark_p = 0.0

    def on_upper(self, eratio: float, metrics: dict) -> AttributeSet:
        self.unmark_p = min(max(self.floor, self.slope * eratio),
                            self.max_unmark)
        return AttributeSet({ADAPT_MARK: self.unmark_p, ADAPT_WHEN: "now"})

    def on_lower(self, eratio: float, metrics: dict) -> AttributeSet | None:
        if self.unmark_p == 0.0:
            return None
        self.unmark_p *= (1.0 - self.backoff)
        if self.unmark_p < 0.02:
            self.unmark_p = 0.0
        return AttributeSet({ADAPT_MARK: self.unmark_p, ADAPT_WHEN: "now"})

    def datagram_flags(self, counter: int) -> tuple[bool, bool]:
        if counter % self.tag_every == 0:
            return True, True  # control information: marked and tagged
        if self.unmark_p and self._rng.random() < self.unmark_p:
            return False, False
        return True, False


class ResolutionAdaptation(AdaptationStrategy):
    """Down-sampling: trade data resolution for timeliness (section 3.4)."""

    upper = 0.15
    lower = 0.01

    def __init__(self, *, increase: float = 0.10, min_scale: float = 0.1,
                 upper: float = 0.15, lower: float = 0.01,
                 cooldown_s: float = 2.0):
        super().__init__()
        if not 0 < min_scale <= 1:
            raise ValueError("min_scale must be in (0,1]")
        self.increase = increase
        self.min_scale = min_scale
        self.upper = upper
        self.lower = lower
        # One resolution cut per congestion episode: a loss burst spans
        # several measurement periods, and cutting (plus, under IQ-RUDP,
        # re-inflating the window) once per period would compound far past
        # the transport's own once-per-window reduction cadence.
        self.cooldown_s = cooldown_s
        self._next_cut_time = 0.0

    def _change_scale(self, new_scale: float, eratio: float, rate: float
                      ) -> AttributeSet | None:
        # At most halve per event: a measuring period where everything was
        # lost reads 100% and would otherwise zero the resolution outright.
        new_scale = min(max(new_scale, self.scale * 0.5, self.min_scale), 1.0)
        if new_scale == self.scale:
            return None
        rate_chg = 1.0 - new_scale / self.scale  # fractional size reduction
        self.scale = new_scale
        return AttributeSet({
            ADAPT_PKTSIZE: rate_chg,
            ADAPT_WHEN: "now",
            ADAPT_COND: {"error_ratio": eratio, "rate": rate},
        })

    def on_upper(self, eratio: float, metrics: dict) -> AttributeSet | None:
        now = metrics.get("time", 0.0)
        if now < self._next_cut_time:
            return None
        self._next_cut_time = now + self.cooldown_s
        return self._change_scale(self.scale * (1.0 - eratio), eratio,
                                  metrics.get("rate_bps", 0.0))

    def on_lower(self, eratio: float, metrics: dict) -> AttributeSet | None:
        return self._change_scale(self.scale * (1.0 + self.increase), eratio,
                                  metrics.get("rate_bps", 0.0))


class DelayedResolutionAdaptation(ResolutionAdaptation):
    """Resolution adaptation deferred to coarse frame boundaries
    (section 3.5's limited-granularity application).

    The threshold callback only *decides*; the decision is applied -- and
    its attributes piggybacked via ``cmwritev_attr`` -- at the next frame
    whose index is divisible by ``boundary``.
    """

    def __init__(self, *, boundary: int = 20, **kw):
        super().__init__(**kw)
        if boundary < 1:
            raise ValueError("boundary must be >= 1")
        self.boundary = boundary
        self._pending: tuple[float, float, float] | None = None
        self.applied_adaptations = 0

    def on_upper(self, eratio: float, metrics: dict) -> AttributeSet | None:
        # Decide once, apply at the boundary.  The decision deliberately
        # sticks: this application "does not want to be frequently
        # interrupted for adaptation" (section 2.3.1), so it prepares one
        # adaptation and executes it when it can -- by which time the
        # network may have drifted, which is exactly what ADAPT_COND lets
        # the transport correct for.
        if self._pending is not None:
            return None
        self._pending = (self.scale * (1.0 - eratio), eratio,
                         metrics.get("rate_bps", 0.0))
        return AttributeSet({ADAPT_WHEN: "pending"})

    def on_lower(self, eratio: float, metrics: dict) -> AttributeSet | None:
        if self._pending is not None or self.scale >= 1.0:
            return None
        self._pending = (self.scale * (1.0 + self.increase), eratio,
                         metrics.get("rate_bps", 0.0))
        return AttributeSet({ADAPT_WHEN: "pending"})

    def frame_attrs(self, index: int) -> AttributeSet | None:
        if self._pending is None or index % self.boundary != 0:
            return None
        new_scale, eratio, rate = self._pending
        self._pending = None
        attrs = self._change_scale(new_scale, eratio, rate)
        if attrs is not None:
            self.applied_adaptations += 1
        return attrs


class FrequencyAdaptation(AdaptationStrategy):
    """Frequency adaptation: same bytes per message, sent less often.

    Described in section 2.3.2 ("With a frequency adaptation, the
    application sends the same amount of data as before in each message but
    less frequently"); coordination performs *no* window change for it.
    Implemented as the paper's extension hook and exercised by the ablation
    bench.
    """

    def __init__(self, *, increase: float = 0.10, min_freq: float = 0.1,
                 upper: float = 0.15, lower: float = 0.01):
        super().__init__()
        self.increase = increase
        self.min_freq = min_freq
        self.upper = upper
        self.lower = lower

    def _change(self, new_freq: float) -> AttributeSet | None:
        new_freq = min(max(new_freq, self.min_freq), 1.0)
        if new_freq == self.freq_scale:
            return None
        freq_chg = 1.0 - new_freq / self.freq_scale
        self.freq_scale = new_freq
        return AttributeSet({ADAPT_FREQ: freq_chg, ADAPT_WHEN: "now"})

    def on_upper(self, eratio: float, metrics: dict) -> AttributeSet | None:
        return self._change(self.freq_scale * (1.0 - eratio))

    def on_lower(self, eratio: float, metrics: dict) -> AttributeSet | None:
        return self._change(self.freq_scale * (1.0 + self.increase))


class FecAdaptation(AdaptationStrategy):
    """Coding-rate adaptation: the application owns the redundancy knob.

    The FlEC-style application-tailored reliability loop: under loss the
    application asks the transport for one more repair segment per FEC
    generation (the :data:`~repro.core.attributes.ADAPT_FEC` quality
    attribute), and sheds redundancy again once the network clears.  The
    transport clamps requests to its configured ``[r, r_max]`` band and,
    on connections without a FEC tier, records the request and ignores it
    -- like every other strategy, the identical application code runs
    against coordinated and uncoordinated transports.
    """

    def __init__(self, *, min_r: int = 1, max_r: int = 4,
                 upper: float = 0.05, lower: float = 0.01):
        super().__init__()
        if not 1 <= min_r <= max_r:
            raise ValueError("need 1 <= min_r <= max_r")
        self.min_r = min_r
        self.max_r = max_r
        self.upper = upper
        self.lower = lower
        self.redundancy = min_r
        self.raises = 0
        self.sheds = 0

    def on_upper(self, eratio: float, metrics: dict) -> AttributeSet | None:
        if self.redundancy >= self.max_r:
            return None
        self.redundancy += 1
        self.raises += 1
        return AttributeSet({ADAPT_FEC: self.redundancy, ADAPT_WHEN: "now"})

    def on_lower(self, eratio: float, metrics: dict) -> AttributeSet | None:
        if self.redundancy <= self.min_r:
            return None
        self.redundancy -= 1
        self.sheds += 1
        return AttributeSet({ADAPT_FEC: self.redundancy, ADAPT_WHEN: "now"})


# ---------------------------------------------------------------------------
# Named default-parameter factories.
#
# The CLI and the campaign spec language refer to adaptation strategies by
# name; these module-level factories are the registry targets.  Being real
# module-level functions (not lambdas) they carry a stable
# ``module.qualname`` identity, so configs built from them hash through
# ``repro.runner.hashing.callable_token`` and are served by the persistent
# results cache -- a campaign cell *must* be stably hashable.

def resolution_default() -> ResolutionAdaptation:
    """Resolution adaptation with the repo's default thresholds."""
    return ResolutionAdaptation(upper=0.05, lower=0.005)


def marking_default() -> MarkingAdaptation:
    """Marking adaptation with the repo's default thresholds."""
    return MarkingAdaptation(upper=0.05, lower=0.01)


def delayed_resolution_default() -> DelayedResolutionAdaptation:
    """Delayed resolution adaptation with the repo's default thresholds."""
    return DelayedResolutionAdaptation(boundary=400, upper=0.05, lower=0.005)


def frequency_default() -> FrequencyAdaptation:
    """Frequency adaptation with the repo's default thresholds."""
    return FrequencyAdaptation(upper=0.05, lower=0.005)


def fec_default() -> FecAdaptation:
    """Coding-rate adaptation with the repo's default thresholds."""
    return FecAdaptation(upper=0.05, lower=0.01)


#: Name -> factory registry shared by the CLI (``--adaptation``) and the
#: campaign spec language (``adaptation = "resolution"``).  ``"none"``
#: maps to None: no application adaptation.
ADAPTATIONS: dict = {
    "none": None,
    "resolution": resolution_default,
    "marking": marking_default,
    "delayed": delayed_resolution_default,
    "frequency": frequency_default,
    "fec": fec_default,
}

__all__ += ["ADAPTATIONS", "resolution_default", "marking_default",
            "delayed_resolution_default", "frequency_default", "fec_default"]
