"""IQ-RUDP coordination engine (the paper's core contribution).

The engine sits inside the sender and consumes the application -> transport
attribute flow from two sources:

* return values of threshold callbacks (immediate adaptations), and
* attribute lists piggybacked on ``cmwritev_attr`` send calls (delayed
  adaptations, section 3.5's limited-granularity case).

It implements the three coordination schemes evaluated in the paper:

**Conflicting interests (section 3.3).**  When the application reports a
reliability adaptation (:data:`ADAPT_MARK` = current unmark probability), the
transport "starts to discard unmarked datagrams before sending them onto the
network", so tagged/marked data stops queueing behind droppable data.
Plain RUDP keeps sending everything, which is what the paper contrasts
against.

**Over-reaction (section 3.4).**  When the application reports a resolution
adaptation (:data:`ADAPT_PKTSIZE` = ``rate_chg``, the fractional frame-size
reduction), the transport window (in packets) no longer carries the same bit
rate; to keep the flow at its fair share, the engine re-inflates the window
to ``1/(1 - rate_chg)`` of its value -- but only "if the current application
frame is smaller than the maximum RUDP segment size" (larger frames still
segment into MSS packets, so the packet window's bit rate is unchanged).
A *frequency* adaptation (:data:`ADAPT_FREQ`) deliberately triggers no window
change: "for a frequency adaptation, IQ-RUDP does not have to increase the
window size since the reduction of application frame frequency has the same
effect".

**Limited granularity / obsolete information (section 3.5).**  A callback may
return :data:`ADAPT_WHEN` = ``"pending"``; the transport then adapts on its
own until the application's next send carries the executed adaptation.  If
the send also carries :data:`ADAPT_COND` (the error ratio the application's
decision was based on), the engine corrects for network drift during the
delay.  The paper's Eq. 1 as typeset reads
``((1-eratio_new)/(1-eratio)) / (1/(1-rate_chg))``, which *shrinks* the
window for a size reduction and contradicts both the surrounding prose and
the measured Table 8 ordering; we implement the evident intent::

    w <- w * (1 / (1 - rate_chg)) * ((1 - eratio_new) / (1 - eratio))

i.e. compensate the frame-size reduction, then scale by how the loss ratio
drifted while the adaptation was pending.
"""

from __future__ import annotations

from .attributes import (ADAPT_COND, ADAPT_FEC, ADAPT_FREQ, ADAPT_MARK,
                         ADAPT_PKTSIZE, ADAPT_WHEN, AttributeSet)

__all__ = ["Coordinator", "NullCoordinator", "IQCoordinator"]


class Coordinator:
    """Interface the sender drives.  Subclasses implement the schemes."""

    def bind(self, sender) -> None:
        """Attach to a sender (called from the sender's constructor)."""
        self.sender = sender

    def on_callback_result(self, attrs: AttributeSet) -> None:
        """Attributes returned by a threshold callback."""

    def on_send_attrs(self, attrs: AttributeSet) -> None:
        """Attributes piggybacked on a data submit (``cmwritev_attr``)."""

    def on_stall(self, now: float) -> None:
        """The sender's stall detector declared the path dead (see
        ``stall_threshold`` in :class:`~repro.transport.base
        .WindowedSender`).  Default: no reaction."""

    def on_resume(self, now: float) -> None:
        """Forward progress resumed after a stall.  Default: no reaction."""

    def on_period(self, pm) -> None:
        """One metric period rolled (the sender's measuring-period tick);
        ``pm`` is the :class:`~repro.core.metrics_export.PeriodMetrics`
        snapshot.  Default: no reaction."""


class NullCoordinator(Coordinator):
    """Plain RUDP: application adaptations are invisible to the transport.

    This is the uncoordinated baseline every experiment compares against --
    the transport still adapts its window to congestion, but knows nothing
    about what the application is doing.
    """


class IQCoordinator(Coordinator):
    """Full IQ-RUDP coordination.

    Ablation switches:

    * ``discard_unmarked`` -- conflict scheme on/off.
    * ``reinflate_window`` -- over-reaction scheme on/off.
    * ``use_adapt_cond`` -- obsolete-information correction on/off
      (Table 8's "IQ-RUDP w/o ADAPT_COND" sets this False).
    """

    def __init__(self, *, discard_unmarked: bool = True,
                 reinflate_window: bool = True,
                 use_adapt_cond: bool = True):
        self.enable_discard = discard_unmarked
        self.enable_reinflate = reinflate_window
        self.use_adapt_cond = use_adapt_cond
        self.sender = None
        # Introspection counters (used by tests and EXPERIMENTS.md notes).
        self.window_rescales = 0
        self.discard_switches = 0
        self.pending_adaptations = 0
        self.cond_corrections = 0
        self.freq_adaptations = 0
        self.stalls = 0
        self.stall_recoveries = 0
        self.fec_adaptations = 0
        self.fec_boosts = 0
        self._discard_before_stall: bool | None = None
        # Redundancy-controller state (inert unless the sender's FEC tier
        # is armed and adaptive).
        self._fec_r_before_stall: int | None = None
        self._fec_last_recovered = 0
        self._fec_last_unrecoverable = 0
        self._fec_clean_periods = 0
        self._fec_min_rtt: float | None = None

    # ------------------------------------------------------------------
    def on_callback_result(self, attrs: AttributeSet) -> None:
        self._apply(attrs)

    def on_send_attrs(self, attrs: AttributeSet) -> None:
        self._apply(attrs)

    # ------------------------------------------------------------------
    # Stall-driven graceful degradation (network-dynamics hardening).
    # While the path is believed dead the sender sheds unmarked backlog --
    # there is no point queueing droppable data behind an outage -- so the
    # data the application cares about goes first the moment the link
    # returns.  The pre-stall discard policy is restored on resume; these
    # actions carry no ``attr_seq`` because no application attribute
    # exchange caused them (the report shows them as transport-initiated).
    # ------------------------------------------------------------------
    def on_stall(self, now: float) -> None:
        snd = self.sender
        if snd is None:
            return
        self._fec_stall_boost(snd)
        if not self.enable_discard:
            return
        self.stalls += 1
        if self._discard_before_stall is None:
            self._discard_before_stall = snd.discard_unmarked
        snd.discard_unmarked = True
        self._transport_action(snd, "stall_degrade",
                               restored_policy=self._discard_before_stall)

    def on_resume(self, now: float) -> None:
        snd = self.sender
        if snd is None:
            return
        self._fec_stall_relax(snd)
        if self._discard_before_stall is None:
            return
        self.stall_recoveries += 1
        snd.discard_unmarked = self._discard_before_stall
        self._discard_before_stall = None
        self._transport_action(snd, "stall_recover",
                               discard_unmarked=snd.discard_unmarked)

    @staticmethod
    def _transport_action(snd, action: str, **fields) -> None:
        """Record an action no attribute exchange caused (stall handling,
        the FEC controller): it carries no ``attr_seq``/episode."""
        ev = snd.events
        if ev.transport_action:
            ev.emit("transport_action", flow=snd.flow_id, action=action,
                    **fields)

    # ------------------------------------------------------------------
    # FEC redundancy coordination.  The coding rate is a quality attribute
    # like any other: the application can set it (ADAPT_FEC below), and
    # the coordinator re-adapts it from observed loss/stall telemetry --
    # more repair segments inside loss bursts and around blackouts, shed
    # back to the configured base once the loss estimator clears.  All of
    # it is inert unless the connection armed a FEC tier.
    # ------------------------------------------------------------------
    def _fec_stall_boost(self, snd) -> None:
        fx = getattr(snd, "fec_tx", None)
        if fx is None or not fx.state.cfg.adaptive:
            return
        state = fx.state
        if self._fec_r_before_stall is None:
            self._fec_r_before_stall = state.r
        r_before = state.r
        r_after = state.set_redundancy(state.cfg.r_max)
        if r_after != r_before:
            self.fec_boosts += 1
            self._transport_action(snd, "fec_boost", r_before=r_before,
                                   r_after=r_after)

    def _fec_stall_relax(self, snd) -> None:
        if self._fec_r_before_stall is None:
            return
        fx = getattr(snd, "fec_tx", None)
        restore = self._fec_r_before_stall
        self._fec_r_before_stall = None
        if fx is None:
            return
        state = fx.state
        r_before = state.r
        # Generations flushed around the resume already went out at
        # ``r_max`` (the boost covered the settle's first moments);
        # restore the pre-stall rate and let the period controller
        # re-raise only if the decoder shows the tail is still lossy --
        # holding extra redundancy through the post-blackout backlog
        # drain would steal bandwidth exactly when it is scarcest.
        r_after = state.set_redundancy(restore)
        if r_after != r_before:
            self._transport_action(snd, "fec_relax", r_before=r_before,
                                   r_after=r_after)

    def on_period(self, pm) -> None:
        snd = self.sender
        if snd is None:
            return
        fx = getattr(snd, "fec_tx", None)
        if fx is None or not fx.state.cfg.adaptive:
            return
        state = fx.state
        recovered_delta = state.recovered - self._fec_last_recovered
        self._fec_last_recovered = state.recovered
        short_delta = state.unrecoverable - self._fec_last_unrecoverable
        self._fec_last_unrecoverable = state.unrecoverable
        if pm.blackout or self._fec_r_before_stall is not None:
            # A dead link's ~100% loss says nothing about the coding rate
            # the live path needs; the stall boost owns redundancy here.
            return
        meaningful = pm.sent >= snd.MIN_PERIOD_SAMPLES
        eratio = pm.error_ratio if meaningful else 0.0
        # Congestion discriminator: queue drops inflate the measured RTT
        # (standing queue) while wire loss does not.  Redundancy must
        # track *wire* loss only -- repair segments displace data at a
        # saturated bottleneck, so raising ``r`` on congestion loss feeds
        # the very drops it reacts to.
        if pm.rtt > 0:
            self._fec_min_rtt = (pm.rtt if self._fec_min_rtt is None
                                 else min(self._fec_min_rtt, pm.rtt))
        congested = (self._fec_min_rtt is not None
                     and pm.rtt > 1.5 * self._fec_min_rtt)
        r_before = state.r
        if congested:
            # Self-inflicted loss regime: shed straight toward the base
            # rate; ARQ inside the recovered window is the cheaper tool.
            self._fec_clean_periods = 0
            r_after = (state.set_redundancy(r_before - 1)
                       if r_before > state.cfg.r else r_before)
        elif recovered_delta > 0 or short_delta > 0:
            # The decoder is earning its keep (or arriving one repair
            # short): the live path is bursty, add a repair segment.
            self._fec_clean_periods = 0
            r_after = state.set_redundancy(r_before + 1)
        elif meaningful and eratio <= 0.005:
            # Clean period; shed redundancy after a few in a row.
            self._fec_clean_periods += 1
            if self._fec_clean_periods >= 4 and r_before > state.cfg.r:
                self._fec_clean_periods = 0
                r_after = state.set_redundancy(r_before - 1)
            else:
                r_after = r_before
        else:
            r_after = r_before
        if r_after != r_before:
            self.fec_adaptations += 1
            self._transport_action(snd, "fec_redundancy", r_before=r_before,
                                   r_after=r_after, error_ratio=eratio,
                                   recovered=recovered_delta,
                                   congested=congested)

    # ------------------------------------------------------------------
    def _apply(self, attrs: AttributeSet) -> None:
        snd = self.sender
        if snd is None:
            raise RuntimeError("coordinator not bound to a sender")

        # Record the exchange; every action below pairs with it (the
        # trace's attr_seq, the spans' episode) so the audit can pair
        # attribute -> transport action.
        ev = snd.events
        if ev.attrs:
            ev.emit("attrs", flow=snd.flow_id, attrs=attrs.as_dict())

        when = attrs.get(ADAPT_WHEN)
        if when == "pending":
            # The application will adapt later (limited granularity).  The
            # transport keeps adapting on its own; nothing to change now.
            self.pending_adaptations += 1
            if ev.action:
                ev.emit("action", flow=snd.flow_id, action="pending")
            return

        if ADAPT_MARK in attrs and self.enable_discard:
            p = float(attrs[ADAPT_MARK])
            want = p > 1e-9
            changed = want != snd.discard_unmarked
            if changed:
                self.discard_switches += 1
            snd.discard_unmarked = want
            if ev.action:
                ev.emit("action", flow=snd.flow_id, action="discard",
                        enabled=want, changed=changed, unmark_p=p)

        if ADAPT_FREQ in attrs:
            # Deliberately no window change (see module docstring).
            self.freq_adaptations += 1
            if ev.action:
                ev.emit("action", flow=snd.flow_id,
                        action="freq_no_window_change",
                        freq_chg=float(attrs[ADAPT_FREQ]))

        if ADAPT_FEC in attrs:
            requested = int(attrs[ADAPT_FEC])
            fx = getattr(snd, "fec_tx", None)
            if fx is not None:
                state = fx.state
                r_before = state.r
                r_after = state.set_redundancy(requested)
                changed = r_after != r_before
                if changed:
                    self.fec_adaptations += 1
                    self._fec_clean_periods = 0
                if ev.action:
                    ev.emit("action", flow=snd.flow_id,
                            action="fec_redundancy", requested=requested,
                            r_before=r_before, r_after=r_after,
                            changed=changed)
            elif ev.action:
                # The application asked for coding on a connection with no
                # FEC tier: record the mismatch, change nothing.
                ev.emit("action", flow=snd.flow_id, action="fec_unavailable",
                        requested=requested)

        if ADAPT_PKTSIZE in attrs and self.enable_reinflate:
            rate_chg = float(attrs[ADAPT_PKTSIZE])
            if rate_chg >= 1.0:
                raise ValueError(f"ADAPT_PKTSIZE rate_chg {rate_chg} >= 1")
            if snd.last_frame_size < snd.mss:
                base_factor = 1.0 / (1.0 - rate_chg)
                factor = base_factor
                drift = 1.0
                cond = attrs.get(ADAPT_COND)
                if cond is not None and self.use_adapt_cond:
                    e_old = float(cond.get("error_ratio", 0.0))
                    e_new = snd.current_error_ratio()
                    if e_old < 1.0:
                        drift = (1.0 - e_new) / (1.0 - e_old)
                        factor *= drift
                        self.cond_corrections += 1
                cwnd_before = snd.cc.cwnd
                snd.cc.scale_window(factor)
                self.window_rescales += 1
                # Telemetry pins the re-inflation onto the sampled cwnd
                # series so the trajectory shows *why* the window jumped.
                if ev.rescale:
                    ev.emit("rescale", flow=snd.flow_id,
                            action="window_rescale", rate_chg=rate_chg,
                            base_factor=base_factor, drift=drift,
                            factor=factor, cwnd_before=cwnd_before,
                            cwnd_after=snd.cc.cwnd)
            elif ev.rescale_skipped:
                ev.emit("rescale_skipped", flow=snd.flow_id,
                        action="rescale_skipped_large_frame",
                        rate_chg=rate_chg,
                        last_frame_size=snd.last_frame_size, mss=snd.mss)
