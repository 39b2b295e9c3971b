"""Transport-side measurement and metric export.

Paper section 2.1, mechanism (1): "the application can query for a group of
network performance metrics maintained by IQ-RUDP anytime during a
connection's lifetime".  :class:`MetricsWindow` accumulates per-period
counters inside the sender; at the end of each measurement period the sender
publishes the snapshot into the connection's
:class:`~repro.core.attributes.AttributeService` and feeds the error ratio to
the callback registry.

The *error ratio* is the paper's adaptation trigger: "the condition that
triggers the adaptation is network congestion level, or loss ratio as seen by
the end system" (section 3.1).  We measure it at the sender as
retransmission-triggering events over packets sent in the period, which is
exactly the loss the end system can see.
"""

from __future__ import annotations

from .attributes import (NET_CWND, NET_ERROR_RATIO, NET_RATE, NET_RTT,
                         AttributeService)

__all__ = ["MetricsWindow", "PeriodMetrics"]


class PeriodMetrics:
    """Immutable snapshot of one measurement period.

    ``blackout`` marks a period measured while the sender believed the
    path was dead (stall detection, see
    :class:`~repro.transport.base.WindowedSender`): its loss ratio
    describes an outage, not congestion, and must not drive adaptation.
    """

    __slots__ = ("time", "sent", "lost", "acked_bytes", "error_ratio",
                 "rate_bps", "rtt", "cwnd", "blackout")

    def __init__(self, time: float, sent: int, lost: int, acked_bytes: int,
                 period: float, rtt: float, cwnd: float,
                 blackout: bool = False):
        self.time = time
        self.sent = sent
        self.lost = lost
        self.acked_bytes = acked_bytes
        self.error_ratio = lost / sent if sent else 0.0
        self.rate_bps = acked_bytes * 8.0 / period if period > 0 else 0.0
        self.rtt = rtt
        self.cwnd = cwnd
        self.blackout = blackout

    def as_dict(self) -> dict:
        return {
            "time": self.time, "sent": self.sent, "lost": self.lost,
            "error_ratio": self.error_ratio, "rate_bps": self.rate_bps,
            "rtt": self.rtt, "cwnd": self.cwnd, "blackout": self.blackout,
        }


class MetricsWindow:
    """Per-period counters plus lifetime history.

    The sender calls :meth:`count_sent` / :meth:`count_lost` /
    :meth:`count_acked_bytes` on the hot path (attribute increments only) and
    :meth:`roll` once per measurement period.
    """

    def __init__(self, period: float, service: AttributeService | None = None):
        if period <= 0:
            raise ValueError("metric period must be positive")
        self.period = period
        self.service = service
        self._sent = 0
        self._lost = 0
        self._acked_bytes = 0
        self.history: list[PeriodMetrics] = []
        self.total_sent = 0
        self.total_lost = 0
        #: Error ratio of the most recent *non-blackout* period -- the
        #: coordination engine's ``eratio_new`` (Eq. 1).  An outage period
        #: would report ~100% loss and make ADAPT_COND's drift correction
        #: collapse the window off a dead link, so blackout periods never
        #: update this.
        self.last_clean_error_ratio = 0.0
        if service is not None:
            for name in (NET_ERROR_RATIO, NET_RATE, NET_RTT, NET_CWND):
                service.register(name, 0.0)

    # -- hot path ---------------------------------------------------------
    def count_sent(self, n: int = 1) -> None:
        self._sent += n
        self.total_sent += n

    def count_lost(self, n: int = 1) -> None:
        self._lost += n
        self.total_lost += n

    def count_acked_bytes(self, n: int) -> None:
        self._acked_bytes += n

    # -- period boundary ----------------------------------------------------
    def roll(self, now: float, rtt: float, cwnd: float,
             blackout: bool = False) -> PeriodMetrics:
        """Close the current period, publish, and reset counters."""
        pm = PeriodMetrics(now, self._sent, self._lost, self._acked_bytes,
                           self.period, rtt, cwnd, blackout)
        self.history.append(pm)
        if not blackout:
            self.last_clean_error_ratio = pm.error_ratio
        self._sent = 0
        self._lost = 0
        self._acked_bytes = 0
        if self.service is not None:
            self.service.update(NET_ERROR_RATIO, pm.error_ratio)
            self.service.update(NET_RATE, pm.rate_bps)
            self.service.update(NET_RTT, pm.rtt)
            self.service.update(NET_CWND, pm.cwnd)
        return pm

    @property
    def lifetime_error_ratio(self) -> float:
        return (self.total_lost / self.total_sent) if self.total_sent else 0.0
