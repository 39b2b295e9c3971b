"""IQ-RUDP: RUDP plus the coordination schemes -- the paper's protocol.

The only structural difference from :class:`~repro.transport.rudp.
RudpConnection` is the coordinator: IQ-RUDP listens to the application's
adaptation attributes (callback return values and ``cmwritev_attr``
parameters) and re-adapts its own behaviour -- discarding unmarked datagrams
(conflict scheme), re-inflating its window after resolution adaptations
(over-reaction scheme), and correcting for obsolete network information via
``ADAPT_COND`` (granularity scheme).
"""

from __future__ import annotations

from ..core.coordination import IQCoordinator
from .rudp import RudpConnection

__all__ = ["IqRudpConnection"]


class IqRudpConnection(RudpConnection):
    """RUDP with a bound :class:`~repro.core.coordination.IQCoordinator`.

    The three ``enable_*`` switches expose the paper's ablations: Table 8's
    "IQ-RUDP w/o ADAPT_COND" is ``use_adapt_cond=False``; setting all three
    False degenerates to plain RUDP (tested as an invariant).

    The coordinator emits every attribute exchange and the actions it
    causes into the simulator's event stream; traced, they become the
    ``ATTR_RECEIVED``/``COORD_ACTION`` pairs ``repro report`` audits.

    With a ``fec=`` config (inherited from :class:`RudpConnection`) the
    coordinator additionally owns the repair redundancy: it honours
    ``ADAPT_FEC`` quality attributes from the application, raises ``r``
    from per-period loss telemetry and around stalls, and sheds it once
    the loss estimator clears -- coordinated FEC, versus plain RUDP's
    statically-configured coding rate.
    """

    def __init__(self, *args, discard_unmarked: bool = True,
                 reinflate_window: bool = True, use_adapt_cond: bool = True,
                 **kw):
        coordinator = IQCoordinator(discard_unmarked=discard_unmarked,
                                    reinflate_window=reinflate_window,
                                    use_adapt_cond=use_adapt_cond)
        super().__init__(*args, coordinator=coordinator, **kw)
        self.coordinator = coordinator
