"""Hierarchical causal spans: scenario -> flow -> frame -> datagram attempt.

The paper's whole argument is causal -- an application attribute change
propagates into transport coordination actions, which decide each datagram's
fate (deliver / discard / re-inflate), which determines frame timeliness --
and this module records exactly that chain.  Armed via
``ScenarioConfig(spans=True)``, a :class:`SpanRecorder` links every
application frame to:

* each of its datagram segments and every transmission / retransmission
  attempt (with the skip re-inflation flag),
* every queue/wire/down drop the segment suffered on the way,
* the coordination episodes (attribute exchange -> coordination actions,
  stall degrade/recover) running concurrently,
* the segment's final fate -- delivered, recovered (rebuilt by the FEC
  repair tier without a retransmission round trip), skipped, locally
  discarded, expired (abandoned unsent past its delivery deadline), or
  still pending at run end,

and derives a per-frame latency decomposition (serialization / queueing /
propagation / retransmission-wait) against the nominal dumbbell path.

Design constraints mirror the rest of :mod:`repro.obs`:

1. **Passive.**  Hooks only record; the recorder never schedules events,
   draws randomness or touches transport state, so an armed run's summary
   is bit-identical to a disarmed one (``spans`` *is* part of the config
   and cache key, but behaviour does not depend on it).
2. **A subscriber, not a component attribute.**  The recorder subscribes
   to the simulator's :class:`~repro.obs.bus.EventStream`; the routing
   table (:data:`~repro.obs.events.ROUTES`) names the ``on_<hook>`` it
   runs for each kind.  A disarmed run pays each site's one stream guard.
3. **Determinism.**  Everything is keyed on simulation-derived values
   (frame ids, ``(flow_id, seq)``, the stream's clock), so
   :meth:`finalize`'s output is a pure function of the ``ScenarioConfig``
   -- byte-identical across ``--jobs N``, cache hit/miss, and
   ``burst=True`` (all hook sites sit on paths the burst fast path
   degrades out of or never fuses).
4. **Serialisable.**  :meth:`finalize` returns plain dicts/lists that ride
   ``ScenarioResult.spans`` through pickling and the persistent cache.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from ..sim.packet import HEADER_BYTES, Packet

__all__ = ["SpanRecorder", "FRAME_OUTCOMES"]

#: Span hook -> (left unsent?, segment fate).  Discards (conflict scheme)
#: and expiries (past the frame deadline) never got a sequence number; a
#: recovery (FEC rebuild, fired before the rebuilt packet's delivery) or a
#: skip (adaptive reliability) ends a transmitted segment like delivery.
_FATES = {"discard": (True, "discarded"), "expire": (True, "expired"),
          "deliver": (False, "delivered"), "recover": (False, "recovered"),
          "skip": (False, "skipped")}

#: Closed vocabulary of frame outcomes (see :meth:`SpanRecorder.finalize`).
FRAME_OUTCOMES = ("delivered", "degraded", "discarded", "abandoned",
                  "pending")


class SpanRecorder:
    """Collects the causal lineage of one scenario's application flow.

    Wire-up (done by ``run_scenario`` when ``cfg.spans`` is set):

    * subscribe to the simulator's event stream,
    * :meth:`watch_network` after the topology exists (captures the nominal
      path for the latency decomposition),
    * :meth:`watch_flow` after the connection exists (names the flow the
      artifact describes),
    * :meth:`finalize` after the run loop.

    A route's ``span`` names a final fate (:data:`_FATES`) or a hook
    ``on_<span>(t, pkt, fields)``: the stream's clock, the packet the fact
    is about (if any) and the emitted fields.
    """

    def __init__(self, *, scenario: str = ""):
        self.scenario = scenario
        self._frames: dict[int, dict[str, Any]] = {}
        # Untransmitted segments keyed by packet identity; once a segment
        # is first transmitted it moves to the (flow_id, seq) map, which
        # both the retransmission and the receiver-side hooks resolve.
        self._by_pkt: dict[int, dict[str, Any]] = {}
        self._by_key: dict[tuple[int, int], dict[str, Any]] = {}
        self.episodes: list[dict[str, Any]] = []
        self.actions: list[dict[str, Any]] = []
        self._episode: int | None = None
        self._path_hops: list[tuple[float, float]] = []
        self._flow_id: int | None = None

    def handler(self, kind: str, route):
        if route.span is None:
            return None
        if route.span in _FATES:
            unsent, fate = _FATES[route.span]
            return partial(self._unsent if unsent else self._sent, fate)
        hook = getattr(self, "on_" + route.span)
        if route.span == "action":
            return partial(hook, route.pairing == "paired")
        return hook

    # ------------------------------------------------------------------
    # Wire-up
    # ------------------------------------------------------------------
    def watch_network(self, net) -> None:
        """Capture the nominal forward path (sender access -> bottleneck ->
        receiver access) for the latency decomposition.  Mid-run bandwidth
        ramps are deliberately ignored: the decomposition is a model
        against the configured path, not a measurement."""
        self._path_hops = [
            (net.ACCESS_BPS, net.ACCESS_DELAY_S),
            (net.forward.bandwidth_bps, net.forward.delay_s),
            (net.ACCESS_BPS, net.ACCESS_DELAY_S),
        ]

    def watch_flow(self, conn) -> None:
        """Name the connection whose frames the artifact describes."""
        self._flow_id = conn.sender.flow_id

    # ------------------------------------------------------------------
    # Sender-side hooks (see repro.transport.base)
    # ------------------------------------------------------------------
    def on_segment(self, t: float, pkt: Packet, f) -> None:
        """A segment of an application frame entered the send queue.

        Every sender in the simulator emits segments; only the watched
        flow's are tracked (cross traffic numbers its own chunks as
        frames).  The later hooks resolve segments through the maps this
        fills, so they need no flow check of their own."""
        fid = pkt.frame_id
        if fid < 0 or pkt.flow_id != self._flow_id:
            return
        fr = self._frames.get(fid)
        if fr is None:
            fr = {"frame_id": fid, "t_submit": t, "bytes": 0,
                  "msgs": 0, "segments": []}
            self._frames[fid] = fr
        seg = {"size": pkt.size, "marked": pkt.marked, "tagged": pkt.tagged,
               "last": pkt.last_of_frame, "seq": None, "fate": "pending",
               "t_done": None, "attempts": [], "drops": []}
        fr["segments"].append(seg)
        fr["bytes"] += pkt.size
        if pkt.last_of_frame:
            fr["msgs"] += 1
        self._by_pkt[id(pkt)] = seg

    def on_transmit(self, t: float, pkt: Packet, f) -> None:
        """First transmission or retransmission of a segment."""
        key = (pkt.flow_id, pkt.seq)
        seg = self._by_key.get(key)
        if seg is None:
            seg = self._by_pkt.pop(id(pkt), None)
            if seg is None:
                return
            seg["seq"] = pkt.seq
            self._by_key[key] = seg
            kind = "tx"
        else:
            kind = "retx"
        seg["attempts"].append({"t": t, "kind": kind, "skip": pkt.skip})

    # ------------------------------------------------------------------
    # Network hooks
    # ------------------------------------------------------------------
    def on_drop(self, t: float, pkt: Packet, f) -> None:
        """A wire copy of a tracked segment was dropped en route."""
        if pkt.frame_id < 0:
            return
        seg = self._by_key.get((pkt.flow_id, pkt.seq))
        if seg is None:
            return
        seg["drops"].append({"t": t, "link": f["link"], "kind": f["kind"]})

    # ------------------------------------------------------------------
    # Final fates
    # ------------------------------------------------------------------
    def _unsent(self, fate: str, t: float, pkt: Packet, f) -> None:
        """The segment left the send queue without a sequence number."""
        seg = self._by_pkt.pop(id(pkt), None)
        if seg is not None:
            seg["fate"] = fate
            seg["t_done"] = t

    def _sent(self, fate: str, t: float, pkt: Packet, f) -> None:
        """A transmitted segment reached its end (first fate wins)."""
        seg = self._by_key.get((pkt.flow_id, pkt.seq))
        if seg is not None and seg["fate"] == "pending":
            seg["fate"] = fate
            seg["t_done"] = t

    # ------------------------------------------------------------------
    # Coordination hooks (see repro.core.coordination)
    # ------------------------------------------------------------------
    def on_attrs(self, t: float, subject, f) -> None:
        """An attribute set reached the coordinator; opens the episode the
        actions it causes pair with."""
        self._episode = len(self.episodes)
        self.episodes.append({"id": self._episode, "t": t,
                              "attrs": f["attrs"]})

    def on_action(self, paired: bool, t: float, subject, f) -> None:
        """A coordination action fired; a paired action belongs to the
        latest attribute exchange, a transport-initiated one (stall
        degrade/recover, the FEC controller) to none."""
        rec = {"t": t, "action": f["action"],
               "episode": self._episode if paired else None}
        for k, v in f.items():
            if k != "flow" and k != "action":
                rec[k] = v
        self.actions.append(rec)

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def _classify(self, fr: dict[str, Any]) -> str:
        segs = fr["segments"]
        n = len(segs)
        # A recovered segment reached the application exactly like a
        # delivered one (just via the repair tier); expired segments were
        # abandoned unsent, like skips without the sequence number.
        delivered = sum(1 for s in segs
                        if s["fate"] in ("delivered", "recovered"))
        discarded = sum(1 for s in segs if s["fate"] == "discarded")
        skipped = sum(1 for s in segs
                      if s["fate"] in ("skipped", "expired"))
        if delivered == n:
            return "delivered"
        if delivered > 0:
            return "degraded"
        if discarded == n:
            return "discarded"
        if discarded + skipped == n:
            return "abandoned"
        return "pending"

    def _decompose(self, fr: dict[str, Any]) -> dict[str, float] | None:
        """Per-frame latency decomposition over the delivered segments.

        ``total`` is submit-to-last-delivery.  Serialization charges each
        delivered segment's wire bytes on every hop (store-and-forward);
        propagation is the one-way path delay (paid once -- segments
        pipeline); retransmission-wait is the span from each segment's
        first to last transmission attempt; queueing absorbs the residual
        (clamped at zero), which on the dumbbell is bottleneck queueing
        delay plus pipelining slack.
        """
        done = [s for s in fr["segments"]
                if s["fate"] in ("delivered", "recovered")
                and s["t_done"] is not None]
        if not done or not self._path_hops:
            return None
        t_done = max(s["t_done"] for s in done)
        total = t_done - fr["t_submit"]
        inv_bw = sum(8.0 / bw for bw, _d in self._path_hops)
        prop = sum(d for _bw, d in self._path_hops)
        ser = sum((s["size"] + HEADER_BYTES) * inv_bw for s in done)
        retx_wait = 0.0
        for s in done:
            at = s["attempts"]
            if len(at) > 1:
                retx_wait += at[-1]["t"] - at[0]["t"]
        queueing = max(total - ser - prop - retx_wait, 0.0)
        return {"total_s": total, "serialization_s": ser,
                "propagation_s": prop, "retx_wait_s": retx_wait,
                "queueing_s": queueing}

    def finalize(self) -> dict[str, Any]:
        """Freeze the lineage into a plain-data artifact.

        ``frames_with_delivery`` is the reconciliation anchor: it must
        equal ``DeliveryLog.frames_delivered()`` exactly (a frame counts
        once it has at least one delivered payload segment -- the same
        predicate the delivery log applies).
        """
        frames = []
        counts = {k: 0 for k in FRAME_OUTCOMES}
        frames_with_delivery = 0
        for fid in sorted(self._frames):
            fr = self._frames[fid]
            outcome = self._classify(fr)
            counts[outcome] += 1
            if any(s["fate"] in ("delivered", "recovered")
                   for s in fr["segments"]):
                frames_with_delivery += 1
            done = [s["t_done"] for s in fr["segments"]
                    if s["t_done"] is not None]
            frames.append({
                "frame_id": fid,
                "t_submit": fr["t_submit"],
                "bytes": fr["bytes"],
                "msgs": fr["msgs"],
                "outcome": outcome,
                "t_done": max(done) if done else None,
                "latency": self._decompose(fr),
                "segments": fr["segments"],
            })
        return {
            "scenario": self.scenario,
            "flow": self._flow_id,
            "path": {"hops": [[bw, d] for bw, d in self._path_hops]},
            "frames": frames,
            "episodes": self.episodes,
            "actions": self.actions,
            "counts": counts,
            "frames_with_delivery": frames_with_delivery,
        }
