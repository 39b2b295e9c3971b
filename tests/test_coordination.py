"""Unit tests for the IQ-RUDP coordination engine."""

import pytest

from repro.core.attributes import (ADAPT_COND, ADAPT_FREQ, ADAPT_MARK,
                                   ADAPT_PKTSIZE, ADAPT_WHEN, AttributeSet)
from repro.core.coordination import IQCoordinator, NullCoordinator
from repro.obs.bus import NULL_STREAM
from repro.transport.lda import LdaCC


class FakeSender:
    """Just enough sender surface for the coordinator."""

    def __init__(self, *, cwnd=20.0, frame_size=700, error_ratio=0.0):
        self.cc = LdaCC(initial_cwnd=cwnd, initial_ssthresh=4)
        self.mss = 1400
        self.last_frame_size = frame_size
        self.discard_unmarked = False
        self._eratio = error_ratio
        self.events = NULL_STREAM

    def current_error_ratio(self):
        return self._eratio


def bind(coord, **kw):
    snd = FakeSender(**kw)
    coord.bind(snd)
    return snd


class TestNullCoordinator:
    def test_ignores_everything(self):
        coord = NullCoordinator()
        snd = bind(coord)
        coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.5,
                                               ADAPT_PKTSIZE: 0.5}))
        assert snd.cc.cwnd == 20.0
        assert not snd.discard_unmarked


class TestMarking:
    def test_positive_unmark_probability_enables_discard(self):
        coord = IQCoordinator()
        snd = bind(coord)
        coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.4}))
        assert snd.discard_unmarked
        assert coord.discard_switches == 1

    def test_zero_probability_disables_discard(self):
        coord = IQCoordinator()
        snd = bind(coord)
        coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.4}))
        coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.0}))
        assert not snd.discard_unmarked
        assert coord.discard_switches == 2

    def test_repeated_same_state_not_counted_as_switch(self):
        coord = IQCoordinator()
        bind(coord)
        coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.4}))
        coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.3}))
        assert coord.discard_switches == 1

    def test_ablation_switch(self):
        coord = IQCoordinator(discard_unmarked=False)
        snd = bind(coord)
        coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.4}))
        assert not snd.discard_unmarked


class TestResolution:
    def test_reinflates_window_for_sub_mss_frames(self):
        coord = IQCoordinator()
        snd = bind(coord, cwnd=20.0, frame_size=700)
        coord.on_send_attrs(AttributeSet({ADAPT_PKTSIZE: 0.5}))
        assert snd.cc.cwnd == pytest.approx(40.0)
        assert coord.window_rescales == 1

    def test_no_reinflation_for_large_frames(self):
        """Paper: only "if the current application frame is smaller than
        the maximum RUDP segment size"."""
        coord = IQCoordinator()
        snd = bind(coord, cwnd=20.0, frame_size=2800)
        coord.on_send_attrs(AttributeSet({ADAPT_PKTSIZE: 0.5}))
        assert snd.cc.cwnd == 20.0

    def test_size_increase_deflates(self):
        coord = IQCoordinator()
        snd = bind(coord, cwnd=22.0, frame_size=770)
        coord.on_send_attrs(AttributeSet({ADAPT_PKTSIZE: -0.10}))
        assert snd.cc.cwnd == pytest.approx(20.0)

    def test_rate_chg_of_one_rejected(self):
        coord = IQCoordinator()
        bind(coord)
        with pytest.raises(ValueError):
            coord.on_send_attrs(AttributeSet({ADAPT_PKTSIZE: 1.0}))

    def test_ablation_switch(self):
        coord = IQCoordinator(reinflate_window=False)
        snd = bind(coord)
        coord.on_send_attrs(AttributeSet({ADAPT_PKTSIZE: 0.5}))
        assert snd.cc.cwnd == 20.0


class TestAdaptCond:
    def test_drift_correction_applies_eq1(self):
        """w <- w * 1/(1-rate_chg) * (1-e_new)/(1-e_old)."""
        coord = IQCoordinator()
        snd = bind(coord, cwnd=20.0, frame_size=700, error_ratio=0.2)
        attrs = AttributeSet({ADAPT_PKTSIZE: 0.5,
                              ADAPT_COND: {"error_ratio": 0.1}})
        coord.on_send_attrs(attrs)
        expected = 20.0 * (1 / 0.5) * (0.8 / 0.9)
        assert snd.cc.cwnd == pytest.approx(expected)
        assert coord.cond_corrections == 1

    def test_without_cond_attribute_no_correction(self):
        coord = IQCoordinator()
        snd = bind(coord, cwnd=20.0, frame_size=700, error_ratio=0.2)
        coord.on_send_attrs(AttributeSet({ADAPT_PKTSIZE: 0.5}))
        assert snd.cc.cwnd == pytest.approx(40.0)
        assert coord.cond_corrections == 0

    def test_use_adapt_cond_false_ignores_cond(self):
        coord = IQCoordinator(use_adapt_cond=False)
        snd = bind(coord, cwnd=20.0, frame_size=700, error_ratio=0.2)
        attrs = AttributeSet({ADAPT_PKTSIZE: 0.5,
                              ADAPT_COND: {"error_ratio": 0.1}})
        coord.on_send_attrs(attrs)
        assert snd.cc.cwnd == pytest.approx(40.0)

    def test_degenerate_eold_guarded(self):
        coord = IQCoordinator()
        snd = bind(coord, cwnd=20.0, frame_size=700)
        attrs = AttributeSet({ADAPT_PKTSIZE: 0.5,
                              ADAPT_COND: {"error_ratio": 1.0}})
        coord.on_send_attrs(attrs)  # must not divide by zero
        assert snd.cc.cwnd == pytest.approx(40.0)


class TestWhenAndFreq:
    def test_pending_defers_everything(self):
        coord = IQCoordinator()
        snd = bind(coord)
        coord.on_callback_result(AttributeSet({ADAPT_WHEN: "pending",
                                               ADAPT_PKTSIZE: 0.5}))
        assert snd.cc.cwnd == 20.0
        assert coord.pending_adaptations == 1

    def test_frequency_adaptation_never_rescales(self):
        """Paper: "for a frequency adaptation, IQ-RUDP does not have to
        increase the window size"."""
        coord = IQCoordinator()
        snd = bind(coord)
        coord.on_callback_result(AttributeSet({ADAPT_FREQ: 0.5}))
        assert snd.cc.cwnd == 20.0
        assert coord.freq_adaptations == 1

    def test_unbound_coordinator_raises(self):
        coord = IQCoordinator()
        with pytest.raises(RuntimeError):
            coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.4}))
