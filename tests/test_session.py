"""Tests for the playback session engine and trace records."""

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.abr.hyb import HYB
from repro.sim.session import (
    ABRContext,
    ExitObservation,
    PlaybackSession,
    SessionConfig,
)
from repro.users.engagement import RuleBasedUser


class AlwaysLowest:
    """Minimal ABR stub returning the lowest rung."""

    def select_level(self, context: ABRContext) -> int:
        return 0

    def reset(self) -> None:
        pass


class RecordingABR(AlwaysLowest):
    """Stub that records observe() callbacks."""

    def __init__(self):
        self.observed = []

    def observe(self, record) -> None:
        self.observed.append(record)


class ConstantExit:
    """Exit model with a fixed per-segment exit probability."""

    def __init__(self, probability: float):
        self.probability = probability

    def exit_probability(self, observation: ExitObservation) -> float:
        return self.probability

    def reset(self) -> None:
        pass


class TestPlaybackSession:
    def test_full_video_watched_without_exit_model(self, video, high_bandwidth_trace, rng):
        trace = PlaybackSession().run(AlwaysLowest(), video, high_bandwidth_trace, rng=rng)
        assert len(trace) == video.num_segments
        assert trace.completed
        assert trace.completion_ratio == pytest.approx(1.0)
        assert not trace.exited_early

    def test_certain_exit_stops_after_first_segment(self, video, high_bandwidth_trace, rng):
        trace = PlaybackSession().run(
            AlwaysLowest(), video, high_bandwidth_trace, exit_model=ConstantExit(1.0), rng=rng
        )
        assert len(trace) == 1
        assert trace.exited_early
        assert not trace.completed

    def test_invalid_exit_probability_raises(self, video, high_bandwidth_trace, rng):
        with pytest.raises(ValueError):
            PlaybackSession().run(
                AlwaysLowest(),
                video,
                high_bandwidth_trace,
                exit_model=ConstantExit(1.5),
                rng=rng,
            )

    def test_invalid_level_raises(self, video, high_bandwidth_trace, rng):
        class Broken(AlwaysLowest):
            def select_level(self, context):
                return 99

        with pytest.raises(ValueError):
            PlaybackSession().run(Broken(), video, high_bandwidth_trace, rng=rng)

    def test_observe_hook_called_per_segment(self, video, high_bandwidth_trace, rng):
        abr = RecordingABR()
        trace = PlaybackSession().run(abr, video, high_bandwidth_trace, rng=rng)
        assert len(abr.observed) == len(trace)

    def test_max_segments_caps_session(self, video, high_bandwidth_trace, rng):
        session = PlaybackSession(SessionConfig(max_segments=5))
        trace = session.run(AlwaysLowest(), video, high_bandwidth_trace, rng=rng)
        assert len(trace) == 5

    def test_rule_based_user_exits_on_low_bandwidth(self, video, low_bandwidth_trace, rng):
        user = RuleBasedUser(stall_time_threshold_s=1.0, stall_count_threshold=2)
        trace = PlaybackSession().run(
            HYB(), video, low_bandwidth_trace, exit_model=user, rng=rng
        )
        # HYB at beta=0.9 over a 1.2 Mbps link stalls quickly; the strict rule exits.
        assert trace.exited_early or trace.total_stall_time < 1.0

    def test_trace_metrics_consistent(self, video, low_bandwidth_trace, rng):
        trace = PlaybackSession().run(BBA(), video, low_bandwidth_trace, rng=rng)
        assert trace.watch_time == pytest.approx(len(trace) * video.segment_duration)
        assert trace.total_stall_time == pytest.approx(float(trace.stall_times.sum()))
        assert trace.stall_count == int(np.count_nonzero(trace.stall_times > 1e-12))
        assert trace.mean_bitrate_kbps == pytest.approx(float(trace.bitrates_kbps.mean()))
        assert trace.num_switches == int(np.count_nonzero(np.diff(trace.levels)))

    def test_records_monotone_cumulative_stall(self, video, low_bandwidth_trace, rng):
        trace = PlaybackSession().run(HYB(), video, low_bandwidth_trace, rng=rng)
        cumulative = [r.cumulative_stall_time for r in trace.records]
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))

    def test_empty_trace_properties(self):
        from repro.sim.session import PlaybackTrace

        empty = PlaybackTrace(video_duration=10.0, segment_duration=2.0)
        assert empty.mean_bitrate_kbps == 0.0
        assert empty.completion_ratio == 0.0
        assert empty.num_switches == 0
