"""Tests for QoE metrics, log aggregation, A/B statistics and correlations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.abr.hyb import HYB
from repro.analytics import (
    LogCollection,
    SessionLog,
    aggregate_daily_metrics,
    difference_in_differences,
    linear_trend,
    pearson_correlation,
    qoe_lin,
    qoe_lin_components,
    relative_improvement,
    session_qoe_lin,
    welch_ttest,
)
from repro.analytics.metrics import normalize_series
from repro.sim.session import PlaybackSession
from repro.users.engagement import QoSAwareExitModel


@pytest.fixture
def small_logs(library, low_bandwidth_trace, high_bandwidth_trace, rng):
    """A small log corpus with both constrained and unconstrained sessions."""
    engine = PlaybackSession()
    sessions = []
    for day in range(2):
        for i, trace in enumerate((low_bandwidth_trace, high_bandwidth_trace)):
            for session_index in range(3):
                playback = engine.run(
                    HYB(),
                    library[session_index],
                    trace,
                    exit_model=QoSAwareExitModel(),
                    rng=rng,
                    user_id=f"user{i}",
                )
                sessions.append(
                    SessionLog(
                        user_id=f"user{i}",
                        day=day,
                        session_index=session_index,
                        trace=playback,
                        mean_bandwidth_kbps=trace.mean,
                    )
                )
    return LogCollection(sessions)


class TestQoELin:
    def test_components(self):
        qualities = np.asarray([1.0, 2.0, 1.0])
        stalls = np.asarray([0.0, 0.5, 0.0])
        quality_sum, stall_sum, switch_sum = qoe_lin_components(qualities, stalls)
        assert quality_sum == 4.0
        assert stall_sum == 0.5
        assert switch_sum == 2.0

    def test_linear_formula(self):
        qualities = np.asarray([1.0, 2.0])
        stalls = np.asarray([0.0, 1.0])
        assert qoe_lin(qualities, stalls, stall_penalty=4.0, switch_penalty=1.0) == pytest.approx(
            3.0 - 4.0 - 1.0
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            qoe_lin(np.ones(2), np.ones(3), 1.0)
        with pytest.raises(ValueError):
            qoe_lin(np.ones(2), np.ones(2), -1.0)

    def test_session_qoe_defaults_to_max_quality_penalty(self, video, high_bandwidth_trace, rng):
        playback = PlaybackSession().run(HYB(), video, high_bandwidth_trace, rng=rng)
        value = session_qoe_lin(playback)
        assert np.isfinite(value)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=20), st.floats(min_value=0, max_value=10))
    def test_more_stall_never_increases_qoe(self, n, extra_stall):
        qualities = np.ones(n)
        stalls = np.zeros(n)
        base = qoe_lin(qualities, stalls, stall_penalty=4.3)
        stalls_worse = stalls.copy()
        stalls_worse[0] += extra_stall
        assert qoe_lin(qualities, stalls_worse, stall_penalty=4.3) <= base + 1e-9


class TestLogCollection:
    def test_basic_accessors(self, small_logs):
        assert len(small_logs) == 12
        assert set(small_logs.users()) == {"user0", "user1"}
        assert small_logs.days() == [0, 1]

    def test_filter_and_extend(self, small_logs):
        day0 = small_logs.filter(lambda s: s.day == 0)
        assert len(day0) == 6
        combined = day0.extend(small_logs.filter(lambda s: s.day == 1))
        assert len(combined) == 12
        with pytest.raises(ValueError):
            small_logs.filter(lambda s: False)

    def test_segment_exit_rate_bounds(self, small_logs):
        rate = small_logs.segment_exit_rate()
        assert 0.0 <= rate <= 1.0
        stall_rate = small_logs.segment_exit_rate(lambda r: r.stall_time > 0)
        assert np.isnan(stall_rate) or 0.0 <= stall_rate <= 1.0

    def test_exit_rate_by_level_shape(self, small_logs):
        rates = small_logs.exit_rate_by_level(4)
        assert rates.shape == (4,)

    def test_exit_rate_by_level_equals_per_record_rates(self, small_logs):
        # one level past the ladder: never watched, so nan
        reference = [
            small_logs.segment_exit_rate(lambda r, lvl=level: r.level == lvl)
            for level in range(5)
        ]
        assert np.isnan(reference[-1])
        np.testing.assert_array_equal(small_logs.exit_rate_by_level(5), reference)
        np.testing.assert_array_equal(small_logs.exit_rate_by_level(2), reference[:2])

    def test_non_stall_exit_rates_equal_the_predicate_scan(self, small_logs):
        # The OS model's level table and Figure 4a read these columns; the
        # values must be the per-record scan's, bit for bit.
        assert any(r.stall_time > 0 for s in small_logs for r in s.records)
        by_level, overall = small_logs.non_stall_exit_rates(5)
        reference = [
            small_logs.segment_exit_rate(
                lambda r, lvl=level: r.level == lvl and r.stall_time <= 0
            )
            for level in range(5)
        ]
        assert np.isnan(reference[-1])
        np.testing.assert_array_equal(by_level, reference)
        assert overall == small_logs.segment_exit_rate(lambda r: r.stall_time <= 0)
        # Levels past ``num_levels`` still count in the overall rate.
        short, short_overall = small_logs.non_stall_exit_rates(2)
        np.testing.assert_array_equal(short, reference[:2])
        assert short_overall == overall

    @pytest.mark.parametrize(
        "column_filter, record_filter",
        [
            (None, lambda r: True),
            (lambda s: s["watch_time"] > 20.0, lambda r: r.watch_time > 20.0),
            (lambda s: s["level"] == 3, lambda r: r.level == 3),
            (lambda s: s["stall_count"] >= 2, lambda r: r.stall_count >= 2),
        ],
        ids=["all", "engaged", "top_tier", "multi_stall"],
    )
    def test_exit_rate_by_stall_equals_the_per_record_scan(
        self, small_logs, column_filter, record_filter
    ):
        # Figure 4c/4d's filters as column masks give the per-record
        # reference's counts and division, bit for bit.
        bins = [0.0, 1.0, 2.0, 4.0, 8.0]
        edges = np.asarray(bins)
        watched = np.zeros(edges.size)
        exited = np.zeros(edges.size)
        for session in small_logs:
            for record in session.records:
                if record_filter(record):
                    index = int(np.searchsorted(edges, record.cumulative_stall_time,
                                                side="right") - 1)
                    watched[max(index, 0)] += 1
                    exited[max(index, 0)] += int(record.exited)
        assert watched.sum() > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            reference = np.where(watched >= 1, exited / watched, np.nan)
        rates = small_logs.exit_rate_by_stall_time(
            bins, segment_filter=column_filter, min_samples=1
        )
        np.testing.assert_array_equal(rates, reference)

    def test_exit_rate_by_stall_respects_min_samples(self, small_logs):
        rates = small_logs.exit_rate_by_stall_time([0, 1000.0], min_samples=10**9)
        assert np.isnan(rates).all()

    def test_daily_stall_counts(self, small_logs):
        counts = small_logs.daily_stall_counts()
        assert set(counts) <= {(u, d) for u in ("user0", "user1") for d in (0, 1)}
        by_bandwidth = small_logs.daily_stall_counts_by_bandwidth([0, 2000, 1e9])
        assert len(by_bandwidth) == 2

    def test_watch_time_aggregations(self, small_logs):
        by_level = small_logs.watch_time_by_level(4)
        assert by_level.shape == (4,)
        by_stall = small_logs.watch_time_by_stall_time([0, 1, 5])
        assert by_stall.shape == (3,)

    def test_stall_exit_rate_by_user(self, small_logs):
        rates = small_logs.stall_exit_rate_by_user(min_stall_events=1)
        assert all(0.0 <= v <= 1.0 for v in rates.values())

    def test_group_by_user(self, small_logs):
        groups = small_logs.group_by_user()
        assert sum(len(v) for v in groups.values()) == len(small_logs)

    def test_empty_collection_aggregates_safely(self):
        # Zero-arrival days of longitudinal campaigns produce empty
        # collections; every aggregation must degrade to zeros/NaNs instead
        # of dividing by zero.
        empty = LogCollection([])
        assert len(empty) == 0
        assert empty.users() == []
        assert empty.days() == []
        assert np.isnan(empty.segment_exit_rate())
        assert np.all(np.isnan(empty.exit_rate_by_level(4)))
        by_level, overall = empty.non_stall_exit_rates(4)
        assert by_level.shape == (4,) and np.all(np.isnan(by_level))
        assert np.isnan(overall)
        assert empty.daily_stall_counts() == {}
        assert aggregate_daily_metrics(empty.sessions, group="empty") == []


class TestDailyMetrics:
    def test_aggregation_per_day(self, small_logs):
        rows = aggregate_daily_metrics(small_logs.sessions, group="test")
        assert [row.day for row in rows] == [0, 1]
        for row in rows:
            assert row.num_sessions == 6
            assert row.total_watch_time > 0
            assert row.stall_seconds_per_hour >= 0

    def test_normalize_series(self):
        normalized = normalize_series([2.0, 4.0], [2.0, 2.0])
        np.testing.assert_allclose(normalized, [1.0, 2.0])
        with pytest.raises(ValueError):
            normalize_series([1.0], [1.0, 2.0])


class TestABTest:
    def test_welch_ttest_detects_difference(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, 50)
        b = rng.normal(2.0, 1.0, 50)
        t, p = welch_ttest(a, b)
        assert p < 0.001
        with pytest.raises(ValueError):
            welch_ttest([1.0], [1.0, 2.0])

    def test_relative_improvement(self):
        np.testing.assert_allclose(
            relative_improvement([110.0, 90.0], [100.0, 100.0]), [0.1, -0.1]
        )
        with pytest.raises(ValueError):
            relative_improvement([1.0], [0.0])

    def test_did_recovers_known_effect(self):
        control_pre = [100.0, 101.0, 99.0]
        treatment_pre = [102.0, 103.0, 101.0]  # constant +2% bias
        control_post = [100.0, 100.0, 100.0]
        treatment_post = [105.0, 105.1, 104.9]  # bias + ~3% effect
        result = difference_in_differences(
            "watch", treatment_pre, control_pre, treatment_post, control_post
        )
        assert result.effect == pytest.approx(0.03, abs=0.005)
        assert result.p_value < 0.05
        assert "watch" in result.summary()

    def test_did_no_effect_not_significant(self):
        rng = np.random.default_rng(1)
        control = list(100 + rng.normal(0, 1, 6))
        treatment = list(100 + rng.normal(0, 1, 6))
        result = difference_in_differences(
            "x", treatment[:3], control[:3], treatment[3:], control[3:]
        )
        assert not result.significant or abs(result.effect) < 0.05

    def test_did_validation(self):
        with pytest.raises(ValueError):
            difference_in_differences("x", [1.0], [1.0], [1.0, 2.0], [1.0, 2.0])


class TestCorrelation:
    def test_pearson_known_values(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson_correlation(x, x) == pytest.approx(1.0)
        assert pearson_correlation(x, [-v for v in x]) == pytest.approx(-1.0)
        assert pearson_correlation(x, [1.0, 1.0, 1.0, 1.0]) == 0.0

    def test_linear_trend(self):
        slope, intercept = linear_trend([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            pearson_correlation([1.0], [1.0])
        with pytest.raises(ValueError):
            linear_trend([1.0, 2.0], [1.0])
