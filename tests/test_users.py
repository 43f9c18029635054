"""Tests for user perception, engagement models and populations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.session import ExitObservation
from repro.users import (
    BaselineExitModel,
    DataDrivenUser,
    QoSAwareExitModel,
    RuleBasedUser,
    UserPopulation,
    features_from_segments,
    fit_data_driven_user,
)
from repro.users.perception import (
    SensitivityArchetype,
    StallSensitivityProfile,
    sample_profile,
)


def make_observation(
    stall_time=0.0,
    cumulative=0.0,
    stall_count=0,
    watch_time=10.0,
    level=2,
    previous_level=2,
    bitrate=1850.0,
):
    return ExitObservation(
        segment_index=5,
        level=level,
        previous_level=previous_level,
        bitrate_kbps=bitrate,
        stall_time=stall_time,
        cumulative_stall_time=cumulative,
        stall_count=stall_count,
        watch_time=watch_time,
        buffer=5.0,
        segments_since_last_stall=3,
        throughput_kbps=3000.0,
    )


class TestStallSensitivityProfile:
    def test_zero_stall_zero_probability(self):
        profile = StallSensitivityProfile()
        assert profile.stall_exit_probability(0.0) == 0.0

    @pytest.mark.parametrize("archetype", list(SensitivityArchetype))
    def test_monotone_in_stall_time(self, archetype):
        profile = StallSensitivityProfile(archetype=archetype, tolerance_s=4.0)
        values = [profile.stall_exit_probability(s) for s in (0.5, 2.0, 5.0, 10.0, 30.0)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_threshold_jump_around_tolerance(self):
        profile = StallSensitivityProfile(
            archetype=SensitivityArchetype.THRESHOLD, tolerance_s=4.0, peak_exit_probability=0.9
        )
        assert profile.stall_exit_probability(1.0) < 0.1
        assert profile.stall_exit_probability(8.0) > 0.7

    def test_multiple_stalls_raise_probability(self):
        profile = StallSensitivityProfile(tolerance_s=4.0)
        single = profile.stall_exit_probability(5.0, stall_count=1)
        repeated = profile.stall_exit_probability(5.0, stall_count=4)
        assert repeated >= single

    def test_drift_changes_tolerance_but_not_shape(self, rng):
        profile = StallSensitivityProfile(daily_drift_s=2.0)
        drifted = profile.drifted(rng)
        assert drifted.archetype == profile.archetype
        assert drifted.tolerance_s > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            StallSensitivityProfile(tolerance_s=0)
        with pytest.raises(ValueError):
            StallSensitivityProfile(peak_exit_probability=0)
        with pytest.raises(ValueError):
            StallSensitivityProfile(daily_drift_s=-1)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0, max_value=60), st.integers(min_value=1, max_value=10))
    def test_probability_always_valid(self, stall_time, count):
        profile = StallSensitivityProfile()
        assert 0.0 <= profile.stall_exit_probability(stall_time, count) <= 1.0

    def test_population_sampling_heterogeneous(self):
        rng = np.random.default_rng(0)
        profiles = [sample_profile(rng) for _ in range(300)]
        tolerances = np.asarray([p.tolerance_s for p in profiles])
        assert tolerances.min() < 2.0
        assert tolerances.max() > 8.0
        archetypes = {p.archetype for p in profiles}
        assert archetypes == set(SensitivityArchetype)


class TestExitModels:
    def test_baseline_hazard_decays_with_watch_time(self):
        model = BaselineExitModel()
        early = model.exit_probability(make_observation(watch_time=2.0))
        late = model.exit_probability(make_observation(watch_time=120.0))
        assert early > late >= model.floor_hazard - 1e-9

    def test_qos_aware_orders_of_magnitude(self):
        model = QoSAwareExitModel()
        base = model.exit_probability(make_observation(level=3, previous_level=3))
        low_quality = model.exit_probability(make_observation(level=0, previous_level=0))
        switched = model.exit_probability(make_observation(level=1, previous_level=3))
        stalled = model.exit_probability(
            make_observation(stall_time=3.0, cumulative=6.0, stall_count=1)
        )
        assert low_quality > base
        assert switched > low_quality
        assert stalled > switched
        assert stalled - base > 0.05

    def test_qos_aware_engagement_discount(self):
        model = QoSAwareExitModel()
        fresh = model.exit_probability(
            make_observation(stall_time=3.0, cumulative=6.0, stall_count=1, watch_time=6.0)
        )
        engaged = model.exit_probability(
            make_observation(stall_time=3.0, cumulative=6.0, stall_count=1, watch_time=60.0)
        )
        assert engaged < fresh

    def test_rule_based_thresholds(self):
        user = RuleBasedUser(stall_time_threshold_s=4.0, stall_count_threshold=3)
        assert user.exit_probability(make_observation(cumulative=1.0, stall_count=1)) == 0.0
        assert user.exit_probability(make_observation(cumulative=4.5, stall_count=1)) == 1.0
        assert user.exit_probability(make_observation(cumulative=1.0, stall_count=3)) == 1.0
        with pytest.raises(ValueError):
            RuleBasedUser(stall_time_threshold_s=0)

    def test_probabilities_always_valid(self):
        models = [BaselineExitModel(), QoSAwareExitModel(), RuleBasedUser()]
        for model in models:
            for stall in (0.0, 1.0, 10.0):
                p = model.exit_probability(
                    make_observation(stall_time=stall, cumulative=stall, stall_count=1)
                )
                assert 0.0 <= p <= 1.0


class TestDataDrivenUser:
    def test_fit_learns_stall_direction(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(400, 7))
        features[:, 0] = np.abs(features[:, 0])
        labels = (features[:, 0] > 0.8).astype(int)
        user = fit_data_driven_user(features, labels)
        assert isinstance(user, DataDrivenUser)
        high = user.exit_probability(make_observation(stall_time=5.0, cumulative=5.0, stall_count=2))
        low = user.exit_probability(make_observation(stall_time=0.0))
        assert high > low

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            fit_data_driven_user(np.zeros((0, 7)), np.zeros(0))
        with pytest.raises(ValueError):
            fit_data_driven_user(np.zeros((3, 7)), np.zeros(4))

    def test_features_from_segments(self, video, low_bandwidth_trace, rng):
        from repro.abr.hyb import HYB
        from repro.sim.session import PlaybackSession

        trace = PlaybackSession().run(HYB(), video, low_bandwidth_trace, rng=rng)
        features, labels = features_from_segments(trace.segments)
        assert features.shape == (len(trace), 7)
        assert labels.shape == (len(trace),)
        with pytest.raises(ValueError):
            features_from_segments(trace.segments[:0])


class TestUserPopulation:
    def test_generation_size_and_ids_unique(self, population):
        assert len(population) == 30
        ids = [p.user_id for p in population]
        assert len(set(ids)) == 30

    def test_bandwidth_distribution_long_tail(self):
        population = UserPopulation.generate(300, seed=1, bandwidth_median_kbps=8000)
        bandwidths = population.mean_bandwidths()
        below = np.mean(bandwidths < 4300)
        assert 0.02 < below < 0.45

    def test_low_bandwidth_filter(self, population):
        low = population.low_bandwidth_users(2000)
        assert all(p.mean_bandwidth_kbps < 2000 for p in low)

    def test_split_disjoint_and_complete(self, population):
        a, b = population.split(0.5, seed=2)
        ids_a = {p.user_id for p in a}
        ids_b = {p.user_id for p in b}
        assert ids_a.isdisjoint(ids_b)
        assert len(ids_a) + len(ids_b) == len(population)

    def test_next_day_keeps_users(self, population, rng):
        tomorrow = population.next_day(rng)
        assert [p.user_id for p in tomorrow] == [p.user_id for p in population]

    def test_profile_exit_model_and_trace(self, population, rng):
        profile = population[0]
        model = profile.exit_model()
        assert 0.0 <= model.exit_probability(make_observation()) <= 1.0
        trace = profile.bandwidth_trace(20, rng)
        assert len(trace) == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            UserPopulation([])
        with pytest.raises(ValueError):
            UserPopulation.generate(0)
        with pytest.raises(ValueError):
            UserPopulation.generate(5).split(1.5)
