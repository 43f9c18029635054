"""Tests for the LingXi core: state, OS model, predictor, parameter space,
triggers, Monte-Carlo evaluator, controller and persistence."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.abr.base import QoEParameters
from repro.abr.hyb import HYB
from repro.core import (
    ControllerConfig,
    ExitRatePredictor,
    LingXiABR,
    LingXiController,
    MonteCarloConfig,
    MonteCarloEvaluator,
    OverallStatisticsModel,
    ParameterSpace,
    PlayerSnapshot,
    PruningPolicy,
    TriggerPolicy,
    UserState,
)
from repro.core.persistence import load_long_term_state, save_long_term_state
from repro.datasets.stall_dataset import NUM_FEATURES, WINDOW_LENGTH
from repro.sim.bandwidth import BandwidthModel
from repro.sim.session import PlaybackSession
from repro.sim.video import BitrateLadder
from repro.users.engagement import RuleBasedUser


@pytest.fixture
def user_state_with_history() -> UserState:
    state = UserState()
    state.start_session()
    for i in range(6):
        state.observe_segment(
            bitrate_kbps=1850.0,
            throughput_kbps=2000.0,
            stall_time=0.5 if i % 2 else 0.0,
            segment_duration=2.0,
            exited=(i == 5),
        )
    return state


def make_snapshot(mean_kbps=1500.0, buffer=2.0) -> PlayerSnapshot:
    bandwidth = BandwidthModel()
    bandwidth.extend([mean_kbps, mean_kbps * 0.9, mean_kbps * 1.1])
    return PlayerSnapshot(
        ladder=BitrateLadder(),
        segment_duration=2.0,
        buffer=buffer,
        last_level=1,
        bandwidth_model=bandwidth,
    )


class TestUserState:
    def test_observation_updates_both_layers(self, user_state_with_history):
        state = user_state_with_history
        assert state.session_stall_count == 3
        assert state.lifetime_stall_events == 3
        assert state.lifetime_stall_exits == 1
        assert state.session_watch_time == pytest.approx(12.0)
        assert 0.0 < state.stall_exit_propensity <= 1.0

    def test_start_session_keeps_long_term(self, user_state_with_history):
        state = user_state_with_history
        state.start_session()
        assert state.session_stall_count == 0
        assert state.lifetime_stall_events == 3

    def test_feature_matrix_shape_and_bounds(self, user_state_with_history):
        matrix = user_state_with_history.feature_matrix()
        assert matrix.shape == (NUM_FEATURES, WINDOW_LENGTH)
        assert np.all(np.isfinite(matrix))

    def test_copy_independent(self, user_state_with_history):
        clone = user_state_with_history.copy()
        clone.observe_segment(1000.0, 1000.0, 0.0, 2.0)
        assert clone.lifetime_segments == user_state_with_history.lifetime_segments + 1

    def test_tolerance_estimate_tracks_exit_history(self):
        state = UserState()
        state.observe_segment(1000.0, 1000.0, 3.0, 2.0, exited=True)
        assert state.tolerance_estimate_s == pytest.approx(3.0)

    def test_invalid_observation(self):
        state = UserState()
        with pytest.raises(ValueError):
            state.observe_segment(0.0, 1000.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            state.observe_segment(1000.0, 1000.0, -1.0, 2.0)

    def test_long_term_roundtrip(self, user_state_with_history):
        payload = user_state_with_history.long_term_dict()
        fresh = UserState()
        fresh.restore_long_term(payload)
        assert fresh.lifetime_stall_exits == user_state_with_history.lifetime_stall_exits
        assert fresh.tolerance_estimate_s == pytest.approx(
            user_state_with_history.tolerance_estimate_s
        )


class TestOverallStatisticsModel:
    def test_defaults_are_probabilities(self):
        model = OverallStatisticsModel()
        for level in range(4):
            for switch in (-2, 0, 2):
                assert 0.0 <= model.predict(level, switch) <= 1.0

    def test_switch_and_downward_penalties(self):
        model = OverallStatisticsModel()
        assert model.predict(2, 1) > model.predict(2, 0)
        assert model.predict(2, -1) > model.predict(2, 1)

    def test_fit_from_logs(self, tiny_substrate):
        model = OverallStatisticsModel.fit(tiny_substrate.logs, 4)
        assert model.num_levels == 4
        assert np.all(model.level_rates >= 0) and np.all(model.level_rates <= 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            OverallStatisticsModel(level_rates=np.asarray([1.5]))
        with pytest.raises(ValueError):
            OverallStatisticsModel(level_rates=np.asarray([]))
        with pytest.raises(ValueError):
            OverallStatisticsModel().predict(-1, 0)
        with pytest.raises(ValueError):
            OverallStatisticsModel().predict_many([0, -1], [0, 0])

    @staticmethod
    def _formula(model, level, switch):
        """Equation 4's OS term, written out the long way."""
        rate = model.level_rates[min(level, model.level_rates.size - 1)]
        offset = model.switch_offsets[min(abs(switch), model.switch_offsets.size - 1)]
        if switch < 0:
            offset += model.downward_extra
        return float(np.clip(rate + offset, 0.0, 1.0))

    def test_table_lookup_equals_the_formula_everywhere(self):
        # Levels past the last row, |switch| past the last offset with both
        # signs, and single-offset models, whose table still needs a
        # downward column.
        rng = np.random.default_rng(7)
        for trial in range(200):
            num_levels = int(rng.integers(1, 6))
            num_offsets = 1 if trial % 4 == 0 else int(rng.integers(1, 6))
            model = OverallStatisticsModel(
                level_rates=rng.uniform(0.0, 1.0, num_levels),
                switch_offsets=rng.uniform(-0.2, 0.6, num_offsets),
                downward_extra=float(rng.uniform(0.0, 0.3)),
            )
            levels, switches = np.meshgrid(
                np.arange(num_levels + 3),
                np.arange(-num_offsets - 3, num_offsets + 4),
                indexing="ij",
            )
            expected = np.asarray(
                [
                    self._formula(model, int(l), int(s))
                    for l, s in zip(levels.ravel(), switches.ravel())
                ]
            )
            scalar = [
                model.predict(int(l), int(s))
                for l, s in zip(levels.ravel(), switches.ravel())
            ]
            np.testing.assert_array_equal(scalar, expected)
            np.testing.assert_array_equal(
                model.predict_many(levels.ravel(), switches.ravel()), expected
            )

    def test_model_is_frozen_with_read_only_arrays(self):
        model = OverallStatisticsModel()
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.downward_extra = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.level_rates = np.zeros(4)
        for array in (model.level_rates, model.switch_offsets, model.table):
            with pytest.raises(ValueError):
                array[0] = 0.5
        # The caller's arrays are copied, not frozen in place.
        rates = np.asarray([0.1, 0.2])
        OverallStatisticsModel(level_rates=rates)
        rates[0] = 0.3
        # Copies rebuild the table and stay read-only.
        for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            np.testing.assert_array_equal(clone.table, model.table)
            assert not clone.table.flags.writeable
            assert not clone.level_rates.flags.writeable


class TestExitRatePredictor:
    def test_untrained_predictor_still_bounded(self, user_state_with_history):
        predictor = ExitRatePredictor()
        value = predictor.predict(
            user_state_with_history.feature_matrix(), level=2, switch_magnitude=0, stalled=True
        )
        assert 0.0 <= value <= 1.0

    def test_no_stall_uses_statistics_only(self, user_state_with_history):
        predictor = ExitRatePredictor()
        value = predictor.predict(
            user_state_with_history.feature_matrix(), level=2, switch_magnitude=0, stalled=False
        )
        assert value == pytest.approx(predictor.statistics_model.predict(2, 0))

    def test_rejects_bad_feature_shape(self):
        predictor = ExitRatePredictor()
        with pytest.raises(ValueError):
            predictor.stall_exit_probability(np.zeros((2, 2)))

    def test_training_improves_over_chance(self, tiny_substrate):
        from repro.datasets import DatasetComposition, build_exit_dataset
        from repro.core.exit_predictor import train_and_evaluate

        dataset = build_exit_dataset(tiny_substrate.training_logs, DatasetComposition.STALL)
        _predictor, evaluation = train_and_evaluate(dataset, epochs=4, seed=0)
        assert 0.0 <= evaluation.accuracy <= 1.0
        assert evaluation.recall > 0.0


class TestParameterSpace:
    def test_roundtrip(self):
        space = ParameterSpace.for_qoe_lin()
        parameters = space.to_parameters(np.asarray([10.0, 2.0]))
        assert parameters.stall_penalty == 10.0
        np.testing.assert_allclose(space.to_vector(parameters), [10.0, 2.0])

    def test_clipping(self):
        space = ParameterSpace.for_hyb(beta_range=(0.4, 1.0))
        assert space.to_parameters(np.asarray([5.0])).beta == 1.0

    def test_candidate_grid(self):
        space = ParameterSpace.for_qoe_lin()
        grid = space.candidate_grid(3)
        assert len(grid) == 9
        assert all(isinstance(p, QoEParameters) for p in grid)

    def test_sample_in_bounds(self, rng):
        space = ParameterSpace.for_hyb()
        for _ in range(10):
            assert 0.4 <= space.sample(rng).beta <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterSpace(names=("bogus",), bounds=((0.0, 1.0),))
        with pytest.raises(ValueError):
            ParameterSpace(names=("beta",), bounds=((1.0, 0.5),))


class TestTriggerAndPruning:
    def test_trigger_threshold(self):
        trigger = TriggerPolicy(stall_count_threshold=2)
        assert not trigger.should_trigger(2)
        assert trigger.should_trigger(3)
        with pytest.raises(ValueError):
            TriggerPolicy(stall_count_threshold=0)

    def test_bandwidth_pruning(self):
        pruning = PruningPolicy()
        rich = BandwidthModel()
        rich.extend([30000.0, 31000.0, 29500.0, 30200.0])
        poor = BandwidthModel()
        poor.extend([1500.0, 1400.0, 1600.0])
        assert pruning.skip_optimization(rich, 4300.0)
        assert not pruning.skip_optimization(poor, 4300.0)

    def test_candidate_abort(self):
        pruning = PruningPolicy(min_virtual_segments=4)
        assert not pruning.abort_candidate(5, 2, 0.1)
        assert pruning.abort_candidate(5, 10, 0.1)
        assert not pruning.abort_candidate(0, 10, float("inf"))


class TestMonteCarloEvaluator:
    def test_exit_rate_in_unit_interval(self, tiny_substrate, user_state_with_history):
        evaluator = MonteCarloEvaluator(
            tiny_substrate.predictor, MonteCarloConfig(num_samples=2, max_sample_duration_s=20)
        )
        value = evaluator.evaluate(
            QoEParameters(), HYB(), make_snapshot(), user_state_with_history
        )
        assert 0.0 <= value <= 1.0

    def test_restores_abr_parameters(self, tiny_substrate, user_state_with_history):
        evaluator = MonteCarloEvaluator(
            tiny_substrate.predictor, MonteCarloConfig(num_samples=1, max_sample_duration_s=10)
        )
        abr = HYB(QoEParameters(beta=0.77))
        evaluator.evaluate(QoEParameters(beta=0.4), abr, make_snapshot(), user_state_with_history)
        assert abr.parameters.beta == 0.77

    def test_deterministic_under_same_rng(self, tiny_substrate, user_state_with_history):
        evaluator = MonteCarloEvaluator(
            tiny_substrate.predictor, MonteCarloConfig(num_samples=2, max_sample_duration_s=20)
        )
        values = [
            evaluator.evaluate(
                QoEParameters(),
                HYB(),
                make_snapshot(),
                user_state_with_history,
                rng=np.random.default_rng(7),
            )
            for _ in range(2)
        ]
        assert values[0] == values[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(num_samples=0)
        with pytest.raises(ValueError):
            MonteCarloConfig(max_sample_duration_s=0)


class TestControllerAndWrapper:
    def _controller(self, substrate, mode="bayesian"):
        return LingXiController(
            parameter_space=ParameterSpace.for_hyb(),
            predictor=substrate.predictor,
            monte_carlo=MonteCarloConfig(num_samples=2, max_sample_duration_s=20),
            config=ControllerConfig(mode=mode, max_sample_times=2, seed=0),
        )

    def test_trigger_accumulates_and_resets(self, tiny_substrate):
        controller = self._controller(tiny_substrate)
        for _ in range(3):
            controller.observe_segment(1000.0, 1200.0, 0.5, 2.0)
        bandwidth = BandwidthModel()
        bandwidth.extend([1200.0, 1100.0, 1300.0])
        assert controller.should_optimize(bandwidth, 4300.0)
        controller.optimize(HYB(), make_snapshot())
        assert controller.stalls_since_optimization == 0
        assert len(controller.history) == 1

    def test_high_bandwidth_pruned(self, tiny_substrate):
        controller = self._controller(tiny_substrate)
        for _ in range(5):
            controller.observe_segment(4300.0, 30000.0, 0.5, 2.0)
        rich = BandwidthModel()
        rich.extend([30000.0, 29000.0, 31000.0, 30500.0])
        assert not controller.should_optimize(rich, 4300.0)

    @pytest.mark.parametrize("mode", ["fixed", "bayesian"])
    def test_optimize_returns_parameters_in_space(self, tiny_substrate, mode):
        controller = self._controller(tiny_substrate, mode=mode)
        controller.observe_segment(1000.0, 1200.0, 1.0, 2.0, exited=False)
        parameters = controller.optimize(HYB(), make_snapshot())
        assert 0.4 <= parameters.beta <= 1.0

    def test_lingxi_abr_adapts_stall_sensitive_user(self, tiny_substrate, video, low_bandwidth_trace):
        controller = self._controller(tiny_substrate)
        lingxi = LingXiABR(HYB(), controller)
        user = RuleBasedUser(stall_time_threshold_s=2.0, stall_count_threshold=3)
        engine = PlaybackSession()
        for i in range(6):
            engine.run(lingxi, video, low_bandwidth_trace, exit_model=user, rng=np.random.default_rng(i))
        assert len(controller.history) >= 1
        assert lingxi.parameters.beta <= 0.9
        assert lingxi.inner.parameters == lingxi.parameters
        assert lingxi.name == "LingXi(HYB)"

    def test_controller_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(mode="nope")
        with pytest.raises(ValueError):
            ControllerConfig(max_sample_times=0)

    def test_persistence_roundtrip(self, tiny_substrate, tmp_path):
        controller = self._controller(tiny_substrate)
        controller.observe_segment(1000.0, 1200.0, 1.5, 2.0, exited=True)
        controller.optimize(HYB(), make_snapshot())
        path = tmp_path / "state.json"
        save_long_term_state(controller, path)

        fresh = self._controller(tiny_substrate)
        load_long_term_state(fresh, path)
        assert fresh.best_parameters == controller.best_parameters
        assert fresh.user_state.lifetime_stall_events == controller.user_state.lifetime_stall_events
