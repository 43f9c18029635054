"""Tests for the fleet subsystem: orchestration, telemetry, batching, scenarios."""

from __future__ import annotations

import numpy as np
import pytest

from repro.abr.base import QoEParameters
from repro.abr.hyb import HYB
from repro.core.controller import ControllerConfig, LingXiController
from repro.core.exit_predictor import ExitRatePredictor
from repro.core.monte_carlo import MonteCarloConfig, MonteCarloEvaluator
from repro.core.parameter_space import ParameterSpace
from repro.core.persistence import controller_state_payload
from repro.core.state import PlayerSnapshot, UserState
from repro.fleet import (
    BatchedExitPredictor,
    BatchedMonteCarloEvaluator,
    DeviceMixScenario,
    FlashCrowdScenario,
    FleetConfig,
    FleetOrchestrator,
    LingXiFleetFactory,
    RegionalDegradationScenario,
    SteadyStateScenario,
    TelemetryEvent,
    TelemetryWriter,
    available_scenarios,
    encode_events,
    get_scenario,
    load_fleet_checkpoint,
    save_fleet_checkpoint,
)
from repro.obs.telemetry_reader import iter_events, replay_log_collection
from repro.sim.bandwidth import BandwidthModel
from repro.sim.video import BitrateLadder, VideoLibrary
from repro.users.population import UserPopulation

STALL_BINS = [0.0, 1.0, 2.0, 4.0, 8.0]


@pytest.fixture
def fleet_population() -> UserPopulation:
    """Small population skewed low-bandwidth so stalls and exits occur."""
    return UserPopulation.generate(16, seed=5, bandwidth_median_kbps=2500.0)


@pytest.fixture
def fleet_library() -> VideoLibrary:
    return VideoLibrary(num_videos=3, mean_duration=30.0, std_duration=8.0, seed=2)


def run_small_fleet(population, library, tmp_path=None, **overrides):
    defaults = dict(
        num_shards=4, num_workers=0, sessions_per_user=2, trace_length=60, seed=9
    )
    defaults.update(overrides)
    telemetry = None if tmp_path is None else tmp_path / "telemetry.jsonl"
    return FleetOrchestrator(FleetConfig(**defaults)).run(
        population, library, telemetry_path=telemetry
    )


class TestOrchestrator:
    def test_shards_are_round_robin_and_cover_population(self, fleet_population):
        shards = fleet_population.shards(3)
        assert sum(len(s) for s in shards) == len(fleet_population)
        assert [p.user_id for p in shards[0]] == [
            p.user_id for i, p in enumerate(fleet_population) if i % 3 == 0
        ]

    def test_fleet_run_produces_expected_sessions(
        self, fleet_population, fleet_library, tmp_path
    ):
        result = run_small_fleet(fleet_population, fleet_library, tmp_path)
        assert result.metrics.num_sessions == 2 * len(fleet_population)
        assert result.metrics.num_segments > 0
        assert len(result.shard_outputs) == 4
        assert result.telemetry_path is not None and result.telemetry_path.exists()

    def test_determinism_same_seed_same_metrics(self, fleet_population, fleet_library):
        first = run_small_fleet(fleet_population, fleet_library)
        second = run_small_fleet(fleet_population, fleet_library)
        assert first.metrics == second.metrics

    def test_determinism_across_worker_counts(self, fleet_population, fleet_library):
        inline = run_small_fleet(fleet_population, fleet_library, num_workers=0)
        pooled = run_small_fleet(fleet_population, fleet_library, num_workers=2)
        assert inline.metrics == pooled.metrics
        np.testing.assert_array_equal(
            inline.logs.exit_rate_by_stall_time(STALL_BINS, min_samples=1),
            pooled.logs.exit_rate_by_stall_time(STALL_BINS, min_samples=1),
        )

    def test_different_seed_changes_traffic(self, fleet_population, fleet_library):
        first = run_small_fleet(fleet_population, fleet_library, seed=9)
        second = run_small_fleet(fleet_population, fleet_library, seed=10)
        assert first.metrics != second.metrics

    def test_rejects_invalid_config(self):
        with pytest.raises(ValueError):
            FleetConfig(num_shards=0)
        with pytest.raises(ValueError):
            FleetConfig(sessions_per_user=0)

    def test_spec_batched_is_an_accepted_keyword_not_a_field(self):
        import dataclasses

        config = FleetConfig(spec_batched=True)
        assert config == FleetConfig()
        assert hash(config) == hash(FleetConfig())
        assert "spec_batched" not in {f.name for f in dataclasses.fields(config)}
        assert dataclasses.replace(config, seed=3).seed == 3
        with pytest.raises(ValueError, match="spec_batched"):
            FleetConfig(spec_batched=False)


class TestTelemetry:
    def test_roundtrip_equals_in_memory_aggregates(
        self, fleet_population, fleet_library, tmp_path
    ):
        result = run_small_fleet(fleet_population, fleet_library, tmp_path)
        replayed = replay_log_collection(result.telemetry_path)
        assert len(replayed) == len(result.logs)
        np.testing.assert_array_equal(
            result.logs.exit_rate_by_stall_time(STALL_BINS, min_samples=1),
            replayed.exit_rate_by_stall_time(STALL_BINS, min_samples=1),
        )
        assert replayed.segment_exit_rate() == result.logs.segment_exit_rate()
        assert sum(s.watch_time for s in replayed) == sum(
            s.watch_time for s in result.logs
        )
        assert sum(s.total_stall_time for s in replayed) == sum(
            s.total_stall_time for s in result.logs
        )

    def test_event_stream_structure(self, fleet_population, fleet_library, tmp_path):
        result = run_small_fleet(fleet_population, fleet_library, tmp_path)
        events = list(iter_events(result.telemetry_path))
        assert events[0].event == "run_start"
        assert events[-1].event == "run_end"
        kinds = {event.event for event in events}
        assert kinds == {"run_start", "session", "shard_summary", "run_end"}
        sessions = [e for e in events if e.event == "session"]
        assert len(sessions) == result.metrics.num_sessions
        assert all(e.run_id == result.run_id for e in events)
        assert {e.shard for e in sessions} == {0, 1, 2, 3}
        # run_end carries the deterministic fleet metrics
        assert events[-1].payload["num_sessions"] == result.metrics.num_sessions

    def test_emit_paths_write_identical_bytes(
        self, fleet_population, fleet_library, tmp_path
    ):
        result = run_small_fleet(fleet_population, fleet_library, tmp_path)
        events = list(iter_events(result.telemetry_path))
        # Text that a locale encoding or newline translation would mangle.
        events.append(
            TelemetryEvent(
                run_id="run-\u00e9",
                shard=-1,
                user_id='u"\\\n\r\u4e2d\U0001f600',
                event="note",
                payload={"text": "\u2028\x00\t", "value": np.float64(-0.0)},
            )
        )
        paths = {name: tmp_path / f"{name}.jsonl" for name in ("emit", "many", "raw")}
        written = {}
        with TelemetryWriter(paths["emit"]) as writer:
            for event in events:
                writer.emit(event)
            written["emit"] = writer.events_written
        with TelemetryWriter(paths["many"]) as writer:
            writer.emit_many(iter(events))
            written["many"] = writer.events_written
        with TelemetryWriter(paths["raw"]) as writer:
            writer.write_raw(encode_events(events))
            written["raw"] = writer.events_written
        assert written == {"emit": len(events), "many": len(events), "raw": len(events)}
        data = {name: path.read_bytes() for name, path in paths.items()}
        assert data["emit"] == data["many"] == data["raw"]
        # Re-encoding a replayed run reproduces the run's own file.
        assert data["emit"].startswith(result.telemetry_path.read_bytes())
        assert data["emit"].count(b"\n") == len(events)


class TestBatchedPredictor:
    @pytest.fixture(scope="class")
    def predictor(self) -> ExitRatePredictor:
        return ExitRatePredictor(channels=8, hidden=16, seed=0)

    def test_predict_many_matches_per_row(self, predictor, rng):
        batched = BatchedExitPredictor(predictor)
        n = 48
        features = rng.normal(size=(n, 5, 8))
        levels = rng.integers(0, 4, size=n)
        switches = rng.integers(-3, 4, size=n)
        stalled = rng.random(n) < 0.5
        batch_values = batched.predict_many(features, levels, switches, stalled)
        row_values = np.asarray(
            [
                predictor.predict(
                    features[i],
                    level=int(levels[i]),
                    switch_magnitude=int(switches[i]),
                    stalled=bool(stalled[i]),
                )
                for i in range(n)
            ]
        )
        np.testing.assert_allclose(batch_values, row_values, atol=1e-9)

    def test_baseline_many_matches_statistics_model(self, predictor):
        batched = BatchedExitPredictor(predictor)
        levels = np.asarray([0, 1, 2, 3, 3, 7, 0])
        switches = np.asarray([0, 1, -1, 3, -3, 9, -9])
        expected = [
            predictor.statistics_model.predict(int(l), int(s))
            for l, s in zip(levels, switches)
        ]
        np.testing.assert_array_equal(batched.baseline_many(levels, switches), expected)

    def test_predict_many_rejects_bad_shapes(self, predictor):
        batched = BatchedExitPredictor(predictor)
        with pytest.raises(ValueError):
            batched.predict_many(
                np.zeros((2, 4, 8)),
                np.asarray([0, 1]),
                np.asarray([0, 0]),
                np.asarray([True, True]),
            )


def _snapshot_and_state() -> tuple[PlayerSnapshot, UserState]:
    bandwidth = BandwidthModel(window=8)
    for value in (600.0, 560.0, 640.0, 580.0, 620.0, 600.0, 590.0, 610.0):
        bandwidth.update(value)
    snapshot = PlayerSnapshot(
        ladder=BitrateLadder(),
        segment_duration=2.0,
        buffer=2.0,
        last_level=1,
        bandwidth_model=bandwidth,
    )
    state = UserState()
    for k in range(8):
        state.observe_segment(
            bitrate_kbps=750.0,
            throughput_kbps=600.0,
            stall_time=0.4 if k % 2 == 0 else 0.0,
            segment_duration=2.0,
        )
    return snapshot, state


class TestBatchedMonteCarlo:
    @pytest.fixture(scope="class")
    def predictor(self) -> ExitRatePredictor:
        return ExitRatePredictor(channels=8, hidden=16, seed=0)

    def test_deterministic_for_fixed_seed(self, predictor):
        snapshot, state = _snapshot_and_state()
        evaluator = BatchedMonteCarloEvaluator(
            predictor, config=MonteCarloConfig(num_samples=6, seed=3)
        )
        abr = HYB()
        parameters = QoEParameters(beta=0.8)
        first = evaluator.evaluate(
            parameters, abr, snapshot, state, rng=np.random.default_rng(7)
        )
        second = evaluator.evaluate(
            parameters, abr, snapshot, state, rng=np.random.default_rng(7)
        )
        assert first == second
        assert 0.0 <= first <= 1.0

    def test_restores_live_parameters(self, predictor):
        snapshot, state = _snapshot_and_state()
        evaluator = BatchedMonteCarloEvaluator(
            predictor, config=MonteCarloConfig(num_samples=4, seed=3)
        )
        abr = HYB(parameters=QoEParameters(beta=0.9))
        evaluator.evaluate(QoEParameters(beta=0.5), abr, snapshot, state)
        assert abr.parameters.beta == 0.9

    def test_constant_probability_bounds(self, predictor):
        snapshot, state = _snapshot_and_state()

        class ConstantPredictor(BatchedExitPredictor):
            def __init__(self, value):
                super().__init__(ExitRatePredictor(channels=8, hidden=16, seed=1))
                self.value = value

            def predict_many(self, features, levels, switches, stalled):
                return np.full(np.asarray(levels).size, self.value)

        always = BatchedMonteCarloEvaluator(
            ConstantPredictor(1.0), config=MonteCarloConfig(num_samples=5, seed=0)
        )
        never = BatchedMonteCarloEvaluator(
            ConstantPredictor(0.0), config=MonteCarloConfig(num_samples=5, seed=0)
        )
        abr = HYB()
        parameters = QoEParameters(beta=0.8)
        assert always.evaluate(parameters, abr, snapshot, state) == 1.0
        assert never.evaluate(parameters, abr, snapshot, state) == 0.0

    def test_agrees_with_sequential_estimator(self, predictor):
        """Both estimators target the same quantity; with many samples the
        estimates must land in the same neighbourhood."""
        snapshot, state = _snapshot_and_state()
        config = MonteCarloConfig(num_samples=48, max_sample_duration_s=40.0, seed=3)
        abr = HYB()
        parameters = QoEParameters(beta=0.8)
        sequential = MonteCarloEvaluator(predictor, config=config).evaluate(
            parameters, abr, snapshot, state, rng=np.random.default_rng(11)
        )
        lockstep = BatchedMonteCarloEvaluator(predictor, config=config).evaluate(
            parameters, abr, snapshot, state, rng=np.random.default_rng(11)
        )
        assert abs(sequential - lockstep) < 0.2

    def test_drops_into_controller(self, predictor):
        controller = LingXiController(
            parameter_space=ParameterSpace.for_hyb(),
            predictor=predictor,
            monte_carlo=MonteCarloConfig(num_samples=2, seed=0),
            config=ControllerConfig(mode="fixed", fixed_candidates_per_dimension=2),
        )
        snapshot, state = _snapshot_and_state()
        controller.user_state = state
        chosen = controller.optimize(HYB(), snapshot)
        assert isinstance(chosen, QoEParameters)
        assert len(controller.history) == 1


class TestScenarios:
    def test_registry_contains_builtin_workloads(self):
        names = available_scenarios()
        for expected in (
            "steady_state",
            "flash_crowd",
            "regional_degradation",
            "device_mix",
        ):
            assert expected in names
        with pytest.raises(KeyError):
            get_scenario("not_a_scenario")

    def test_flash_crowd_multiplies_sessions_and_congests(self, fleet_population, rng):
        steady = SteadyStateScenario()
        crowd = FlashCrowdScenario(session_multiplier=3.0, congestion_factor=0.5)
        profile = fleet_population[0]
        base = profile.sessions_per_day
        assert crowd.sessions_for(base, rng) == 3 * steady.sessions_for(base, rng)
        steady_trace = steady.trace_for(profile, np.random.default_rng(0), 80)
        crowd_trace = crowd.trace_for(profile, np.random.default_rng(0), 80)
        assert crowd_trace.mean < steady_trace.mean

    def test_regional_degradation_hits_fixed_cohort(self, fleet_population):
        scenario = RegionalDegradationScenario(
            affected_fraction=0.5, degradation_factor=0.25
        )
        affected = [p for p in fleet_population if scenario.is_affected(p)]
        unaffected = [p for p in fleet_population if not scenario.is_affected(p)]
        assert affected and unaffected
        profile = affected[0]
        degraded = scenario.trace_for(profile, np.random.default_rng(1), 120)
        baseline = profile.bandwidth_trace(120, np.random.default_rng(1))
        assert degraded.mean < baseline.mean
        # cohort membership is stable (hash-based, not RNG-consuming)
        assert [scenario.is_affected(p) for p in fleet_population] == [
            scenario.is_affected(p) for p in fleet_population
        ]

    def test_device_mix_assigns_ladders(self, fleet_population, rng):
        scenario = DeviceMixScenario(mobile_fraction=0.5, tv_fraction=0.2, seed=0)
        library = VideoLibrary(num_videos=2, seed=0)
        devices = {scenario.device_for(p) for p in fleet_population}
        assert devices <= {"mobile", "desktop", "tv"}
        full_levels = BitrateLadder().num_levels
        for profile in fleet_population:
            video = scenario.video_for(profile, library, rng)
            if scenario.device_for(profile) == "mobile":
                assert video.ladder.num_levels == full_levels - 1
            else:
                assert video.ladder.num_levels == full_levels

    def test_scenario_shapes_fleet_traffic(self, fleet_population, fleet_library):
        steady = run_small_fleet(fleet_population, fleet_library)
        crowd = FleetOrchestrator(
            FleetConfig(
                num_shards=2, num_workers=0, sessions_per_user=2, trace_length=60, seed=9
            )
        ).run(fleet_population, fleet_library, scenario="flash_crowd")
        assert crowd.metrics.num_sessions == 3 * steady.metrics.num_sessions


class TestCheckpoint:
    def _controller(self, seed: int = 0) -> LingXiController:
        return LingXiController(
            parameter_space=ParameterSpace.for_hyb(),
            predictor=ExitRatePredictor(channels=8, hidden=16, seed=seed),
            config=ControllerConfig(seed=seed),
        )

    def test_checkpoint_roundtrip_via_fleet_run(
        self, fleet_population, fleet_library, tmp_path
    ):
        predictor = ExitRatePredictor(channels=8, hidden=16, seed=0)
        factory = LingXiFleetFactory(
            predictor, monte_carlo=MonteCarloConfig(num_samples=2, seed=0)
        )
        small = UserPopulation(list(fleet_population)[:4])
        config = FleetConfig(
            num_shards=2, num_workers=0, sessions_per_user=1, trace_length=40, seed=3
        )
        result = FleetOrchestrator(config).run(small, fleet_library, abr_factory=factory)
        assert set(result.controller_states) == {p.user_id for p in small}

        path = save_fleet_checkpoint(result, tmp_path / "ckpt.json")
        checkpoint = load_fleet_checkpoint(path)
        assert checkpoint.num_users == 4
        assert checkpoint.states == result.controller_states

        # Restoring into a fresh controller reproduces the long-term layer.
        user_id = next(iter(checkpoint.states))
        controller = self._controller()
        from repro.core.persistence import restore_controller_state

        restore_controller_state(controller, checkpoint.states[user_id])
        assert (
            controller_state_payload(controller)["user_state"]
            == checkpoint.states[user_id]["user_state"]
        )

    def test_resumed_run_carries_lifetime_state(
        self, fleet_population, fleet_library
    ):
        predictor = ExitRatePredictor(channels=8, hidden=16, seed=0)
        factory = LingXiFleetFactory(
            predictor, monte_carlo=MonteCarloConfig(num_samples=2, seed=0)
        )
        small = UserPopulation(list(fleet_population)[:3])
        config = FleetConfig(
            num_shards=1, num_workers=0, sessions_per_user=1, trace_length=40, seed=3
        )
        day0 = FleetOrchestrator(config).run(small, fleet_library, abr_factory=factory)
        day1 = FleetOrchestrator(config).run(
            small,
            fleet_library,
            abr_factory=factory,
            controller_states=day0.controller_states,
        )
        total = lambda result: sum(  # noqa: E731
            s["user_state"]["lifetime_segments"]
            for s in result.controller_states.values()
        )
        assert total(day0) > 0
        assert total(day1) > total(day0)

    def test_bumped_version_checkpoint_is_rejected(self, tmp_path):
        """A checkpoint from a different schema version must never restore blindly."""
        import json

        from repro.fleet.checkpoint import CHECKPOINT_VERSION, save_checkpoint_states

        path = save_checkpoint_states({"u0": {"user_state": {}}}, tmp_path / "c.json")
        raw = json.loads(path.read_text())
        raw["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_fleet_checkpoint(path)
        # missing version field counts as version 0 and is rejected too
        del raw["version"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_fleet_checkpoint(path)

    @pytest.mark.parametrize("writer", ["checkpoint", "resume_state"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, writer):
        """A write that dies partway leaves the old file byte-identical, no temp file."""
        import pathlib

        from repro.fleet.checkpoint import save_checkpoint_states
        from repro.fleet.longitudinal import CampaignResumeState

        path = tmp_path / "state.json"

        def save(day: int) -> None:
            if writer == "checkpoint":
                save_checkpoint_states({"u0": {"user_state": {}}}, path, day=day)
            else:
                CampaignResumeState(
                    next_day=day, summaries={}, first_day={"u0": day},
                    controller_states={},
                ).save(path)

        save(1)
        previous = path.read_bytes()

        def torn_write(self, text, *args, **kwargs):
            with open(self, "w") as handle:
                handle.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(pathlib.Path, "write_text", torn_write)
        with pytest.raises(OSError, match="disk full"):
            save(2)
        assert path.read_bytes() == previous
        assert list(tmp_path.glob("*.tmp")) == []

    def test_registered_migration_upgrades_old_checkpoint(self, tmp_path):
        import json

        from repro.fleet.checkpoint import (
            _MIGRATIONS,
            CHECKPOINT_VERSION,
            register_checkpoint_migration,
            save_checkpoint_states,
        )

        path = save_checkpoint_states(
            {"u0": {"user_state": {}}}, tmp_path / "c.json", run_id="legacy", day=2
        )
        raw = json.loads(path.read_text())
        raw["version"] = 0
        path.write_text(json.dumps(raw))

        def upgrade(document: dict) -> dict:
            document = dict(document)
            document["version"] = CHECKPOINT_VERSION
            return document

        with pytest.raises(ValueError):
            register_checkpoint_migration(CHECKPOINT_VERSION, upgrade)
        register_checkpoint_migration(0, upgrade)
        try:
            checkpoint = load_fleet_checkpoint(path)
            assert checkpoint.version == CHECKPOINT_VERSION
            assert checkpoint.run_id == "legacy" and checkpoint.day == 2
            assert checkpoint.num_users == 1
        finally:
            _MIGRATIONS.pop(0, None)

    def test_stuck_migration_chain_is_rejected(self, tmp_path):
        import json

        from repro.fleet.checkpoint import _MIGRATIONS, register_checkpoint_migration

        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": 0, "states": {}}))
        register_checkpoint_migration(0, lambda document: dict(document))
        try:
            with pytest.raises(ValueError, match="does not progress"):
                load_fleet_checkpoint(path)
        finally:
            _MIGRATIONS.pop(0, None)


class TestPlaybackTraceAggregates:
    def test_aggregates_match_manual_computation(self, fleet_population, fleet_library):
        result = run_small_fleet(fleet_population, fleet_library, num_shards=1)
        trace = result.logs[0].trace
        assert trace.total_stall_time == pytest.approx(
            sum(r.stall_time for r in trace.records)
        )
        assert trace.stall_count == sum(
            1 for r in trace.records if r.stall_time > 1e-12
        )
        assert trace.mean_bitrate_kbps == pytest.approx(
            float(np.mean([r.bitrate_kbps for r in trace.records]))
        )
        assert trace.num_switches == int(
            np.count_nonzero(np.diff([r.level for r in trace.records]))
        )

    def test_records_cannot_grow_the_trace(self, fleet_population, fleet_library):
        result = run_small_fleet(fleet_population, fleet_library, num_shards=1)
        trace = result.logs[0].trace
        with pytest.raises(AttributeError):
            trace.records.append(trace.records[0])
        with pytest.raises(ValueError, match="read-only"):
            trace.segments["stall_time"] += 1.0
