"""Longitudinal fleet tests: retention, churn, drift, A/B, checkpoints.

The acceptance gate of the longitudinal layer: a 3-day, 2-arm A/B campaign is
**bit-identical** across {1, 2, 4} shards and across scalar vs vector
backends — traces, per-day retention decisions, and telemetry replay — with
retention deltas reported through :mod:`repro.analytics.abtest`.  Plus the
zero-session-day robustness and the cross-day checkpoint round-trip the
churn loop depends on.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.abr.base import QoEParameters
from repro.abr.hyb import HYB
from repro.analytics.abtest import ArmComparison
from repro.analytics.logs import LogCollection
from repro.core.exit_predictor import ExitRatePredictor
from repro.core.monte_carlo import MonteCarloConfig
from repro.fleet import (
    DriftConfig,
    FleetConfig,
    FleetResult,
    HybFleetFactory,
    LingXiFleetFactory,
    load_resume_state,
    LongitudinalCampaign,
    LongitudinalConfig,
    assign_arms,
    fleet_metrics,
    load_fleet_checkpoint,
    replay_retention_decisions,
    run_ab_campaign,
    run_longitudinal_campaign,
    shifting_device_mix,
    write_fleet_telemetry,
)
from repro.fleet.longitudinal import _day_seed, _user_decision_rngs
from repro.net import EdgeLink, NetworkTopology, get_topology
from repro.obs.telemetry_reader import iter_events, replay_log_collection
from repro.net.topology import CrossTraffic
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation
from repro.users.retention import (
    EngagementSummary,
    RuleBasedRetentionModel,
    fit_retention_model,
    summarize_sessions,
)


@pytest.fixture(scope="module")
def population() -> UserPopulation:
    """Low-bandwidth-skewed population so stalls, exits and churn occur."""
    return UserPopulation.generate(16, seed=5, bandwidth_median_kbps=2500.0)


@pytest.fixture(scope="module")
def library() -> VideoLibrary:
    return VideoLibrary(num_videos=3, mean_duration=30.0, std_duration=8.0, seed=2)


def _always_return() -> RuleBasedRetentionModel:
    return RuleBasedRetentionModel(
        base_return=1.0,
        stall_penalty=0.0,
        max_stall_penalty=0.0,
        exit_penalty=0.0,
        watch_bonus=0.0,
        ceiling=1.0,
    )


def _never_return() -> RuleBasedRetentionModel:
    return RuleBasedRetentionModel(
        base_return=0.0,
        stall_penalty=0.0,
        max_stall_penalty=0.0,
        exit_penalty=0.0,
        watch_bonus=0.0,
        lapse_return=0.0,
        floor=0.0,
    )


def _summary(**overrides) -> EngagementSummary:
    defaults = dict(
        num_sessions=3,
        mean_watch_fraction=0.8,
        exit_fraction=0.0,
        total_stall_time_s=0.0,
        stall_count=0,
        mean_bitrate_kbps=2000.0,
        total_watch_time_s=90.0,
    )
    defaults.update(overrides)
    return EngagementSummary(**defaults)


class TestRetentionModels:
    def test_rule_based_bounds_and_monotonicity(self):
        model = RuleBasedRetentionModel()
        good = model.return_probability(_summary())
        stalled = model.return_probability(_summary(stall_count=5, total_stall_time_s=12.0))
        churny = model.return_probability(
            _summary(stall_count=20, total_stall_time_s=60.0, exit_fraction=1.0)
        )
        assert model.floor <= churny < stalled < good <= model.ceiling
        assert model.return_probability(None) == model.lapse_return

    def test_rule_based_validation(self):
        with pytest.raises(ValueError):
            RuleBasedRetentionModel(floor=0.9, ceiling=0.5)
        with pytest.raises(ValueError):
            RuleBasedRetentionModel(base_return=1.4)

    def test_summary_payload_roundtrip(self):
        summary = _summary(stall_count=2, total_stall_time_s=3.5)
        assert EngagementSummary.from_payload(summary.as_payload()) == summary

    def test_summarize_sessions_from_fleet_logs(self, population, library):
        from repro.fleet import run_fleet_day

        result = run_fleet_day(
            population,
            library,
            FleetConfig(num_shards=2, num_workers=0, sessions_per_user=2,
                        trace_length=40, seed=3),
        )
        by_user = result.logs.group_by_user()
        uid, sessions = next(iter(by_user.items()))
        summary = summarize_sessions(sessions)
        assert summary.num_sessions == len(sessions)
        assert summary.total_watch_time_s == pytest.approx(
            sum(s.watch_time for s in sessions)
        )
        assert summary.stall_count == sum(s.stall_count for s in sessions)
        assert 0.0 <= summary.exit_fraction <= 1.0
        with pytest.raises(ValueError):
            summarize_sessions([])

    def test_data_driven_model_learns_stall_churn(self):
        rng = np.random.default_rng(0)
        summaries, labels = [], []
        for _ in range(200):
            if rng.random() < 0.5:  # good day -> returns
                summaries.append(
                    _summary(
                        mean_watch_fraction=float(rng.uniform(0.7, 1.0)),
                        stall_count=0,
                    )
                )
                labels.append(True)
            else:  # stall-heavy day -> churns
                summaries.append(
                    _summary(
                        mean_watch_fraction=float(rng.uniform(0.1, 0.5)),
                        stall_count=int(rng.integers(4, 12)),
                        total_stall_time_s=float(rng.uniform(8.0, 30.0)),
                        exit_fraction=1.0,
                    )
                )
                labels.append(False)
        model = fit_retention_model(summaries, labels)
        good = model.return_probability(_summary(mean_watch_fraction=0.9))
        bad = model.return_probability(
            _summary(mean_watch_fraction=0.2, stall_count=8,
                     total_stall_time_s=20.0, exit_fraction=1.0)
        )
        assert good > 0.8 > 0.2 > bad
        assert model.return_probability(None) == model.lapse_return


def _ab(population, library, *, backend, shards, workers=0, telemetry_root=None):
    config = LongitudinalConfig(
        days=3,
        seed=17,
        num_shards=shards,
        num_workers=workers,
        sessions_per_user=2,
        trace_length=40,
        backend=backend,
        drift=DriftConfig(influx_per_day=2),
    )
    return run_ab_campaign(
        population,
        library,
        # picklable factories: pooled-worker variants ship them to processes
        arms={
            "aggressive": HybFleetFactory(parameters=QoEParameters(beta=0.8)),
            "conservative": HybFleetFactory(parameters=QoEParameters(beta=0.5)),
        },
        config=config,
        telemetry_root=telemetry_root,
    )


def _session_map(result):
    """(day, user, session) → full record tuple; the exact comparison unit."""
    mapping = {}
    for day in result.days:
        for log in day.result.logs:
            key = (day.day, log.user_id, log.session_index)
            assert key not in mapping
            mapping[key] = (log.trace.exited_early, tuple(log.trace.records))
    return mapping


def _decision_map(result):
    return {
        (day.day, uid): decision
        for day in result.days
        for uid, decision in day.decisions.items()
    }


class TestABCampaignBitIdentity:
    """The acceptance gate: shard-count and backend invariance."""

    @pytest.fixture(scope="class")
    def baseline(self, population, library):
        return _ab(population, library, backend="scalar", shards=1)

    @pytest.mark.parametrize(
        "backend,shards,workers",
        [("scalar", 2, 0), ("scalar", 4, 2), ("vector", 1, 0), ("vector", 4, 2)],
    )
    def test_bit_identical_across_shards_and_backends(
        self, population, library, baseline, backend, shards, workers
    ):
        other = _ab(population, library, backend=backend, shards=shards, workers=workers)
        for arm in baseline.arms:
            assert _session_map(other.arms[arm]) == _session_map(baseline.arms[arm])
            assert _decision_map(other.arms[arm]) == _decision_map(baseline.arms[arm])
            assert other.arms[arm].dau_series == baseline.arms[arm].dau_series
        for metric, comparison in baseline.comparisons.items():
            assert other.comparisons[metric] == comparison

    def test_retention_deltas_reported_through_abtest(self, baseline):
        assert set(baseline.comparisons) >= {"dau", "retention_rate", "total_watch_time"}
        retention = baseline.comparisons["retention_rate"]
        assert isinstance(retention, ArmComparison)
        lo, hi = retention.confidence_interval
        assert lo <= retention.mean_delta <= hi
        assert 0.0 <= retention.p_value <= 1.0
        assert len(retention.treatment_daily) == 2  # days 1..2 (day 0 has no prior day)
        # every summary line renders
        assert all(isinstance(line, str) for line in baseline.summary_lines())

    def test_telemetry_replays_exactly(self, population, library, tmp_path):
        result = _ab(
            population, library, backend="vector", shards=2,
            telemetry_root=tmp_path,
        )
        for arm, campaign in result.arms.items():
            live_decisions = _decision_map(campaign)
            replayed = replay_retention_decisions(tmp_path / arm / "campaign.jsonl")
            assert replayed == live_decisions
            summaries = [
                event.payload
                for event in iter_events(
                    tmp_path / arm / "campaign.jsonl", event="day_summary"
                )
            ]
            assert [s["day"] for s in summaries] == [d.day for d in campaign.days]
            for day, payload in zip(campaign.days, summaries):
                assert payload["dau"] == day.dau
                assert payload["metrics"] == day.result.metrics.as_dict()
                replayed_logs = replay_log_collection(
                    tmp_path / arm / f"day_{day.day:03d}.jsonl"
                )
                assert len(replayed_logs) == len(day.result.logs)
                if len(replayed_logs):
                    assert (
                        replayed_logs.segment_exit_rate()
                        == day.result.logs.segment_exit_rate()
                    )

    @pytest.mark.parametrize("case", ["dual_isp", "cdn_3tier_evening_peak", "lingxi_users"])
    def test_networked_campaign_matches_across_backends(self, population, library, case):
        """Networked campaigns are bit-identical across backends.

        ``dual_isp``: the plain HYB campaign.  ``cdn_3tier_evening_peak``:
        HYB on the tiered CDN, its capacities sized for this population so
        the evening arrivals congest it (scattered starts, cache misses,
        path water-fill); every vector day runs lockstep with no fallback.
        ``lingxi_users``: a quarter of the users run LingXi, whose one
        controller instance spans a user's concurrent sessions, so every
        vector day with such a user runs whole on the reference engine.
        """
        kwargs = {}
        treated: set[str] = set()
        if case == "dual_isp":
            network = "dual_isp"
        else:
            # The builtin suits about 1,000 users; scaled to this population
            # it keeps its congestion (one uplink tree, so one shard).
            builtin = get_topology("cdn_3tier")
            network = dataclasses.replace(
                builtin,
                links=tuple(
                    dataclasses.replace(
                        link, capacity_kbps=link.capacity_kbps * len(population) / 1000.0
                    )
                    for link in builtin.links
                ),
            )
            kwargs["scenario"] = "evening_peak"
        if case == "lingxi_users":
            treated = {profile.user_id for profile in list(population)[::4]}
            lingxi = LingXiFleetFactory(
                ExitRatePredictor(channels=8, hidden=16, seed=0),
                monte_carlo=MonteCarloConfig(num_samples=2, seed=0),
            )
            hyb = HybFleetFactory()
            kwargs["abr_factory"] = lambda profile, seed: (
                lingxi if profile.user_id in treated else hyb
            )(profile, seed)

        def run(backend):
            config = LongitudinalConfig(
                days=2,
                seed=11,
                num_shards=2,
                num_workers=0,
                sessions_per_user=2,
                trace_length=40,
                backend=backend,
                network=network,
            )
            return LongitudinalCampaign(config).run(population, library, **kwargs)

        scalar, vector = run("scalar"), run("vector")
        assert _session_map(scalar) == _session_map(vector)
        assert _decision_map(scalar) == _decision_map(vector)
        for a, b in zip(scalar.days, vector.days):
            assert a.result.link_usage == b.result.link_usage
        if case == "cdn_3tier_evening_peak":
            for day in vector.days:
                usage = day.result.link_usage
                assert day.result.total_batch_sessions > 0
                assert day.result.total_fallback_sessions == 0
                assert any(s.demand_kbps > s.allocated_kbps for s in usage)
                assert any(s.tier == "origin" and s.active_sessions for s in usage)
        if case == "lingxi_users":
            assert scalar.controller_states == vector.controller_states
            assert treated <= set(vector.days[0].active_user_ids)
            for day in vector.days:
                played = treated & set(day.active_user_ids)
                assert day.result.total_fallback_sessions == (
                    day.result.total_batch_sessions if played else 0
                )

    def test_arm_split_is_stable_and_partitions(self, population):
        arms = assign_arms(population, ["a", "b"])
        again = assign_arms(population, ["a", "b"])
        ids = lambda p: {u.user_id for u in p}  # noqa: E731
        assert ids(arms["a"]) == ids(again["a"])
        assert not ids(arms["a"]) & ids(arms["b"])
        assert ids(arms["a"]) | ids(arms["b"]) == {p.user_id for p in population}
        with pytest.raises(ValueError):
            assign_arms(population, ["a", "a"])

    def test_ab_campaign_requires_two_arms(self, population, library):
        with pytest.raises(ValueError):
            run_ab_campaign(
                population, library,
                arms={"only": lambda profile, seed: HYB()},
            )


class TestZeroSessionDays:
    def test_full_churn_produces_empty_days_and_replayable_telemetry(
        self, population, library, tmp_path
    ):
        config = LongitudinalConfig(
            days=3, seed=7, num_shards=2, num_workers=0,
            sessions_per_user=1, trace_length=30,
        )
        result = run_longitudinal_campaign(
            population,
            library,
            config,
            retention_model=_never_return(),
            telemetry_dir=tmp_path,
        )
        assert result.dau_series == [len(population), 0, 0]
        assert result.retention_series[1] == 0.0
        # empty days still aggregate (to zeros) and replay exactly
        for day in result.days[1:]:
            metrics = day.result.metrics
            assert metrics.num_sessions == 0
            assert metrics.mean_bitrate_kbps == 0.0
            assert metrics.session_exit_rate == 0.0
            replayed = replay_log_collection(tmp_path / f"day_{day.day:03d}.jsonl")
            assert len(replayed) == 0
        rows = result.daily_metrics("arm")
        assert [row.num_sessions for row in rows] == [len(result.days[0].result.logs), 0, 0]
        assert rows[1].stall_seconds_per_hour == 0.0
        # merged logs only contain day 0
        assert result.all_logs().days() == [0]

    def test_fleet_metrics_and_telemetry_survive_empty_collections(self, tmp_path):
        empty = LogCollection([])
        metrics = fleet_metrics(empty)
        assert metrics.num_sessions == 0
        assert metrics.segment_exit_rate == 0.0
        assert metrics.mean_bitrate_kbps == 0.0
        result = FleetResult(
            run_id="empty-day",
            config=FleetConfig(num_shards=1, num_workers=0),
            scenario_name="steady_state",
            logs=empty,
            shard_outputs=[],
            controller_states={},
            wall_time_s=0.0,
        )
        path = write_fleet_telemetry(result, tmp_path / "empty.jsonl")
        replayed = replay_log_collection(path)
        assert len(replayed) == 0

    def test_replay_rejects_eventless_files(self, tmp_path):
        empty_file = tmp_path / "not-telemetry.jsonl"
        empty_file.write_text("")
        with pytest.raises(ValueError):
            replay_log_collection(empty_file)


class TestCheckpointAcrossDays:
    @pytest.mark.parametrize("backend", ["scalar", "vector"])
    def test_resumed_campaign_matches_uninterrupted(
        self, population, library, tmp_path, backend
    ):
        # The default (stochastic, engagement-driven) retention model: the
        # resumed campaign must reproduce real churn decisions, not just
        # the always-return degenerate case.
        predictor = ExitRatePredictor(channels=8, hidden=16, seed=0)
        factory = LingXiFleetFactory(
            predictor, monte_carlo=MonteCarloConfig(num_samples=2, seed=0)
        )
        small = UserPopulation(list(population)[:4])

        def config(days):
            return LongitudinalConfig(
                days=days, seed=3, num_shards=1, num_workers=0,
                sessions_per_user=1, trace_length=40, backend=backend,
                drift=DriftConfig(influx_per_day=1),
            )

        uninterrupted = LongitudinalCampaign(config(2)).run(
            small, library, abr_factory=factory
        )

        day0 = LongitudinalCampaign(config(1)).run(
            small, library, abr_factory=factory,
            checkpoint_dir=tmp_path / backend,
        )
        checkpoint = load_fleet_checkpoint(tmp_path / backend / "day_000.json")
        assert checkpoint.states == day0.controller_states
        resume = load_resume_state(
            tmp_path / backend / "resume_day_000.json",
            tmp_path / backend / "day_000.json",
        )
        assert resume.next_day == 1
        assert resume.controller_states == checkpoint.states
        # the roster on disk IS the in-memory drifted one (influx included):
        # recovery needs nothing from the dead process
        assert resume.roster == day0.final_roster
        resumed = LongitudinalCampaign(config(1)).run(
            resume.population(),
            library,
            abr_factory=factory,
            resume_state=resume,
        )

        assert _session_map(resumed) == {
            key: value
            for key, value in _session_map(uninterrupted).items()
            if key[0] == 1
        }
        assert _decision_map(resumed) == {
            key: value
            for key, value in _decision_map(uninterrupted).items()
            if key[0] == 1
        }
        assert resumed.controller_states == uninterrupted.controller_states

    def test_resumed_campaign_appends_campaign_telemetry(
        self, population, library, tmp_path
    ):
        # Resuming into the same telemetry_dir must not truncate the
        # pre-crash retention/day_summary history in campaign.jsonl.
        small = UserPopulation(list(population)[:4])

        def config(days):
            return LongitudinalConfig(
                days=days, seed=3, num_shards=1, num_workers=0,
                sessions_per_user=1, trace_length=30,
            )

        full = LongitudinalCampaign(config(2)).run(
            small, library, telemetry_dir=tmp_path / "full"
        )
        resumable = tmp_path / "resumable"
        LongitudinalCampaign(config(1)).run(
            small, library, telemetry_dir=resumable, checkpoint_dir=resumable
        )
        pre_crash = (resumable / "campaign.jsonl").read_bytes()
        resume = load_resume_state(
            resumable / "resume_day_000.json", resumable / "day_000.json"
        )
        LongitudinalCampaign(config(1)).run(
            resume.population(), library,
            resume_state=resume, telemetry_dir=resumable,
        )
        # Appending leaves the pre-crash bytes as an exact prefix.
        resumed = (resumable / "campaign.jsonl").read_bytes()
        assert len(resumed) > len(pre_crash)
        assert resumed.startswith(pre_crash)
        assert replay_retention_decisions(
            resumable / "campaign.jsonl"
        ) == replay_retention_decisions(tmp_path / "full" / "campaign.jsonl")
        assert [
            e.payload["day"]
            for e in iter_events(resumable / "campaign.jsonl", event="day_summary")
        ] == [
            e.payload["day"]
            for e in iter_events(tmp_path / "full" / "campaign.jsonl", event="day_summary")
        ]

    def test_resume_state_rejects_conflicting_controller_states(
        self, population, library, tmp_path
    ):
        small = UserPopulation(list(population)[:2])
        config = LongitudinalConfig(
            days=1, seed=3, num_shards=1, num_workers=0,
            sessions_per_user=1, trace_length=30,
        )
        day0 = LongitudinalCampaign(config).run(
            small, library, checkpoint_dir=tmp_path
        )
        resume = load_resume_state(
            tmp_path / "resume_day_000.json", tmp_path / "day_000.json"
        )
        with pytest.raises(ValueError):
            LongitudinalCampaign(config).run(
                UserPopulation(day0.final_roster),
                library,
                resume_state=resume,
                controller_states={},
            )

    def test_checkpoint_state_actually_matters(self, population, library):
        # Positive control: dropping the saved state changes day-1 decisions'
        # inputs (lifetime segments restart), so the equality above is not
        # vacuous.
        predictor = ExitRatePredictor(channels=8, hidden=16, seed=0)
        factory = LingXiFleetFactory(
            predictor, monte_carlo=MonteCarloConfig(num_samples=2, seed=0)
        )
        small = UserPopulation(list(population)[:3])
        config = LongitudinalConfig(
            days=2, seed=3, num_shards=1, num_workers=0,
            sessions_per_user=1, trace_length=40,
        )
        full = LongitudinalCampaign(config).run(
            small, library, abr_factory=factory, retention_model=_always_return()
        )
        lifetime = lambda states: {  # noqa: E731
            uid: payload["user_state"]["lifetime_segments"]
            for uid, payload in states.items()
        }
        day0_only = LongitudinalCampaign(
            LongitudinalConfig(
                days=1, seed=3, num_shards=1, num_workers=0,
                sessions_per_user=1, trace_length=40,
            )
        ).run(small, library, abr_factory=factory, retention_model=_always_return())
        assert all(
            lifetime(full.controller_states)[uid] > lifetime(day0_only.controller_states)[uid]
            for uid in lifetime(full.controller_states)
        )


class TestDriftAndInflux:
    def test_influx_users_join_later_days_unconditionally(self, population, library):
        config = LongitudinalConfig(
            days=3, seed=21, num_shards=2, num_workers=0,
            sessions_per_user=1, trace_length=30,
            drift=DriftConfig(influx_per_day=4, influx_id_prefix="fresh"),
        )
        result = LongitudinalCampaign(config).run(
            population, library, retention_model=_always_return()
        )
        day1_new = [
            uid for uid in result.days[1].active_user_ids if uid.startswith("fresh")
        ]
        assert len(day1_new) == 4
        for uid in day1_new:
            decision = result.days[1].decisions[uid]
            assert decision.new_user and decision.returned and decision.probability == 1.0
        assert len(result.final_roster) == len(population) + 3 * 4

    def test_profile_drift_is_identity_keyed(self, population, library):
        def run(influx):
            config = LongitudinalConfig(
                days=2, seed=9, num_shards=1, num_workers=0,
                sessions_per_user=1, trace_length=30,
                drift=DriftConfig(influx_per_day=influx),
            )
            return LongitudinalCampaign(config).run(
                population, library, retention_model=_always_return()
            )

        without = {p.user_id: p for p in run(0).final_roster}
        with_influx = {p.user_id: p for p in run(5).final_roster}
        for profile in population:
            assert (
                without[profile.user_id].mean_bandwidth_kbps
                == with_influx[profile.user_id].mean_bandwidth_kbps
            )
            assert (
                without[profile.user_id].sensitivity
                == with_influx[profile.user_id].sensitivity
            )

    def test_cross_traffic_growth_scales_topology_per_day(self, population, library):
        topology = NetworkTopology(
            name="grow",
            links=(
                EdgeLink(
                    "x",
                    20_000.0,
                    cross_traffic=CrossTraffic(base_kbps=100.0, peak_kbps=1_000.0),
                ),
            ),
        )
        config = LongitudinalConfig(
            days=3, seed=4, num_shards=1, num_workers=0,
            sessions_per_user=1, trace_length=20,
            network=topology,
            drift=DriftConfig(cross_traffic_growth=0.5),
        )
        result = LongitudinalCampaign(config).run(
            population, library, retention_model=_always_return()
        )
        peaks = [
            day.result.config.network.links[0].cross_traffic.peak_kbps
            for day in result.days
        ]
        assert peaks == [1_000.0, 1_500.0, 2_250.0]

    def test_shifting_device_mix_schedule(self):
        schedule = shifting_device_mix(mobile_start=0.3, mobile_shift_per_day=0.2)
        assert schedule(0).mobile_fraction == pytest.approx(0.3)
        assert schedule(2).mobile_fraction == pytest.approx(0.7)
        assert schedule(50).mobile_fraction <= 0.95  # clamped

    def test_decision_rng_is_identity_keyed(self):
        def draws(day, user_ids):
            return [r.random() for r in _user_decision_rngs(1, "retention", day, user_ids)]

        a, c = draws(2, ["u00001", "u00002"])
        assert draws(2, ["u00002", "u00001"]) == [c, a]  # not roster position
        assert draws(2, ["u00001"]) == [a]  # not roster composition
        (d,) = draws(3, ["u00001"])
        assert a != c and a != d
        assert _day_seed(5, 0) != _day_seed(5, 1)

    def test_ab_influx_apportionment_preserves_totals(self):
        from repro.fleet.longitudinal import _apportion

        assert _apportion(1, [0.5, 0.5]) == [1, 0]
        assert _apportion(5, [0.5, 0.5]) == [3, 2]
        assert _apportion(0, [0.5, 0.5]) == [0, 0]
        assert _apportion(7, [0.6, 0.4]) == [4, 3]
        for total in range(9):
            assert sum(_apportion(total, [0.37, 0.63])) == total

    def test_ab_comparisons_drop_nonfinite_pairs(self, population, library):
        # A fully-churned campaign has NaN retention from day 2 on: the
        # comparison must drop those days (and day 0), not report NaN stats.
        config = LongitudinalConfig(
            days=4, seed=5, num_shards=1, num_workers=0,
            sessions_per_user=1, trace_length=30,
        )
        result = run_ab_campaign(
            population,
            library,
            arms={
                "a": HybFleetFactory(parameters=QoEParameters(beta=0.8)),
                "b": HybFleetFactory(parameters=QoEParameters(beta=0.5)),
            },
            config=config,
            retention_model=_never_return(),
        )
        assert "retention_rate" not in result.comparisons  # only day 1 is finite
        # intensive ratios are undefined on empty days: days 1-3 drop out,
        # leaving a single pair — not enough for a comparison
        assert "mean_bitrate_kbps" not in result.comparisons
        assert "stall_seconds_per_hour" not in result.comparisons
        dau = result.comparisons["dau"]
        assert np.isfinite(dau.mean_delta)
        assert np.isfinite(dau.p_value)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LongitudinalConfig(days=0)
        with pytest.raises(ValueError):
            DriftConfig(influx_per_day=-1)
        with pytest.raises(ValueError):
            DriftConfig(cross_traffic_growth=-1.0)
        with pytest.raises(KeyError):
            LongitudinalConfig(network="warp_net")
