"""Scenario determinism and networked-fleet integration tests.

Two properties under test:

* **Sharding invariance** — every user's randomness is keyed by
  ``(seed, md5(user_id))``, so for a fixed seed the per-user cohorts *and*
  the per-session traces are identical no matter how the population is
  split across shards, how many pool workers execute them, or which backend
  runs them.  This holds for the classic scenarios (``device_mix``,
  ``regional_degradation``) and for the congestion-native ones, where
  shard-by-link keeps each link's full contention set inside one shard.
* **Networked fleet plumbing** — link-utilization telemetry replays exactly,
  emergent congestion shows up in ``flash_crowd_shared``, and the
  ``link_outage`` scenario's capacity cut lands on the right link.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet import (
    FleetConfig,
    FleetOrchestrator,
    LinkOutageScenario,
    get_scenario,
)
from repro.fleet.orchestrator import write_fleet_telemetry
from repro.fleet.scenarios import DeviceMixScenario, RegionalDegradationScenario
from repro.net import EdgeLink, NetworkTopology
from repro.obs.telemetry_reader import replay_link_utilization, replay_log_collection
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation


@pytest.fixture(scope="module")
def population():
    return UserPopulation.generate(18, seed=5, bandwidth_median_kbps=2500.0)


@pytest.fixture(scope="module")
def library():
    return VideoLibrary(num_videos=3, mean_duration=30.0, std_duration=8.0, seed=2)


def _topology() -> NetworkTopology:
    return NetworkTopology(
        name="toy",
        links=(
            EdgeLink("a", 12_000.0, user_share=0.4),
            EdgeLink("b", 18_000.0, user_share=0.4),
            EdgeLink("c", 30_000.0, user_share=0.2),
        ),
    )


def _run(
    population, library, scenario, *, shards, workers, network=None, backend="vector"
):
    return FleetOrchestrator(
        FleetConfig(
            num_shards=shards,
            num_workers=workers,
            sessions_per_user=2,
            trace_length=40,
            seed=11,
            backend=backend,
            network=network,
        )
    ).run(population, library, scenario=scenario)


def _session_map(result):
    """(user, session) → full record tuple list; exact comparison unit."""
    mapping = {}
    for log in result.logs:
        key = (log.user_id, log.session_index)
        assert key not in mapping
        mapping[key] = (log.trace.exited_early, tuple(log.trace.records))
    return mapping


class TestShardingInvariance:
    @pytest.mark.parametrize("backend", ["scalar", "vector"])
    @pytest.mark.parametrize(
        "scenario", ["device_mix", "regional_degradation", "steady_state"]
    )
    def test_classic_scenarios_invariant_across_shard_and_worker_counts(
        self, population, library, scenario, backend
    ):
        run = lambda shards, workers: _run(
            population, library, scenario,
            shards=shards, workers=workers, backend=backend,
        )
        baseline = run(1, 0)
        for shards, workers in ((3, 0), (5, 2)):
            other = run(shards, workers)
            assert _session_map(other) == _session_map(baseline)
            assert other.metrics.num_sessions == baseline.metrics.num_sessions

    @pytest.mark.parametrize(
        "scenario", ["flash_crowd_shared", "link_outage", "evening_peak"]
    )
    def test_congestion_scenarios_invariant_across_shard_and_worker_counts(
        self, population, library, scenario
    ):
        topology = _topology()
        baseline = _run(
            population, library, scenario, shards=1, workers=0, network=topology
        )
        for shards, workers in ((2, 0), (3, 2)):
            other = _run(
                population,
                library,
                scenario,
                shards=shards,
                workers=workers,
                network=topology,
            )
            assert _session_map(other) == _session_map(baseline)
            # the full link-usage stream matches too, modulo shard
            # interleaving (per-link trailing-idle trimming makes each
            # link's sample span a function of its own users only)
            stream = lambda result: sorted(
                result.link_usage, key=lambda s: (s.link_id, s.step)
            )
            assert stream(other) == stream(baseline)

    def test_cohorts_are_stable_functions_of_identity(self, population):
        device = DeviceMixScenario()
        region = RegionalDegradationScenario()
        topology = _topology()
        devices = {p.user_id: device.device_for(p) for p in population}
        affected = {p.user_id: region.is_affected(p) for p in population}
        links = {p.user_id: topology.link_for(p.user_id).link_id for p in population}
        # recomputation (fresh scenario objects) reproduces every cohort
        assert devices == {p.user_id: DeviceMixScenario().device_for(p) for p in population}
        assert affected == {
            p.user_id: RegionalDegradationScenario().is_affected(p) for p in population
        }
        assert links == {
            p.user_id: _topology().link_for(p.user_id).link_id for p in population
        }


class TestNetworkedFleet:
    def test_links_never_straddle_shards(self, population, library):
        topology = _topology()
        result = _run(
            population,
            library,
            "flash_crowd_shared",
            shards=2,
            workers=0,
            network=topology,
        )
        links_per_shard = [
            {sample.link_id for sample in output.link_usage if sample.active_sessions}
            for output in result.shard_outputs
        ]
        for first in range(len(links_per_shard)):
            for second in range(first + 1, len(links_per_shard)):
                assert not links_per_shard[first] & links_per_shard[second]
        # every session's user sits on a link owned by its shard
        for output, owned in zip(
            result.shard_outputs, topology.shard_links(2)
        ):
            for log in output.sessions:
                assert topology.link_for(log.user_id).link_id in set(owned)

    def test_flash_crowd_shared_shows_emergent_congestion(self, population, library):
        topology = _topology()
        steady = _run(
            population, library, "steady_state", shards=1, workers=0, network=topology
        )
        crowd = _run(
            population,
            library,
            "flash_crowd_shared",
            shards=1,
            workers=0,
            network=topology,
        )
        assert crowd.metrics.num_sessions > steady.metrics.num_sessions
        crowd_util = crowd.link_utilization()
        assert crowd_util.congested_slot_fraction() > 0.0
        # the surge piles sessions onto the links: peak concurrency well
        # above the steady run's
        assert crowd_util.peak_active_sessions() > steady.link_utilization().peak_active_sessions() / 2

    def test_link_outage_scenario_halves_the_target_link(self):
        topology = _topology()
        scenario = LinkOutageScenario(outage_start=4, outage_end=8)
        shaped = scenario.network_for(topology)
        target = scenario.target_link(topology)
        assert target == "c"  # largest capacity
        index = shaped.index_of(target)
        assert shaped.links[index].capacity_at(5) == topology.links[index].capacity_at(5) / 2
        assert shaped.links[index].capacity_at(10) == topology.links[index].capacity_at(10)
        pinned = LinkOutageScenario(link_id="a")
        assert pinned.target_link(topology) == "a"

    def test_networked_telemetry_replays_exactly(self, population, library, tmp_path):
        topology = _topology()
        result = _run(
            population,
            library,
            "link_outage",
            shards=2,
            workers=0,
            network=topology,
        )
        path = tmp_path / "telemetry.jsonl"
        write_fleet_telemetry(result, path)
        replayed_logs = replay_log_collection(path)
        assert replayed_logs.segment_exit_rate() == result.logs.segment_exit_rate()
        live = result.link_utilization()
        replayed = replay_link_utilization(path)
        assert len(replayed) == len(live)
        np.testing.assert_array_equal(replayed.allocated_kbps, live.allocated_kbps)
        np.testing.assert_array_equal(replayed.capacity_kbps, live.capacity_kbps)
        np.testing.assert_array_equal(replayed.active_sessions, live.active_sessions)
        assert replayed.mean_utilization() == live.mean_utilization()

    @pytest.mark.parametrize("network", [_topology(), None], ids=["toy", "none"])
    def test_scalar_and_vector_backends_agree_on_networked_fleets(
        self, population, library, network
    ):
        kwargs = dict(
            num_shards=2,
            num_workers=0,
            sessions_per_user=2,
            trace_length=40,
            seed=7,
            network=network,
        )
        scalar = FleetOrchestrator(FleetConfig(backend="scalar", **kwargs)).run(
            population, library, scenario="evening_peak"
        )
        vector = FleetOrchestrator(FleetConfig(backend="vector", **kwargs)).run(
            population, library, scenario="evening_peak"
        )
        assert _session_map(scalar) == _session_map(vector)
        assert scalar.metrics == vector.metrics
        assert scalar.link_usage == vector.link_usage

    def test_config_validation_and_registry(self):
        with pytest.raises(KeyError):
            FleetConfig(network="warp_net")
        assert "flash_crowd_shared" in [
            name
            for name in __import__(
                "repro.fleet.scenarios", fromlist=["available_scenarios"]
            ).available_scenarios()
        ]
        scenario = get_scenario("evening_peak")
        assert scenario.name == "evening_peak"


class TestMultiTierFleet:
    """Tiered topologies through the fleet layer: scenarios + allocators."""

    @pytest.mark.parametrize("allocator", ["max_min_fair", "low_lapsley"])
    def test_cache_storm_invariant_across_shards_workers_backends(
        self, population, library, allocator
    ):
        def run(shards, workers, backend):
            return FleetOrchestrator(
                FleetConfig(
                    num_shards=shards,
                    num_workers=workers,
                    sessions_per_user=2,
                    trace_length=40,
                    seed=11,
                    backend=backend,
                    network="cdn_3tier",
                    allocator=allocator,
                )
            ).run(population, library, scenario="cache_storm")

        baseline = run(1, 0, "vector")
        stream = lambda result: sorted(
            result.link_usage, key=lambda s: (s.link_id, s.step)
        )
        for shards, workers in ((2, 0), (4, 2)):
            other = run(shards, workers, "vector")
            assert _session_map(other) == _session_map(baseline)
            assert stream(other) == stream(baseline)
        scalar = run(1, 0, "scalar")
        assert _session_map(scalar) == _session_map(baseline)
        assert stream(scalar) == stream(baseline)
        # the tier column survives the fleet path (and the pool codec)
        tiers = {sample.tier for sample in baseline.link_usage}
        assert tiers == {"edge", "peering", "origin"}

    def test_allocator_config_validation(self):
        with pytest.raises(ValueError, match="unknown allocator"):
            FleetConfig(network="cdn_3tier", allocator="round_robin")
        with pytest.raises(ValueError, match="networked"):
            FleetConfig(allocator="low_lapsley")
        config = FleetConfig(network="cdn_3tier", allocator="low_lapsley")
        assert config.allocator == "low_lapsley"

    def test_cache_storm_replaces_cache_but_keeps_salt(self):
        from repro.net import get_topology

        topology = get_topology("cdn_3tier")
        shaped = get_scenario("cache_storm").network_for(topology)
        assert shaped.cache.hit_ratio == 0.1
        assert shaped.cache.salt == topology.cache.salt
        # inert on flat topologies: the cache exists but nothing routes
        # upstream, so runs degrade to a pure arrival surge
        flat = get_scenario("cache_storm").network_for(_topology())
        assert not flat.has_tiers and flat.cache is not None

    def test_tier_event_scenarios_target_their_tier(self):
        from repro.fleet.scenarios import (
            OriginOverloadScenario,
            PeeringBrownoutScenario,
        )
        from repro.net import get_topology

        topology = get_topology("cdn_3tier")
        origin = OriginOverloadScenario()
        assert origin.target_links(topology) == ["origin"]
        shaped = origin.network_for(topology)
        index = shaped.index_of("origin")
        mid = (origin.event_start + origin.event_end) // 2
        assert shaped.links[index].capacity_at(mid) == pytest.approx(
            topology.links[index].capacity_kbps * origin.capacity_multiplier
        )
        assert shaped.links[index].capacity_at(origin.event_end + 1) == (
            topology.links[index].capacity_kbps
        )

        brownout = PeeringBrownoutScenario()
        assert sorted(brownout.target_links(topology)) == ["peer_a", "peer_b"]
        # flat topologies fall back to the largest link
        flat = _topology()
        assert origin.target_links(flat) == ["c"]
        assert brownout.target_links(flat) == ["c"]

    def test_tier_scenarios_run_end_to_end(self, population, library):
        for scenario in ("origin_overload", "peering_brownout"):
            result = FleetOrchestrator(
                FleetConfig(
                    num_shards=2,
                    num_workers=0,
                    sessions_per_user=1,
                    trace_length=30,
                    seed=13,
                    backend="vector",
                    network="cdn_3tier",
                )
            ).run(population, library, scenario=scenario)
            assert result.metrics.num_sessions > 0
            tiers = {sample.tier for sample in result.link_usage}
            assert "edge" in tiers
