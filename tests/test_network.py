"""repro.net test suite: allocator, topology, and the networked engines.

The headline guarantee mirrors ``tests/test_vector_backend.py``: for the same
spec batch, topology and seeds, the **networked** vector engine reproduces
the event-ordered scalar reference engine segment for segment (exact
:class:`SegmentRecord` equality), including the per-slot link-usage stream.
On top of that, congestion must be *emergent*: adding concurrency to a link
lowers per-session allocated throughput without anyone scaling a trace.
"""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest

from repro.abr.bba import BBA
from repro.abr.bola import BOLA
from repro.abr.hyb import HYB
from repro.abr.robust_mpc import RobustMPC
from repro.abr.throughput import ThroughputRule
from repro.analytics.logs import LinkUtilizationLog
from repro.net import (
    MIN_LINK_CAPACITY_KBPS,
    CacheModel,
    CrossTraffic,
    EdgeLink,
    LinkEvent,
    NetworkTopology,
    allocate_step,
    available_topologies,
    get_topology,
    low_lapsley,
    max_min_fair,
    path_water_fill,
    stable_fraction,
    stable_user_key,
)
from repro.sim import SessionSpec, get_backend, spawn_session_seeds
from repro.sim.bandwidth import MarkovTraceGenerator, StationaryTraceGenerator
from repro.sim.session import SessionConfig
from repro.sim.video import BitrateLadder, Video, VideoLibrary
from repro.users.engagement import BaselineExitModel, RuleBasedUser
from repro.users.population import UserPopulation

_ABR_FACTORIES = {
    "throughput": ThroughputRule,
    "hyb": HYB,
    "bba": BBA,
    "bola": BOLA,
    "robust_mpc": RobustMPC,
}


def _toy_topology(capacity: float = 9000.0) -> NetworkTopology:
    return NetworkTopology(
        name="toy",
        links=(
            EdgeLink("hot", capacity, user_share=0.5),
            EdgeLink("cold", capacity * 6, user_share=0.5),
        ),
    )


def _spec_batch(
    abr_name: str,
    seed: int,
    num_sessions: int = 10,
    staggered: bool = True,
    bursty: bool = False,
):
    """Heterogeneous networked batch: per-user exit models, mixed videos/starts."""
    rng = np.random.default_rng(seed)
    population = UserPopulation.generate(
        num_sessions, seed=seed + 1, bandwidth_median_kbps=2500.0
    )
    library = VideoLibrary(num_videos=3, mean_duration=30.0, std_duration=10.0, seed=2)
    generator = (
        MarkovTraceGenerator() if bursty else StationaryTraceGenerator(1800.0, 500.0)
    )
    seeds = spawn_session_seeds(seed, num_sessions)
    # One ABR instance per spec: a networked batch in which concurrent
    # sessions share a *stateful* instance (RobustMPC) runs whole on the
    # reference engine ("one brain" semantics), covered by its own test below.
    return [
        SessionSpec(
            abr=_ABR_FACTORIES[abr_name](),
            video=library[i % 3],
            trace=generator.generate(50, rng),
            exit_model=profile.exit_model(),
            seed=seeds[i],
            user_id=profile.user_id,
            start_step=(i % 4) * 3 if staggered else 0,
        )
        for i, profile in enumerate(population)
    ]


def assert_traces_equal(scalar_traces, vector_traces):
    """Exact, field-for-field equality of two trace lists."""
    assert len(scalar_traces) == len(vector_traces)
    for scalar_trace, vector_trace in zip(scalar_traces, vector_traces):
        assert scalar_trace.user_id == vector_trace.user_id
        assert scalar_trace.exited_early == vector_trace.exited_early
        assert len(scalar_trace) == len(vector_trace)
        assert scalar_trace.segments.dtype == vector_trace.segments.dtype
        np.testing.assert_array_equal(scalar_trace.segments, vector_trace.segments)
        for scalar_record, vector_record in zip(
            scalar_trace.records, vector_trace.records
        ):
            assert scalar_record == vector_record


class TestMaxMinFair:
    def test_uncongested_demands_pass_through_exactly(self):
        demands = np.asarray([100.0, 250.0, 40.0])
        allocation = max_min_fair(demands, 1000.0)
        np.testing.assert_array_equal(allocation, demands)

    def test_congested_fills_capacity_without_exceeding_demands(self):
        rng = np.random.default_rng(0)
        demands = rng.uniform(10.0, 5000.0, size=64)
        capacity = float(demands.sum()) * 0.4
        allocation = max_min_fair(demands, capacity)
        assert np.all(allocation <= demands + 1e-12)
        assert allocation.sum() == pytest.approx(capacity, rel=1e-12)

    def test_equal_demands_split_equally(self):
        allocation = max_min_fair(np.full(8, 1000.0), 4000.0)
        np.testing.assert_allclose(allocation, np.full(8, 500.0))

    def test_small_demands_served_in_full_large_ones_clipped(self):
        demands = np.asarray([50.0, 5000.0, 5000.0, 120.0])
        allocation = max_min_fair(demands, 1170.0)
        assert allocation[0] == 50.0 and allocation[3] == 120.0
        np.testing.assert_allclose(allocation[1:3], [500.0, 500.0])

    def test_weighted_shares_are_proportional(self):
        demands = np.full(3, 10_000.0)
        weights = np.asarray([1.0, 2.0, 1.0])
        allocation = max_min_fair(demands, 4000.0, weights)
        np.testing.assert_allclose(allocation, [1000.0, 2000.0, 1000.0])

    def test_sort_order_invariance(self):
        rng = np.random.default_rng(3)
        demands = rng.uniform(10.0, 3000.0, size=32)
        capacity = 11_000.0
        allocation = max_min_fair(demands, capacity)
        order = rng.permutation(demands.size)
        shuffled = max_min_fair(demands[order], capacity)
        np.testing.assert_allclose(shuffled, allocation[order], rtol=1e-12)

    def test_validation(self):
        assert max_min_fair(np.asarray([]), 100.0).size == 0
        with pytest.raises(ValueError):
            max_min_fair(np.asarray([10.0]), 0.0)
        with pytest.raises(ValueError):
            max_min_fair(np.asarray([-1.0]), 10.0)
        with pytest.raises(ValueError):
            max_min_fair(np.asarray([1.0, 2.0]), 10.0, np.asarray([1.0]))
        with pytest.raises(ValueError):
            max_min_fair(np.asarray([1.0]), 10.0, np.asarray([0.0]))

    def test_non_finite_inputs_are_rejected(self):
        """NaN slips past sign checks (``nan < 0`` is False) — must raise."""
        with pytest.raises(ValueError, match="demands"):
            max_min_fair(np.asarray([100.0, np.nan]), 50.0)
        with pytest.raises(ValueError, match="demands"):
            max_min_fair(np.asarray([np.inf, 10.0]), 50.0)
        with pytest.raises(ValueError, match="capacity"):
            max_min_fair(np.asarray([10.0]), float("nan"))
        with pytest.raises(ValueError, match="capacity"):
            max_min_fair(np.asarray([10.0]), float("inf"))
        with pytest.raises(ValueError, match="weights"):
            max_min_fair(np.asarray([10.0, 20.0]), 5.0, np.asarray([1.0, np.nan]))
        with pytest.raises(ValueError, match="weights"):
            max_min_fair(np.asarray([10.0, 20.0]), 5.0, np.asarray([np.inf, 1.0]))

    @staticmethod
    def _assert_allocation_properties(demands, capacity, weights=None):
        """The three invariants of a weighted max-min water-fill.

        * conservation: allocations sum to ``min(capacity, total_demand)``
          (within a few ulps of the capacity scale);
        * feasibility: nobody receives more than they demanded;
        * weight monotonicity: among capacity-limited sessions, a heavier
          weight never receives less.
        """
        allocation = max_min_fair(demands, capacity, weights)
        total = float(np.asarray(demands, dtype=float).sum())
        expected = min(capacity, total)
        tolerance = max(abs(expected), 1.0) * 64 * np.finfo(float).eps
        assert abs(float(allocation.sum()) - expected) <= tolerance
        assert np.all(allocation <= np.asarray(demands) + tolerance)
        assert np.all(allocation >= -tolerance)
        if weights is not None:
            limited = allocation < np.asarray(demands) - tolerance
            if np.count_nonzero(limited) > 1:
                w = np.asarray(weights)[limited]
                a = allocation[limited]
                order = np.argsort(w, kind="stable")
                assert np.all(np.diff(a[order]) >= -tolerance)
        return allocation

    def test_capacity_exactly_on_a_fill_knee(self):
        """Capacities landing on a knee of the fill curve stay conservative."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 24))
            demands = rng.uniform(10.0, 4000.0, size=n)
            weights = rng.uniform(0.25, 4.0, size=n)
            ratio = demands / weights
            order = np.argsort(ratio, kind="stable")
            cum_demand = np.cumsum(demands[order])
            cum_weight = np.cumsum(weights[order])
            knee = int(rng.integers(0, n - 1))
            capacity = float(
                cum_demand[knee]
                + ratio[order][knee] * (cum_weight[-1] - cum_weight[knee])
            )
            if capacity <= 0 or capacity >= float(demands.sum()):
                continue
            self._assert_allocation_properties(demands, capacity, weights)

    def test_capacity_equal_to_a_knee_is_exact(self):
        """Deterministic knee==capacity case: the fill at a knee is exactly
        representable, so the allocation must hit it without drift.

        With demands [100, 200, 400] the fill level of session 0 saturates
        at capacity 100 + 100·2 = 300 (water level 100): session 0 served
        in full, the rest clipped to exactly 100 each.
        """
        demands = np.asarray([100.0, 200.0, 400.0])
        allocation = max_min_fair(demands, 300.0)
        np.testing.assert_array_equal(allocation, [100.0, 100.0, 100.0])
        assert float(allocation.sum()) == 300.0
        # one ulp above the knee starts serving session 1 beyond the level
        above = max_min_fair(demands, np.nextafter(300.0, 400.0))
        assert above[1] > 100.0 or above[2] > 100.0

    def test_cumulative_fill_a_few_ulps_below_capacity(self):
        """Total demand exceeds capacity by pairwise summation, but the
        sorted cumulative fill ends below it: every session saturates, no
        weight remains, and the level must not divide by zero."""
        demands = np.random.default_rng(70).uniform(100.0, 2000.0, size=17)
        capacity = float(np.nextafter(demands.sum(), -np.inf))
        assert np.cumsum(np.sort(demands))[-1] < capacity < demands.sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            allocation = max_min_fair(demands, capacity)
        np.testing.assert_array_equal(allocation, demands)

    def test_near_equal_demand_weight_ratios(self):
        """Float knee ties (duplicate and 1-ulp-apart ratios) stay exact."""
        base = 1234.5678
        demands = np.full(10, base)
        demands[::2] = np.nextafter(base, base + 1.0)
        self._assert_allocation_properties(demands, float(demands.sum()) * 0.37)
        # exact duplicates with weights in lockstep ratios
        demands = np.asarray([100.0, 200.0, 100.0, 200.0, 50.0])
        weights = np.asarray([1.0, 2.0, 1.0, 2.0, 0.5])
        self._assert_allocation_properties(demands, 300.0, weights)

    def test_randomized_allocation_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 48))
            demands = rng.uniform(0.0, 5000.0, size=n)
            if float(demands.sum()) <= 0:
                continue
            weights = (
                rng.uniform(0.1, 5.0, size=n) if rng.random() < 0.5 else None
            )
            capacity = float(demands.sum()) * float(rng.uniform(0.05, 1.2))
            if capacity <= 0:
                continue
            self._assert_allocation_properties(demands, capacity, weights)

    def test_allocate_step_records_idle_links_and_masks_inactive_rows(self):
        topology = _toy_topology()
        usage = []
        allocation = allocate_step(
            topology,
            step=4,
            link_index=np.asarray([0, 0, 1]),
            demands=np.asarray([8000.0, 8000.0, 500.0]),
            active=np.asarray([True, False, False]),
            usage_out=usage,
        )
        np.testing.assert_array_equal(allocation, [8000.0, 0.0, 0.0])
        assert [sample.link_id for sample in usage] == ["hot", "cold"]
        assert usage[0].active_sessions == 1 and usage[1].active_sessions == 0
        assert usage[0].step == 4 and usage[1].allocated_kbps == 0.0


class TestTopology:
    def test_attachment_is_deterministic_and_share_weighted(self):
        topology = NetworkTopology(
            name="t",
            links=(
                EdgeLink("big", 1000.0, user_share=3.0),
                EdgeLink("small", 1000.0, user_share=1.0),
            ),
        )
        users = [f"u{i:04d}" for i in range(2000)]
        first = [topology.link_index_for(user) for user in users]
        assert first == [topology.link_index_for(user) for user in users]
        big_fraction = first.count(0) / len(first)
        assert 0.70 < big_fraction < 0.80  # 3:1 shares → ~75%

    def test_capacity_profile_events_and_cross_traffic(self):
        link = EdgeLink(
            "l",
            10_000.0,
            cross_traffic=CrossTraffic(base_kbps=500.0, peak_kbps=2000.0, period=32),
            events=(LinkEvent(10, 20, 0.5),),
        )
        assert link.capacity_at(0) < 10_000.0  # cross traffic always bites
        assert link.capacity_at(15) < link.capacity_at(5)  # outage window
        floor = EdgeLink("f", 100.0, events=(LinkEvent(0, 5, 0.0),))
        assert floor.capacity_at(2) == MIN_LINK_CAPACITY_KBPS

    def test_builtin_registry_and_resolution(self):
        names = available_topologies()
        assert {"single_bottleneck", "dual_isp", "metro_8"} <= set(names)
        topology = get_topology("dual_isp")
        assert topology.link_ids == ("fiber", "dsl")
        assert get_topology(topology) is topology
        assert get_topology(None) is None
        with pytest.raises(KeyError):
            get_topology("not_a_topology")

    def test_restrict_and_with_event(self):
        topology = get_topology("metro_8")
        sub = topology.restrict(["metro1", "metro5"])
        assert sub.link_ids == ("metro1", "metro5")
        with pytest.raises(KeyError):
            topology.restrict(["nope"])
        outage = topology.with_event("metro0", LinkEvent(5, 10, 0.5))
        assert outage.links[0].events and not topology.links[0].events
        assert outage.links[0].capacity_at(7) == topology.links[0].capacity_at(7) / 2

    def test_shard_profiles_keep_links_whole(self):
        topology = get_topology("metro_8")
        population = UserPopulation.generate(60, seed=0)
        shards = topology.shard_profiles(population.profiles, 3)
        assert sum(len(shard) for shard in shards) == 60
        link_shards = topology.shard_links(3)
        for shard, link_ids in zip(shards, link_shards):
            owned = set(link_ids)
            for profile in shard:
                assert topology.link_for(profile.user_id).link_id in owned

    def test_topology_pickles(self):
        topology = get_topology("dual_isp").with_event("dsl", LinkEvent(3, 9, 0.25))
        clone = pickle.loads(pickle.dumps(topology))
        assert clone == topology
        assert clone.capacities_at(5).tolist() == topology.capacities_at(5).tolist()

    def test_stable_helpers(self):
        assert stable_fraction("u1") == stable_fraction("u1")
        assert stable_fraction("u1") != stable_fraction("u2")
        key = stable_user_key("u1")
        assert key == stable_user_key("u1") and len(key) == 2
        assert all(0 <= word < 2**32 for word in key)


class TestNetworkedEquivalenceGate:
    @pytest.mark.parametrize("abr_name", sorted(_ABR_FACTORIES))
    @pytest.mark.parametrize("seed", [0, 13])
    def test_vector_reproduces_scalar_reference_exactly(self, abr_name, seed):
        from repro.sim import VectorBackend

        topology = _toy_topology()
        specs = _spec_batch(abr_name, seed)
        scalar_usage, vector_usage = [], []
        scalar_traces = get_backend("scalar").run_batch(
            specs, SessionConfig(), network=topology, link_usage=scalar_usage
        )
        backend = VectorBackend()
        vector_traces = backend.run_batch(
            specs, SessionConfig(), network=topology, link_usage=vector_usage
        )
        assert_traces_equal(scalar_traces, vector_traces)
        assert scalar_usage == vector_usage
        assert scalar_usage  # coupling actually ran through the allocator
        assert backend.last_fallback_sessions == 0

    def test_bursty_traces_and_shaped_topology(self):
        topology = NetworkTopology(
            name="shaped",
            links=(
                EdgeLink(
                    "hot",
                    8000.0,
                    user_share=0.5,
                    cross_traffic=CrossTraffic(300.0, 1500.0, period=24),
                ),
                EdgeLink("cold", 40_000.0, user_share=0.5, events=(LinkEvent(8, 16, 0.4),)),
            ),
        )
        specs = _spec_batch("hyb", 7, bursty=True)
        assert_traces_equal(
            get_backend("scalar").run_batch(specs, network=topology),
            get_backend("vector").run_batch(specs, network=topology),
        )

    @pytest.mark.parametrize(
        "config",
        [
            SessionConfig(max_segments=8),
            SessionConfig(initial_buffer=4.0, rtt=0.02, base_buffer_cap=9.0),
        ],
    )
    def test_session_config_variants(self, config):
        topology = _toy_topology()
        specs = _spec_batch("bba", 3, num_sessions=8)
        assert_traces_equal(
            get_backend("scalar").run_batch(specs, config, network=topology),
            get_backend("vector").run_batch(specs, config, network=topology),
        )

    def test_networked_batch_with_a_kernelless_spec_runs_whole_on_reference(self):
        """One kernel-less spec sends the whole networked batch to the reference.

        Allocation couples every session at every slot, so a batch mixing
        kernel-equipped ABRs with a kernel-less subclass runs entirely on the
        event-ordered reference engine: traces *and* the per-slot link-usage
        stream equal the scalar backend's, and every session is counted as a
        fallback.
        """
        from repro.sim import VectorBackend

        from test_vector_backend import KernellessABR

        topology = _toy_topology()
        video = Video(num_segments=18, seed=5)
        trace = StationaryTraceGenerator(1500.0, 400.0).generate(
            30, np.random.default_rng(3)
        )
        specs = [
            SessionSpec(
                abr=KernellessABR() if i % 3 == 0 else (BOLA() if i % 3 == 1 else HYB()),
                video=video,
                trace=trace,
                exit_model=BaselineExitModel(),
                seed=i,
                user_id=f"u{i}",
                start_step=(i % 2) * 4,
            )
            for i in range(9)
        ]
        scalar_usage, vector_usage = [], []
        backend = VectorBackend()
        assert_traces_equal(
            get_backend("scalar").run_batch(
                specs, network=topology, link_usage=scalar_usage
            ),
            backend.run_batch(specs, network=topology, link_usage=vector_usage),
        )
        assert scalar_usage == vector_usage
        # the kernel-less third takes the whole batch to the reference engine
        assert backend.last_fallback_sessions == 9
        assert backend.last_batch_sessions == 9

    def test_stateful_abr_instances_survive_interleaving(self):
        """Shared stateful ABRs are reset once up front, not mid-flight.

        Concurrent sessions sharing one RobustMPC instance deterministically
        share its error history (one user, one ABR brain); a second run must
        reproduce the first exactly, and a spec with its *own* instance must
        match a solo un-networked run when the link is uncongested.
        """
        from repro.abr.robust_mpc import RobustMPC

        fat = NetworkTopology(name="fat", links=(EdgeLink("fat", 1e9),))
        video = Video(num_segments=16, seed=4)
        trace = StationaryTraceGenerator(2200.0, 300.0).generate(
            25, np.random.default_rng(5)
        )
        shared = RobustMPC()
        specs = [
            SessionSpec(
                abr=shared,
                video=video,
                trace=trace,
                exit_model=RuleBasedUser(6.0, 4),
                seed=i,
                user_id="u-shared",
                start_step=i * 2,
            )
            for i in range(3)
        ] + [
            SessionSpec(
                abr=RobustMPC(),
                video=video,
                trace=trace,
                seed=99,
                user_id="u-solo",
                start_step=1,
            )
        ]
        first = get_backend("vector").run_batch(specs, network=fat)
        second = get_backend("vector").run_batch(specs, network=fat)
        assert_traces_equal(first, second)
        solo = get_backend("scalar").run_batch(
            [
                SessionSpec(
                    abr=RobustMPC(), video=video, trace=trace, seed=99, user_id="u-solo"
                )
            ]
        )
        assert_traces_equal(solo, first[-1:])

    @pytest.mark.parametrize("mode", ["fixed", "bayesian"])
    def test_lingxi_cohorts_match_reference_with_zero_fallbacks(self, mode):
        """Networked LingXi sessions run lockstep through the controller host."""
        from repro.core.exit_predictor import ExitRatePredictor
        from repro.net import CrossTraffic
        from repro.sim import VectorBackend
        from repro.sim.video import VideoLibrary

        from test_vector_backend import make_lingxi_abr

        predictor = ExitRatePredictor(channels=8, hidden=16, seed=0)
        topology = NetworkTopology(
            name="tight",
            links=(
                EdgeLink(
                    "hot",
                    3500.0,
                    cross_traffic=CrossTraffic(200.0, 800.0, period=10),
                ),
            ),
        )

        def build_specs():
            library = VideoLibrary(
                num_videos=2, mean_duration=40.0, std_duration=6.0, seed=2
            )
            generator = MarkovTraceGenerator()
            rng = np.random.default_rng(7)
            seeds = spawn_session_seeds(21, 6)
            return [
                SessionSpec(
                    abr=make_lingxi_abr(predictor, 200 + i, mode),
                    video=library[i % 2],
                    trace=generator.generate(40, rng),
                    exit_model=None,
                    seed=seeds[i],
                    user_id=f"u{i}",
                    link="hot",
                    start_step=(i % 2) * 3,
                )
                for i in range(6)
            ]

        scalar_specs, vector_specs = build_specs(), build_specs()
        scalar_usage, vector_usage = [], []
        scalar_traces = get_backend("scalar").run_batch(
            scalar_specs, network=topology, link_usage=scalar_usage
        )
        backend = VectorBackend()
        vector_traces = backend.run_batch(
            vector_specs, network=topology, link_usage=vector_usage
        )
        assert_traces_equal(scalar_traces, vector_traces)
        assert scalar_usage == vector_usage
        assert backend.last_fallback_sessions == 0
        for scalar_spec, vector_spec in zip(scalar_specs, vector_specs):
            assert (
                scalar_spec.abr.controller.history
                == vector_spec.abr.controller.history
            )
        # congestion actually triggered per-user optimization
        assert sum(
            len(spec.abr.controller.history) for spec in scalar_specs
        ) > 0

    def test_uncongested_networked_equals_unnetworked(self):
        """With capacity to spare, the allocator must be a perfect no-op."""
        fat = NetworkTopology(name="fat", links=(EdgeLink("fat", 1e9),))
        specs = _spec_batch("hyb", 5, staggered=True)
        plain = [
            SessionSpec(
                abr=spec.abr,
                video=spec.video,
                trace=spec.trace,
                exit_model=spec.exit_model,
                seed=spec.seed,
                user_id=spec.user_id,
            )
            for spec in specs
        ]
        unnetworked = get_backend("scalar").run_batch(plain)
        for backend in ("scalar", "vector"):
            assert_traces_equal(
                unnetworked, get_backend(backend).run_batch(specs, network=fat)
            )

    def test_explicit_link_and_weight_fields(self):
        topology = _toy_topology()
        video = Video(num_segments=12, seed=1)
        trace = StationaryTraceGenerator(6000.0, 100.0).generate(
            20, np.random.default_rng(0)
        )
        specs = [
            SessionSpec(
                abr=HYB(),
                video=video,
                trace=trace,
                seed=i,
                user_id=f"u{i}",
                link="hot",
                weight=2.0 if i == 0 else 1.0,
            )
            for i in range(6)
        ]
        usage = []
        traces = get_backend("vector").run_batch(specs, network=topology, link_usage=usage)
        assert_traces_equal(
            get_backend("scalar").run_batch(specs, network=topology), traces
        )
        # all demand landed on the pinned link, and the weighted session got
        # a strictly larger share while the link was congested
        assert all(s.active_sessions == 0 for s in usage if s.link_id == "cold")
        heavy = traces[0].records[2].bandwidth_kbps
        light = traces[1].records[2].bandwidth_kbps
        assert heavy > light

    def test_spec_validation(self):
        video = Video(num_segments=4, seed=0)
        trace = StationaryTraceGenerator(2000.0).generate(4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            SessionSpec(abr=HYB(), video=video, trace=trace, start_step=-1)
        with pytest.raises(ValueError):
            SessionSpec(abr=HYB(), video=video, trace=trace, weight=0.0)
        topology = _toy_topology()
        spec = SessionSpec(
            abr=HYB(), video=video, trace=trace, seed=0, link="missing"
        )
        with pytest.raises(KeyError):
            get_backend("vector").run_batch([spec], network=topology)


class TestEmergentCongestion:
    @staticmethod
    def _mean_allocated(num_sessions: int) -> tuple[float, LinkUtilizationLog]:
        topology = NetworkTopology(name="one", links=(EdgeLink("hot", 20_000.0),))
        video = Video(num_segments=15, seed=2)
        trace = StationaryTraceGenerator(4000.0, 200.0).generate(
            20, np.random.default_rng(1)
        )
        specs = [
            SessionSpec(
                abr=HYB(), video=video, trace=trace, seed=i, user_id=f"u{i}"
            )
            for i in range(num_sessions)
        ]
        usage = []
        get_backend("vector").run_batch(specs, network=topology, link_usage=usage)
        log = LinkUtilizationLog(usage)
        return log.mean_allocated_per_session_kbps("hot"), log

    def test_per_session_throughput_drops_as_concurrency_rises(self):
        lone, log_lone = self._mean_allocated(2)
        mid, _ = self._mean_allocated(10)
        crowd, log_crowd = self._mean_allocated(40)
        assert lone > mid > crowd
        assert log_lone.congested_slot_fraction("hot") == 0.0
        assert log_crowd.congested_slot_fraction("hot") > 0.5
        assert log_crowd.mean_utilization("hot") > 0.95

    def test_outage_window_squeezes_allocations(self):
        topology = NetworkTopology(
            name="o",
            links=(EdgeLink("l", 30_000.0, events=(LinkEvent(5, 10, 0.25),)),),
        )
        video = Video(num_segments=15, seed=3)
        trace = StationaryTraceGenerator(3000.0, 100.0).generate(
            20, np.random.default_rng(2)
        )
        specs = [
            SessionSpec(abr=HYB(), video=video, trace=trace, seed=i, user_id=f"u{i}")
            for i in range(12)
        ]
        usage = []
        get_backend("vector").run_batch(specs, network=topology, link_usage=usage)
        log = LinkUtilizationLog(usage)
        steps, utilization = log.utilization_timeseries("l")
        inside = utilization[(steps >= 5) & (steps < 10)]
        # during the outage the (quartered) link saturates
        assert inside.min() > 0.95
        # per-session allocation inside the window is below the access demand
        congested = [
            s for s in log.samples if 5 <= s.step < 10 and s.active_sessions > 0
        ]
        assert all(s.demand_kbps > s.allocated_kbps for s in congested)


class TestLinkUtilizationLog:
    def test_aggregations_and_validation(self):
        _, log = TestEmergentCongestion._mean_allocated(6)
        assert log.links() == ["hot"]
        assert log.peak_active_sessions() == 6
        steps, concurrency = log.concurrency_timeseries("hot")
        assert list(steps) == sorted(steps.tolist())
        assert concurrency.max() == 6
        with pytest.raises(KeyError):
            log.mean_utilization("nope")
        with pytest.raises(ValueError):
            LinkUtilizationLog([])


def _tiered_topology(
    hit_ratio: float | None = 0.5, allocator: str = "max_min_fair"
) -> NetworkTopology:
    """Toy 3-tier CDN: two edges share one peering link and one origin."""
    return NetworkTopology(
        name="toy_3tier",
        cache=None if hit_ratio is None else CacheModel(hit_ratio=hit_ratio),
        allocator=allocator,
        links=(
            EdgeLink("edge_a", 9_000.0, user_share=0.5, uplinks=("peer", "origin")),
            EdgeLink("edge_b", 7_000.0, user_share=0.5, uplinks=("peer", "origin")),
            EdgeLink("peer", 10_000.0, tier="peering"),
            EdgeLink("origin", 6_000.0, tier="origin"),
        ),
    )


class TestCrossTrafficScaleValidation:
    def test_scaled_rejects_non_finite_and_negative_factors(self):
        traffic = CrossTraffic(base_kbps=100.0, peak_kbps=300.0)
        assert traffic.scaled(2.0).base_kbps == 200.0
        for factor in (float("nan"), float("inf"), -0.5):
            with pytest.raises(ValueError, match="finite and non-negative"):
                traffic.scaled(factor)

    def test_topology_scale_validates_before_touching_links(self):
        # even a topology with *no* cross traffic must reject a bad factor
        # up front, not links-deep into a run
        bare = _toy_topology()
        for factor in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="finite and non-negative"):
                bare.with_cross_traffic_scale(factor)
        shaped = bare.with_cross_traffic(CrossTraffic(base_kbps=50.0))
        with pytest.raises(ValueError, match="finite and non-negative"):
            shaped.with_cross_traffic_scale(float("nan"))
        assert shaped.with_cross_traffic_scale(0.0).links[0].cross_traffic.base_kbps == 0.0


class TestCacheModel:
    def test_validation(self):
        CacheModel(0.0)
        CacheModel(1.0)
        for ratio in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                CacheModel(ratio)

    def test_miss_draws_are_deterministic_and_identity_keyed(self):
        cache = CacheModel(hit_ratio=0.6)
        profile = cache.miss_profile("u42", 64)
        np.testing.assert_array_equal(profile, cache.miss_profile("u42", 64))
        assert [cache.is_miss("u42", k) for k in range(64)] == profile.tolist()
        # a longer profile is a prefix-extension (draws keyed by (user, k))
        np.testing.assert_array_equal(cache.miss_profile("u42", 96)[:64], profile)
        # different users draw different profiles (overwhelmingly)
        other = cache.miss_profile("u43", 64)
        assert profile.tolist() != other.tolist()

    def test_extreme_ratios(self):
        assert not CacheModel(1.0).miss_profile("u", 32).any()
        assert CacheModel(0.0).miss_profile("u", 32).all()

    def test_miss_rate_tracks_hit_ratio(self):
        cache = CacheModel(hit_ratio=0.7)
        draws = np.concatenate(
            [cache.miss_profile(f"user{i}", 50) for i in range(40)]
        )
        assert draws.mean() == pytest.approx(0.3, abs=0.05)

    def test_miss_rows_slice_one_draw_per_user(self, monkeypatch):
        topology = _tiered_topology(hit_ratio=0.6)
        users = ["u1", "u2", "u1", "u3", "u1"]
        lengths = [12, 30, 40, 0, 7]
        expected = [topology.cache.miss_profile(u, n) for u, n in zip(users, lengths)]
        draws = []
        profile = CacheModel.miss_profile
        monkeypatch.setattr(
            CacheModel,
            "miss_profile",
            lambda self, user, n: draws.append(user) or profile(self, user, n),
        )
        rows = topology.miss_rows(users, lengths)
        assert draws == ["u1", "u2", "u3"]
        for row, want in zip(rows, expected):
            np.testing.assert_array_equal(row, want)
        cold = _tiered_topology(hit_ratio=None).miss_rows(users, lengths)
        assert [row.tolist() for row in cold] == [[True] * n for n in lengths]


class TestMultiTierTopology:
    def test_uplink_validation(self):
        with pytest.raises(ValueError, match="unknown uplinks"):
            NetworkTopology(links=(EdgeLink("e", 1000.0, uplinks=("ghost",)),))
        with pytest.raises(ValueError, match="only edge-tier"):
            EdgeLink("p", 1000.0, tier="peering", uplinks=("x",))
        with pytest.raises(ValueError, match="own uplink"):
            EdgeLink("e", 1000.0, uplinks=("e",))
        with pytest.raises(ValueError, match="duplicate uplinks"):
            EdgeLink("e", 1000.0, uplinks=("p", "p"))
        with pytest.raises(ValueError, match="at least one edge-tier"):
            NetworkTopology(links=(EdgeLink("p", 1000.0, tier="peering"),))

    def test_flat_topologies_are_unchanged(self):
        topology = _toy_topology()
        assert not topology.has_tiers
        assert topology.edge_indices == (0, 1)
        np.testing.assert_array_equal(topology.path_matrix, np.eye(2, dtype=bool))
        # component sharding degenerates to the historical round-robin
        for shards in (1, 2, 3):
            assert topology.shard_links(shards) == [
                list(topology.link_ids[i::shards]) for i in range(shards)
            ]

    def test_paths_and_edge_only_attachment(self):
        topology = _tiered_topology()
        assert topology.has_tiers
        assert topology.path_for("edge_a") == ("edge_a", "peer", "origin")
        assert topology.path_for("peer") == ("peer",)
        # users only ever land on edge links, share-weighted among them
        for i in range(200):
            index = topology.link_index_for(f"user{i}")
            assert topology.links[index].tier == "edge"

    def test_components_coshard_whole_paths(self):
        topology = _tiered_topology()
        for shards in (1, 2, 4):
            assignment = topology.shard_links(shards)
            owner = [ids for ids in assignment if ids]
            assert len(owner) == 1  # one connected component
            assert sorted(owner[0]) == sorted(topology.link_ids)
        # two independent trees split across shards
        forest = NetworkTopology(
            links=(
                EdgeLink("e1", 1000.0, uplinks=("o1",)),
                EdgeLink("e2", 1000.0, uplinks=("o2",)),
                EdgeLink("o1", 1000.0, tier="origin"),
                EdgeLink("o2", 1000.0, tier="origin"),
            )
        )
        split = forest.shard_links(2)
        assert sorted(split[0]) == ["e1", "o1"]
        assert sorted(split[1]) == ["e2", "o2"]
        # restrict() refuses to sever an edge link from its uplinks
        with pytest.raises(ValueError, match="unknown uplinks"):
            forest.restrict(["e1"])

    def test_cdn_3tier_is_registered(self):
        assert "cdn_3tier" in available_topologies()
        topology = get_topology("cdn_3tier")
        assert topology.has_tiers
        assert topology.cache is not None
        tiers = {link.tier for link in topology.links}
        assert tiers == {"edge", "peering", "origin"}
        # pickles cleanly for shard workers, including cached properties
        clone = pickle.loads(pickle.dumps(topology))
        assert clone.path_for("edge_a") == topology.path_for("edge_a")

    def test_allocator_field_is_validated(self):
        with pytest.raises(ValueError, match="unknown allocator"):
            NetworkTopology(
                links=(EdgeLink("e", 1000.0),), allocator="round_robin"
            )


class TestPathAwareAllocators:
    def test_single_link_paths_match_classic_water_fill(self):
        # disjoint one-link routes over several links, some rows routeless:
        # each link's sessions get max_min_fair's own answer, bit for bit
        rng = np.random.default_rng(5)
        for _ in range(20):
            sessions, links = int(rng.integers(1, 40)), int(rng.integers(1, 6))
            demands = rng.uniform(100.0, 4000.0, size=sessions)
            weights = rng.uniform(0.5, 2.0, size=sessions)
            capacities = rng.uniform(1000.0, 20_000.0, size=links)
            link_of = rng.integers(-1, links, size=sessions)  # -1: no route
            routes = link_of[:, None] == np.arange(links)
            expected = np.zeros(sessions)
            for index in range(links):
                rows = link_of == index
                if rows.any():
                    expected[rows] = max_min_fair(
                        demands[rows], float(capacities[index]), weights[rows]
                    )
            np.testing.assert_array_equal(
                path_water_fill(demands, capacities, routes, weights), expected
            )

    @pytest.mark.parametrize(
        "demands, expected",
        [([5000.0, 5000.0], [3000.0, 5000.0]), ([5000.0, 8000.0], [3000.0, 6000.0])],
        ids=["hit_at_its_demand", "hit_takes_the_edge_rest"],
    )
    def test_rate_bounded_by_every_path_link(self, demands, expected):
        # a miss through a narrow peer/origin pair and a hit on the same
        # edge: the miss is held to 3000 and the edge capacity it leaves
        # goes to the hit, up to the hit's own demand
        capacities = np.asarray([9000.0, 3000.0, 3000.0])  # edge, peer, origin
        routes = np.asarray([[True, True, True], [True, False, False]])
        allocation = path_water_fill(
            np.asarray(demands), capacities, routes, np.ones(2)
        )
        np.testing.assert_array_equal(allocation, expected)

    def test_exhausted_link_gives_zero_and_bad_capacity_raises(self):
        # session 0 freezes at 0.1 on link 1, which rounds to all of link 0
        # as well: session 2 is left a residual of exactly 0, not an error
        demands = np.asarray([5.0, 1e-300, 1e-17])
        capacities = np.asarray([0.1, 0.1])
        routes = np.asarray([[True, True], [True, True], [True, False]])
        weights = np.asarray([1.0, 1.0 / 3.0, 1.0])
        allocation = path_water_fill(demands, capacities, routes, weights)
        np.testing.assert_array_equal(allocation, [0.1, 1e-300, 0.0])
        for capacity in (np.nan, np.inf, 0.0):
            with pytest.raises(ValueError, match="capacity"):
                path_water_fill(demands, np.asarray([0.1, capacity]), routes, weights)

    def test_allocate_step_flat_multi_link_matches_per_link_fill(self):
        # weights=None on a flat topology: every link's active sessions get
        # max_min_fair's unweighted answer, bit for bit
        rng = np.random.default_rng(11)
        capacities = (10_000.0, 20_000.0, 40_000.0, 80_000.0)
        topology = NetworkTopology(
            name="flat4",
            links=tuple(EdgeLink(f"l{i}", c) for i, c in enumerate(capacities)),
        )
        congested = 0
        for step in range(10):
            link_index = rng.integers(0, len(capacities), size=60)
            demands = rng.uniform(0.0, 4000.0, size=60)
            active = rng.random(60) < 0.8
            allocation = allocate_step(topology, step, link_index, demands, active)
            expected = np.zeros(60)
            for index, capacity in enumerate(capacities):
                rows = active & (link_index == index)
                if rows.any():
                    expected[rows] = max_min_fair(demands[rows], capacity)
                    congested += demands[rows].sum() > capacity
            np.testing.assert_array_equal(allocation, expected)
        assert 0 < congested < 40  # both congested and roomy links occur

    def test_feasibility_on_random_tiered_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            sessions = int(rng.integers(1, 40))
            links = int(rng.integers(1, 6))
            demands = rng.uniform(0.0, 5000.0, size=sessions)
            weights = rng.uniform(0.2, 3.0, size=sessions)
            capacities = rng.uniform(500.0, 20_000.0, size=links)
            routes = rng.random((sessions, links)) < 0.5
            for allocation in (
                path_water_fill(demands, capacities, routes, weights),
                low_lapsley(demands, capacities, routes, weights),
            ):
                assert np.all(allocation <= demands + 1e-9)
                assert np.all(allocation >= -1e-12)
                arrivals = routes.T.astype(float) @ allocation
                assert np.all(arrivals <= capacities * (1 + 1e-9))
                # routeless sessions receive nothing
                assert np.all(allocation[~routes.any(axis=1)] == 0.0)

    def test_low_lapsley_is_deterministic_and_fills_congested_links(self):
        demands = np.full(8, 4000.0)
        weights = np.ones(8)
        capacities = np.asarray([20_000.0, 6_000.0])
        routes = np.zeros((8, 2), dtype=bool)
        routes[:, 0] = True
        routes[::2, 1] = True
        first = low_lapsley(demands, capacities, routes, weights)
        second = low_lapsley(demands, capacities, routes, weights)
        np.testing.assert_array_equal(first, second)
        arrivals = routes.T.astype(float) @ first
        # the narrow link is the bottleneck and ends essentially full
        assert arrivals[1] == pytest.approx(6_000.0, rel=0.01)

    def test_allocate_step_cache_hits_stay_on_the_edge(self):
        topology = _tiered_topology(hit_ratio=None)
        link_index = np.asarray([0, 0, 1])
        demands = np.asarray([2000.0, 2000.0, 2000.0])
        active = np.ones(3, dtype=bool)
        usage = []
        # all hits: upstream tiers see zero sessions
        allocate_step(
            topology, 0, link_index, demands, active,
            usage_out=usage, full_path=np.zeros(3, dtype=bool),
        )
        by_link = {s.link_id: s for s in usage}
        assert by_link["peer"].active_sessions == 0
        assert by_link["origin"].active_sessions == 0
        assert by_link["edge_a"].active_sessions == 2
        assert by_link["peer"].tier == "peering"
        # all misses: every active session traverses its full path
        usage = []
        allocate_step(
            topology, 0, link_index, demands, active,
            usage_out=usage, full_path=np.ones(3, dtype=bool),
        )
        by_link = {s.link_id: s for s in usage}
        assert by_link["peer"].active_sessions == 3
        assert by_link["origin"].active_sessions == 3
        # the shared origin (6 Mbps) caps total allocated throughput
        assert sum(s.allocated_kbps for s in usage if s.tier == "edge") <= 6000.0 + 1e-9

    def test_allocate_step_rejects_non_finite_batch_inputs(self):
        topology = _tiered_topology(hit_ratio=None)
        link_index = np.asarray([0])
        active = np.ones(1, dtype=bool)
        with pytest.raises(ValueError, match="demands"):
            allocate_step(topology, 0, link_index, np.asarray([np.nan]), active)
        with pytest.raises(ValueError, match="weights"):
            allocate_step(
                topology, 0, link_index, np.asarray([100.0]), active,
                weights=np.asarray([np.nan]),
            )


class TestMultiTierEquivalenceGate:
    """Scalar == vector on tiered topologies, across the cache hit/miss mix."""

    @pytest.mark.parametrize("abr_name", ["throughput", "hyb", "bba", "bola"])
    @pytest.mark.parametrize("hit_ratio", [None, 0.0, 0.5, 1.0])
    def test_traces_and_usage_identical(self, abr_name, hit_ratio):
        specs = _spec_batch(abr_name, seed=31, num_sessions=12)
        topology = _tiered_topology(hit_ratio=hit_ratio)
        scalar_usage, vector_usage = [], []
        scalar = get_backend("scalar").run_batch(
            specs, SessionConfig(), network=topology, link_usage=scalar_usage
        )
        vector = get_backend("vector").run_batch(
            specs, SessionConfig(), network=topology, link_usage=vector_usage
        )
        assert_traces_equal(scalar, vector)
        assert scalar_usage == vector_usage
        tiers = {s.tier for s in scalar_usage}
        assert tiers == {"edge", "peering", "origin"}

    @pytest.mark.parametrize("allocator", ["max_min_fair", "low_lapsley"])
    def test_both_allocators_pass_the_gate(self, allocator):
        specs = _spec_batch("bola", seed=37, num_sessions=14, bursty=True)
        topology = _tiered_topology(hit_ratio=0.4, allocator=allocator)
        scalar_usage, vector_usage = [], []
        scalar = get_backend("scalar").run_batch(
            specs, SessionConfig(), network=topology, link_usage=scalar_usage
        )
        vector = get_backend("vector").run_batch(
            specs, SessionConfig(), network=topology, link_usage=vector_usage
        )
        assert_traces_equal(scalar, vector)
        assert scalar_usage == vector_usage

    def test_low_lapsley_selectable_on_flat_topologies(self):
        specs = _spec_batch("hyb", seed=41, num_sessions=10)
        topology = NetworkTopology(
            name="flat_ll",
            allocator="low_lapsley",
            links=_toy_topology().links,
        )
        scalar_usage, vector_usage = [], []
        scalar = get_backend("scalar").run_batch(
            specs, SessionConfig(), network=topology, link_usage=scalar_usage
        )
        vector = get_backend("vector").run_batch(
            specs, SessionConfig(), network=topology, link_usage=vector_usage
        )
        assert_traces_equal(scalar, vector)
        assert scalar_usage == vector_usage

    def test_cold_cache_shifts_load_upstream(self):
        """The cache model is load-bearing: colder caches raise origin load."""
        specs = _spec_batch("throughput", seed=43, num_sessions=16, staggered=False)
        origin_demand = {}
        for ratio in (0.9, 0.1):
            usage = []
            get_backend("vector").run_batch(
                specs,
                SessionConfig(),
                network=_tiered_topology(hit_ratio=ratio),
                link_usage=usage,
            )
            origin_demand[ratio] = sum(
                s.demand_kbps for s in usage if s.link_id == "origin"
            )
        assert origin_demand[0.1] > origin_demand[0.9]
