"""Workload scenarios for fleet runs.

A :class:`Scenario` tells the orchestrator how a simulated day of traffic
looks for each user: how many sessions they play, what their network looks
like while they play, and what catalogue their device pulls videos from.
Scenarios are plain picklable objects so they travel to worker processes
unchanged, and all randomness flows through the per-user RNG the orchestrator
hands in — the same seed always produces the same traffic.

Ten workloads ship built-in (the registry is open for more):

``steady_state``
    Every user behaves exactly like their profile says — the baseline.
``flash_crowd``
    A platform-wide event multiplies per-user session counts while CDN
    congestion scales everyone's bandwidth down (**exogenous** congestion:
    every session still plays against a private, pre-scaled trace).
``regional_degradation``
    A deterministic fraction of users (a "region") sees their network degraded
    to a fraction of its mean and turned bursty (Markov-modulated), as in an
    access-network outage.
``device_mix``
    Heterogeneous devices: mobile users get a truncated low-rung ladder and
    short videos, TV users get the full ladder and long videos.
``flash_crowd_shared`` / ``link_outage`` / ``evening_peak``
    **Congestion-native** workloads for networked fleet runs
    (``FleetConfig(network=...)``): arrivals surge onto shared
    :mod:`repro.net` edge links, a link loses capacity mid-day, or diurnal
    cross-traffic squeezes every link — and the resulting throughput drops,
    stalls and exits *emerge* from sessions competing for capacity instead
    of being injected by trace scaling.  Without a network they degrade
    gracefully to steady-state-like runs (start slots and topology shaping
    have no effect on uncoupled sessions).
``cache_storm`` / ``origin_overload`` / ``peering_brownout``
    **Multi-tier** workloads for topologies with uplink chains
    (edge → peering → origin, e.g. ``cdn_3tier``): edge caches go cold and
    miss traffic floods upstream, the origin throttles mid-day, or peering
    links brown out — congestion concentrated on tiers that only cache-miss
    downloads traverse.  On flat topologies they degrade to an arrival
    surge / largest-link capacity shock.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from repro.net.topology import (
    CacheModel,
    CrossTraffic,
    LinkEvent,
    NetworkTopology,
    stable_fraction,
)
from repro.sim.bandwidth import BandwidthTrace, MarkovTraceGenerator
from repro.sim.video import BitrateLadder, Video, VideoLibrary
from repro.users.population import UserProfile

__all__ = [
    "Scenario",
    "SteadyStateScenario",
    "FlashCrowdScenario",
    "FlashCrowdSharedScenario",
    "LinkOutageScenario",
    "EveningPeakScenario",
    "RegionalDegradationScenario",
    "DeviceMixScenario",
    "CacheStormScenario",
    "OriginOverloadScenario",
    "PeeringBrownoutScenario",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
    "stable_fraction",
]


class Scenario:
    """Baseline workload: users follow their own profiles (steady state)."""

    name = "steady_state"
    description = "every user plays their profile's sessions on their own network"

    def sessions_for(self, sessions_per_day: int, rng: np.random.Generator) -> int:
        """Number of sessions a user whose base count is ``sessions_per_day``
        (their profile's, or the run's override) plays today."""
        return sessions_per_day

    def trace_for(
        self, profile: UserProfile, rng: np.random.Generator, length: int
    ) -> BandwidthTrace:
        """Bandwidth trace the user's sessions run over today."""
        return profile.bandwidth_trace(length, rng)

    def video_for(
        self, profile: UserProfile, library: VideoLibrary, rng: np.random.Generator
    ) -> Video:
        """Video the user plays next."""
        return library.sample(rng)

    def start_for(
        self, profile: UserProfile, session_index: int, rng: np.random.Generator
    ) -> int:
        """Slot at which this session starts downloading.

        Only networked runs are sensitive to start times (uncoupled sessions
        are invariant to when they run); the baseline starts everything at
        slot 0.
        """
        return 0

    def network_for(self, topology: NetworkTopology) -> NetworkTopology:
        """Scenario-specific topology shaping (outages, cross traffic).

        Applied once per run, before users are sharded by link.  The default
        leaves the topology untouched.
        """
        return topology


class SteadyStateScenario(Scenario):
    """Alias of the baseline for registry symmetry."""


class FlashCrowdScenario(Scenario):
    """Platform-wide event: everyone watches more while the CDN saturates."""

    name = "flash_crowd"
    description = "session counts multiplied, bandwidth scaled down by congestion"

    def __init__(self, session_multiplier: float = 3.0, congestion_factor: float = 0.55) -> None:
        if session_multiplier < 1.0:
            raise ValueError("session_multiplier must be at least 1")
        if not 0 < congestion_factor <= 1.0:
            raise ValueError("congestion_factor must be in (0, 1]")
        self.session_multiplier = session_multiplier
        self.congestion_factor = congestion_factor

    def sessions_for(self, sessions_per_day: int, rng: np.random.Generator) -> int:
        return max(1, int(round(sessions_per_day * self.session_multiplier)))

    def trace_for(
        self, profile: UserProfile, rng: np.random.Generator, length: int
    ) -> BandwidthTrace:
        trace = profile.bandwidth_trace(length, rng)
        return trace.scaled(self.congestion_factor, name=f"{trace.name}_crowd")


class RegionalDegradationScenario(Scenario):
    """A fixed cohort of users sits behind a degraded, bursty access network."""

    name = "regional_degradation"
    description = "a deterministic user cohort gets degraded bursty bandwidth"

    def __init__(
        self,
        affected_fraction: float = 0.3,
        degradation_factor: float = 0.3,
        salt: str = "region",
    ) -> None:
        if not 0 <= affected_fraction <= 1:
            raise ValueError("affected_fraction must be in [0, 1]")
        if not 0 < degradation_factor <= 1:
            raise ValueError("degradation_factor must be in (0, 1]")
        self.affected_fraction = affected_fraction
        self.degradation_factor = degradation_factor
        self.salt = salt

    def is_affected(self, profile: UserProfile) -> bool:
        """True when the user belongs to the degraded region."""
        return stable_fraction(profile.user_id, self.salt) < self.affected_fraction

    def trace_for(
        self, profile: UserProfile, rng: np.random.Generator, length: int
    ) -> BandwidthTrace:
        if not self.is_affected(profile):
            return profile.bandwidth_trace(length, rng)
        degraded_mean = max(profile.mean_bandwidth_kbps * self.degradation_factor, 50.0)
        generator = MarkovTraceGenerator(
            good_mean_kbps=degraded_mean * 1.2,
            bad_mean_kbps=max(degraded_mean * 0.3, 30.0),
            good_std_kbps=degraded_mean * 0.3,
            bad_std_kbps=degraded_mean * 0.15,
            p_good_to_bad=0.25,
            p_bad_to_good=0.2,
        )
        return generator.generate(length, rng, name=f"{profile.user_id}_degraded")


class DeviceMixScenario(Scenario):
    """Heterogeneous device/ladder mix: mobile, desktop and TV catalogues."""

    name = "device_mix"
    description = "users split across mobile/desktop/TV ladders and video lengths"

    DEVICE_CLASSES: tuple[str, ...] = ("mobile", "desktop", "tv")

    def __init__(
        self,
        ladder: BitrateLadder | None = None,
        mobile_fraction: float = 0.5,
        tv_fraction: float = 0.2,
        num_videos: int = 8,
        seed: int = 0,
        salt: str = "device",
    ) -> None:
        if mobile_fraction < 0 or tv_fraction < 0 or mobile_fraction + tv_fraction > 1:
            raise ValueError("device fractions must be non-negative and sum to <= 1")
        base = ladder or BitrateLadder()
        self.mobile_fraction = mobile_fraction
        self.tv_fraction = tv_fraction
        self.salt = salt
        mobile_ladder = BitrateLadder(
            bitrates_kbps=base.bitrates_kbps[: max(2, base.num_levels - 1)]
        )
        self.libraries: dict[str, VideoLibrary] = {
            "mobile": VideoLibrary(
                ladder=mobile_ladder, num_videos=num_videos, mean_duration=30.0,
                std_duration=10.0, seed=seed + 11,
            ),
            "desktop": VideoLibrary(
                ladder=base, num_videos=num_videos, mean_duration=60.0,
                std_duration=20.0, seed=seed + 12,
            ),
            "tv": VideoLibrary(
                ladder=base, num_videos=num_videos, mean_duration=120.0,
                std_duration=30.0, seed=seed + 13,
            ),
        }

    def device_for(self, profile: UserProfile) -> str:
        """Deterministic device class of a user."""
        draw = stable_fraction(profile.user_id, self.salt)
        if draw < self.mobile_fraction:
            return "mobile"
        if draw < self.mobile_fraction + self.tv_fraction:
            return "tv"
        return "desktop"

    def video_for(
        self, profile: UserProfile, library: VideoLibrary, rng: np.random.Generator
    ) -> Video:
        return self.libraries[self.device_for(profile)].sample(rng)


class FlashCrowdSharedScenario(Scenario):
    """Flash crowd on shared links: congestion emerges from the arrival surge.

    Session counts multiply platform-wide and most sessions arrive inside a
    short surge window (the rest spread over the day), so concurrency on
    every edge link spikes — and, unlike :class:`FlashCrowdScenario`, nobody
    scales any trace: the per-session throughput collapse on the hot links
    is produced entirely by the fair-share allocator dividing finite
    capacity among more downloads.
    """

    name = "flash_crowd_shared"
    description = "arrival surge onto shared links; congestion emerges from load"

    def __init__(
        self,
        session_multiplier: float = 3.0,
        day_slots: int = 64,
        surge_slot: int = 16,
        surge_width: int = 8,
        surge_fraction: float = 0.7,
    ) -> None:
        if session_multiplier < 1.0:
            raise ValueError("session_multiplier must be at least 1")
        if day_slots <= 0 or surge_width <= 0:
            raise ValueError("day_slots and surge_width must be positive")
        if not 0 <= surge_slot < day_slots:
            raise ValueError("surge_slot must fall inside the day")
        if not 0 <= surge_fraction <= 1:
            raise ValueError("surge_fraction must be in [0, 1]")
        self.session_multiplier = session_multiplier
        self.day_slots = day_slots
        self.surge_slot = surge_slot
        self.surge_width = surge_width
        self.surge_fraction = surge_fraction

    def sessions_for(self, sessions_per_day: int, rng: np.random.Generator) -> int:
        return max(1, int(round(sessions_per_day * self.session_multiplier)))

    def start_for(
        self, profile: UserProfile, session_index: int, rng: np.random.Generator
    ) -> int:
        if rng.random() < self.surge_fraction:
            return int(self.surge_slot + rng.integers(self.surge_width))
        return int(rng.integers(self.day_slots))


class LinkOutageScenario(Scenario):
    """One edge link loses capacity mid-day (default: halved).

    Session arrivals spread uniformly over the day, so the outage window
    catches live traffic: sessions on the degraded link see their fair
    shares collapse while the window lasts, and the other links are
    untouched — a clean natural experiment for per-link telemetry.
    """

    name = "link_outage"
    description = "a link loses half its capacity for a mid-day window"

    def __init__(
        self,
        link_id: str | None = None,
        outage_start: int = 16,
        outage_end: int = 40,
        capacity_multiplier: float = 0.5,
        day_slots: int = 64,
    ) -> None:
        if day_slots <= 0:
            raise ValueError("day_slots must be positive")
        self.link_id = link_id
        self.outage_start = outage_start
        self.outage_end = outage_end
        self.capacity_multiplier = capacity_multiplier
        self.day_slots = day_slots

    def target_link(self, topology: NetworkTopology) -> str:
        """Link hit by the outage: explicit id, else the largest link."""
        if self.link_id is not None:
            return self.link_id
        return max(
            topology.links, key=lambda link: (link.capacity_kbps, link.link_id)
        ).link_id

    def network_for(self, topology: NetworkTopology) -> NetworkTopology:
        return topology.with_event(
            self.target_link(topology),
            LinkEvent(self.outage_start, self.outage_end, self.capacity_multiplier),
        )

    def start_for(
        self, profile: UserProfile, session_index: int, rng: np.random.Generator
    ) -> int:
        return int(rng.integers(self.day_slots))


class EveningPeakScenario(Scenario):
    """Diurnal cross-traffic peak with session arrivals skewed into it.

    Every link carries a smooth background-load cycle peaking in the
    "evening" (a fraction of the day), and arrival times lean toward that
    peak (triangular distribution), so utilization and congestion build up
    over the simulated day the way platform evening peaks do.
    """

    name = "evening_peak"
    description = "diurnal cross-traffic peak; arrivals skew into the evening"

    def __init__(
        self,
        day_slots: int = 64,
        peak_phase: float = 0.75,
        cross_traffic_fraction: float = 0.35,
    ) -> None:
        if day_slots <= 0:
            raise ValueError("day_slots must be positive")
        if not 0 <= peak_phase <= 1:
            raise ValueError("peak_phase must be in [0, 1]")
        if not 0 <= cross_traffic_fraction < 1:
            raise ValueError("cross_traffic_fraction must be in [0, 1)")
        self.day_slots = day_slots
        self.peak_phase = peak_phase
        self.cross_traffic_fraction = cross_traffic_fraction

    def network_for(self, topology: NetworkTopology) -> NetworkTopology:
        links = tuple(
            link
            if link.cross_traffic is not None
            else replace(
                link,
                cross_traffic=CrossTraffic(
                    base_kbps=0.0,
                    peak_kbps=link.capacity_kbps * self.cross_traffic_fraction,
                    period=self.day_slots,
                    phase=self.peak_phase,
                ),
            )
            for link in topology.links
        )
        return replace(topology, links=links)

    def start_for(
        self, profile: UserProfile, session_index: int, rng: np.random.Generator
    ) -> int:
        mode = self.peak_phase * self.day_slots
        draw = rng.triangular(0.0, mode, self.day_slots)
        return min(int(draw), self.day_slots - 1)


class CacheStormScenario(Scenario):
    """Edge caches go cold: most downloads traverse the full upstream path.

    On a multi-tier topology (:class:`~repro.net.topology.CacheModel` +
    ``EdgeLink.uplinks``) the scenario replaces the cache with a much colder
    one and multiplies session counts with a surge window, so miss traffic
    floods the peering and origin tiers — the CDN cache-storm regime where
    edge capacity is fine but upstream links melt.  On flat topologies the
    cache override is inert and the scenario degrades to an arrival surge.
    """

    name = "cache_storm"
    description = "cold CDN caches push an arrival surge onto peering/origin"

    def __init__(
        self,
        hit_ratio: float = 0.1,
        session_multiplier: float = 2.0,
        day_slots: int = 64,
        surge_slot: int = 12,
        surge_width: int = 12,
        surge_fraction: float = 0.6,
    ) -> None:
        if not 0.0 <= hit_ratio <= 1.0:
            raise ValueError("hit_ratio must be in [0, 1]")
        if session_multiplier < 1.0:
            raise ValueError("session_multiplier must be at least 1")
        if day_slots <= 0 or surge_width <= 0:
            raise ValueError("day_slots and surge_width must be positive")
        if not 0 <= surge_slot < day_slots:
            raise ValueError("surge_slot must fall inside the day")
        if not 0 <= surge_fraction <= 1:
            raise ValueError("surge_fraction must be in [0, 1]")
        self.hit_ratio = hit_ratio
        self.session_multiplier = session_multiplier
        self.day_slots = day_slots
        self.surge_slot = surge_slot
        self.surge_width = surge_width
        self.surge_fraction = surge_fraction

    def network_for(self, topology: NetworkTopology) -> NetworkTopology:
        salt = topology.cache.salt if topology.cache is not None else "cdn-cache"
        return replace(topology, cache=CacheModel(self.hit_ratio, salt=salt))

    def sessions_for(self, sessions_per_day: int, rng: np.random.Generator) -> int:
        return max(1, int(round(sessions_per_day * self.session_multiplier)))

    def start_for(
        self, profile: UserProfile, session_index: int, rng: np.random.Generator
    ) -> int:
        if rng.random() < self.surge_fraction:
            return int(self.surge_slot + rng.integers(self.surge_width))
        return int(rng.integers(self.day_slots))


class _TierEventScenario(Scenario):
    """Shared machinery: a capacity event on every link of one tier.

    Subclasses fix the tier; when the topology has no link of that tier the
    event falls back to the largest link (so the scenario still produces a
    mid-day capacity shock on flat topologies).
    """

    tier = "origin"

    def __init__(
        self,
        event_start: int = 16,
        event_end: int = 40,
        capacity_multiplier: float = 0.35,
        day_slots: int = 64,
    ) -> None:
        if day_slots <= 0:
            raise ValueError("day_slots must be positive")
        self.event_start = event_start
        self.event_end = event_end
        self.capacity_multiplier = capacity_multiplier
        self.day_slots = day_slots

    def target_links(self, topology: NetworkTopology) -> list[str]:
        """Every link of the target tier, else the largest link."""
        targets = [
            link.link_id for link in topology.links if link.tier == self.tier
        ]
        if targets:
            return targets
        fallback = max(
            topology.links, key=lambda link: (link.capacity_kbps, link.link_id)
        )
        return [fallback.link_id]

    def network_for(self, topology: NetworkTopology) -> NetworkTopology:
        event = LinkEvent(self.event_start, self.event_end, self.capacity_multiplier)
        for link_id in self.target_links(topology):
            topology = topology.with_event(link_id, event)
        return topology

    def start_for(
        self, profile: UserProfile, session_index: int, rng: np.random.Generator
    ) -> int:
        return int(rng.integers(self.day_slots))


class OriginOverloadScenario(_TierEventScenario):
    """The CDN origin loses most of its capacity for a mid-day window.

    Cache misses from every edge funnel through the origin link, so the
    window throttles exactly the miss traffic: edge-only (cache-hit)
    downloads sail on while full-path sessions collapse to the origin's
    shrunken fair shares — the telemetry signature is origin-tier rows
    pinned at utilization 1.0 with edge rows mostly idle.
    """

    name = "origin_overload"
    description = "origin-tier links lose capacity mid-day; misses feel it"
    tier = "origin"


class PeeringBrownoutScenario(_TierEventScenario):
    """ISP peering links brown out (partial capacity) for a mid-day window.

    Peering sits between the edges and the origin, so the brownout splits
    the fleet by path: sessions whose edge feeds the browned-out peering
    link lose miss throughput, sessions on other edges are untouched — an
    ISP-vs-ISP asymmetry natural experiment.
    """

    name = "peering_brownout"
    description = "peering-tier links brown out for a mid-day window"
    tier = "peering"

    def __init__(
        self,
        event_start: int = 20,
        event_end: int = 44,
        capacity_multiplier: float = 0.4,
        day_slots: int = 64,
    ) -> None:
        super().__init__(event_start, event_end, capacity_multiplier, day_slots)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: dict[str, Callable[[], Scenario]] = {}


def register_scenario(name: str, factory: Callable[[], Scenario]) -> None:
    """Register a scenario factory under ``name`` (overwrites silently)."""
    _REGISTRY[name] = factory


def available_scenarios() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY)


def get_scenario(scenario: str | Scenario | None) -> Scenario:
    """Resolve a scenario name (or pass an instance through, or default)."""
    if scenario is None:
        return SteadyStateScenario()
    if isinstance(scenario, Scenario):
        return scenario
    try:
        factory = _REGISTRY[scenario]
    except KeyError:
        raise KeyError(
            f"unknown scenario {scenario!r}; available: {available_scenarios()}"
        ) from None
    return factory()


register_scenario("steady_state", SteadyStateScenario)
register_scenario("flash_crowd", FlashCrowdScenario)
register_scenario("regional_degradation", RegionalDegradationScenario)
register_scenario("device_mix", DeviceMixScenario)
register_scenario("flash_crowd_shared", FlashCrowdSharedScenario)
register_scenario("link_outage", LinkOutageScenario)
register_scenario("evening_peak", EveningPeakScenario)
register_scenario("cache_storm", CacheStormScenario)
register_scenario("origin_overload", OriginOverloadScenario)
register_scenario("peering_brownout", PeeringBrownoutScenario)
