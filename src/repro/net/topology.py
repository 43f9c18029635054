"""Edge-link network topologies with deterministic user attachment.

A :class:`NetworkTopology` is a set of :class:`EdgeLink` objects — shared
bottlenecks in the spirit of the *Optimization Flow Control* model (Low &
Lapsley): every playback session attaches to exactly one edge link and all
sessions concurrently downloading on a link fair-share its capacity (the
allocation itself lives in :mod:`repro.net.allocator`).

Three properties make topologies safe to ship to fleet shard workers:

* **Picklable** — everything here is a frozen dataclass of plain values.
* **Deterministic attachment** — users map to links via the md5-based
  :func:`stable_fraction` idiom (stable across processes and Python runs),
  weighted by each link's ``user_share``.
* **Deterministic capacity profile** — a link's usable capacity at a slot is
  a pure function of the slot index: base capacity, scheduled
  :class:`LinkEvent` windows (outages, brown-outs) and an optional diurnal
  :class:`CrossTraffic` process.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

#: Usable link capacity never drops below this (keeps Equation 3 finite even
#: during outages: downloads become very slow, not undefined).
MIN_LINK_CAPACITY_KBPS = 10.0

#: Allocators a topology (or FleetConfig) may select; implementations live in
#: :mod:`repro.net.allocator`.
ALLOCATORS = ("low_lapsley", "max_min_fair")


def _stable_digest(user_id: str, salt: str) -> str:
    return hashlib.md5(
        f"{salt}:{user_id}".encode(), usedforsecurity=False
    ).hexdigest()


def stable_fraction(user_id: str, salt: str = "") -> float:
    """Deterministic pseudo-uniform value in [0, 1) derived from a user id.

    Unlike ``hash()`` this is stable across processes and Python runs, so the
    same users land in the same cohort (scenario group, edge link, …) in
    every shard and worker.
    """
    return int(_stable_digest(user_id, salt)[:8], 16) / float(0x100000000)


def stable_user_key(user_id: str, salt: str = "user-rng") -> tuple[int, int]:
    """Two stable 32-bit words derived from a user id (a ``spawn_key``).

    Used to give every user their own ``SeedSequence`` substream keyed by
    identity rather than by shard position, which is what makes fleet runs
    invariant to shard and worker counts.
    """
    digest = _stable_digest(user_id, salt)
    return int(digest[:8], 16), int(digest[8:16], 16)


@dataclass(frozen=True)
class CrossTraffic:
    """Deterministic diurnal background load on a link (kbps).

    The load at slot ``t`` is ``base + peak * (1 + cos(2*pi*(t/period -
    phase))) / 2`` — a smooth daily cycle peaking at ``phase`` (fraction of
    the period) with amplitude ``peak`` on top of a constant ``base``.
    """

    base_kbps: float = 0.0
    peak_kbps: float = 0.0
    period: int = 64
    phase: float = 0.5

    def __post_init__(self) -> None:
        if self.base_kbps < 0 or self.peak_kbps < 0:
            raise ValueError("cross-traffic loads must be non-negative")
        if self.period <= 0:
            raise ValueError("period must be positive")

    def at(self, step: int) -> float:
        """Background load (kbps) during slot ``step``."""
        if self.peak_kbps <= 0.0:
            return self.base_kbps
        cycle = math.cos(2.0 * math.pi * (step / self.period - self.phase))
        return self.base_kbps + self.peak_kbps * (1.0 + cycle) / 2.0

    def scaled(self, factor: float) -> "CrossTraffic":
        """Copy with base and peak loads multiplied by ``factor``.

        The diurnal *shape* (period, phase) is preserved; only the amplitude
        changes — how longitudinal campaigns evolve background load across
        simulated days.
        """
        if not math.isfinite(factor) or factor < 0:
            raise ValueError(
                f"cross-traffic scale factor must be finite and non-negative, "
                f"got {factor!r}"
            )
        return replace(
            self, base_kbps=self.base_kbps * factor, peak_kbps=self.peak_kbps * factor
        )


@dataclass(frozen=True)
class LinkEvent:
    """A scheduled capacity change over a slot window (e.g. an outage)."""

    start_step: int
    end_step: int
    capacity_multiplier: float

    def __post_init__(self) -> None:
        if self.end_step <= self.start_step:
            raise ValueError("end_step must be after start_step")
        if self.capacity_multiplier < 0:
            raise ValueError("capacity_multiplier must be non-negative")

    def active_at(self, step: int) -> bool:
        """True while the event window covers ``step``."""
        return self.start_step <= step < self.end_step


@dataclass(frozen=True)
class CacheModel:
    """Deterministic per-user CDN edge-cache model.

    Segment ``k`` of a user's playback is an edge-cache **hit** (download
    stays on the edge link) or a **miss** (download traverses the edge link's
    full upstream path) according to the stable-digest draw
    ``stable_fraction(f"{user_id}:{k}", salt) < hit_ratio`` — a pure function
    of identity, so every backend, shard and worker agrees segment for
    segment.
    """

    hit_ratio: float
    salt: str = "cdn-cache"

    def __post_init__(self) -> None:
        if not (0.0 <= self.hit_ratio <= 1.0):  # NaN fails this too
            raise ValueError(
                f"hit_ratio must be a finite value in [0, 1], got {self.hit_ratio!r}"
            )

    def is_miss(self, user_id: str, segment_index: int) -> bool:
        """True when segment ``segment_index`` misses the edge cache."""
        return (
            stable_fraction(f"{user_id}:{segment_index}", self.salt)
            >= self.hit_ratio
        )

    def miss_profile(self, user_id: str, num_segments: int) -> np.ndarray:
        """Boolean miss mask for a user's first ``num_segments`` segments.

        The draws of :meth:`is_miss`, with the digest state of the common
        ``"{salt}:{user_id}:"`` prefix computed once per user, and the
        fraction read from the digest's first 4 bytes (the value of its
        first 8 hex digits).
        """
        prefix = hashlib.md5(f"{self.salt}:{user_id}:".encode(), usedforsecurity=False)

        def draws():
            for k in range(num_segments):
                digest = prefix.copy()
                digest.update(str(k).encode())
                fraction = int.from_bytes(digest.digest()[:4], "big") / float(0x100000000)
                yield fraction >= self.hit_ratio

        return np.fromiter(draws(), dtype=bool, count=num_segments)


@dataclass(frozen=True)
class EdgeLink:
    """One shared bottleneck link.

    ``user_share`` is the link's relative weight in user attachment: a link
    with twice the share of another attracts (deterministically) twice the
    users.  Users only ever attach to ``tier == "edge"`` links; upstream
    tiers (``"peering"``, ``"origin"``) are reached through an edge link's
    ``uplinks`` chain — the ordered link ids a cache-miss download traverses
    beyond the edge.
    """

    link_id: str
    capacity_kbps: float
    user_share: float = 1.0
    cross_traffic: CrossTraffic | None = None
    events: tuple[LinkEvent, ...] = ()
    tier: str = "edge"
    uplinks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.link_id:
            raise ValueError("link_id must be non-empty")
        if self.capacity_kbps <= 0:
            raise ValueError("capacity_kbps must be positive")
        if self.user_share <= 0:
            raise ValueError("user_share must be positive")
        if not self.tier:
            raise ValueError("tier must be non-empty")
        if self.uplinks and self.tier != "edge":
            raise ValueError(
                f"only edge-tier links may declare uplinks; {self.link_id!r} "
                f"is tier {self.tier!r}"
            )
        if len(set(self.uplinks)) != len(self.uplinks):
            raise ValueError(f"duplicate uplinks on {self.link_id!r}: {self.uplinks}")
        if self.link_id in self.uplinks:
            raise ValueError(f"{self.link_id!r} cannot be its own uplink")

    def capacity_at(self, step: int) -> float:
        """Usable capacity (kbps) for sessions during slot ``step``."""
        capacity = self.capacity_kbps
        for event in self.events:
            if event.active_at(step):
                capacity *= event.capacity_multiplier
        if self.cross_traffic is not None:
            capacity -= self.cross_traffic.at(step)
        return max(capacity, MIN_LINK_CAPACITY_KBPS)


@dataclass(frozen=True)
class NetworkTopology:
    """An immutable set of links with deterministic user attachment.

    Flat topologies (every link ``tier == "edge"``, no ``uplinks``) behave
    exactly as before.  Multi-tier topologies add upstream links that a
    download traverses on an edge-cache miss (see :class:`CacheModel`):
    the session's rate is then bounded by every link on its path.
    ``allocator`` names the rate-control algorithm of
    :mod:`repro.net.allocator` used for the topology (``"max_min_fair"``
    water-filling or ``"low_lapsley"`` primal-dual optimization flow
    control).
    """

    links: tuple[EdgeLink, ...]
    name: str = "topology"
    salt: str = "net-link"
    cache: CacheModel | None = None
    allocator: str = "max_min_fair"

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("a topology needs at least one link")
        ids = [link.link_id for link in self.links]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate link ids in topology: {ids}")
        if self.allocator not in ALLOCATORS:
            raise ValueError(
                f"unknown allocator {self.allocator!r}; "
                f"available: {list(ALLOCATORS)}"
            )
        known = set(ids)
        edge_tiers = 0
        for link in self.links:
            if link.tier == "edge":
                edge_tiers += 1
            missing = [up for up in link.uplinks if up not in known]
            if missing:
                raise ValueError(
                    f"link {link.link_id!r} references unknown uplinks {missing}"
                )
        if edge_tiers == 0:
            raise ValueError("a topology needs at least one edge-tier link")

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def link_ids(self) -> tuple[str, ...]:
        """Link ids in topology order."""
        return tuple(link.link_id for link in self.links)

    def index_of(self, link_id: str) -> int:
        """Topology index of a link id."""
        for index, link in enumerate(self.links):
            if link.link_id == link_id:
                return index
        raise KeyError(f"unknown link {link_id!r}; available: {list(self.link_ids)}")

    @cached_property
    def has_tiers(self) -> bool:
        """True when any link declares an upstream path (multi-tier topology)."""
        return any(link.uplinks for link in self.links)

    @cached_property
    def edge_indices(self) -> tuple[int, ...]:
        """Topology indices of the user-attachable (edge-tier) links."""
        return tuple(
            index for index, link in enumerate(self.links) if link.tier == "edge"
        )

    @cached_property
    def path_matrix(self) -> np.ndarray:
        """Boolean ``(num_links, num_links)``: ``[e, l]`` = link ``l`` is on
        the full (cache-miss) path of edge link ``e``.  Rows of non-edge
        links are just their own one-hot (they never originate sessions)."""
        matrix = np.eye(self.num_links, dtype=bool)
        index = {link.link_id: i for i, link in enumerate(self.links)}
        for i, link in enumerate(self.links):
            for up in link.uplinks:
                matrix[i, index[up]] = True
        return matrix

    def path_for(self, link_id: str) -> tuple[str, ...]:
        """Full cache-miss path of an edge link: itself, then its uplinks."""
        link = self.links[self.index_of(link_id)]
        return (link.link_id, *link.uplinks)

    def link_index_for(self, user_id: str) -> int:
        """Deterministic link attachment of a user (``user_share``-weighted).

        Only edge-tier links attract users; upstream tiers are reached via
        ``uplinks`` on cache misses.  On flat topologies (every link is edge
        tier) this is the historical attachment, bit for bit.
        """
        draw = stable_fraction(user_id, self.salt)
        edge = self.edge_indices
        total = sum(self.links[index].user_share for index in edge)
        cumulative = 0.0
        for index in edge:
            cumulative += self.links[index].user_share / total
            if draw < cumulative:
                return index
        return edge[-1]

    def link_for(self, user_id: str) -> EdgeLink:
        """The edge link a user attaches to."""
        return self.links[self.link_index_for(user_id)]

    def miss_rows(
        self, user_ids: Sequence[str], lengths: Sequence[int]
    ) -> list[np.ndarray]:
        """Cache-miss masks of a batch: row *i* covers the first
        ``lengths[i]`` segments of ``user_ids[i]``.

        Each user's profile is drawn once, at the longest length the batch
        asks of that user, and every row of that user is a slice of it (a
        miss profile's prefix does not depend on its length), so rows of one
        user share memory and are read-only by convention.  Without a cache
        model every download misses.  Both simulation engines take their
        masks from here.
        """
        if self.cache is None:
            return [np.ones(length, dtype=bool) for length in lengths]
        longest: dict[str, int] = {}
        for user_id, length in zip(user_ids, lengths):
            longest[user_id] = max(longest.get(user_id, 0), length)
        profiles = {
            user_id: self.cache.miss_profile(user_id, length)
            for user_id, length in longest.items()
        }
        return [
            profiles[user_id][:length] for user_id, length in zip(user_ids, lengths)
        ]

    def capacities_at(self, step: int) -> np.ndarray:
        """Per-link usable capacity (kbps) during slot ``step``."""
        return np.asarray([link.capacity_at(step) for link in self.links])

    def with_event(self, link_id: str, event: LinkEvent) -> "NetworkTopology":
        """Copy of the topology with ``event`` appended to one link."""
        index = self.index_of(link_id)
        links = list(self.links)
        links[index] = replace(links[index], events=links[index].events + (event,))
        return replace(self, links=tuple(links))

    def with_cross_traffic(self, cross_traffic: CrossTraffic) -> "NetworkTopology":
        """Copy of the topology with ``cross_traffic`` applied to every link."""
        return replace(
            self,
            links=tuple(
                replace(link, cross_traffic=cross_traffic) for link in self.links
            ),
        )

    def with_cross_traffic_scale(self, factor: float) -> "NetworkTopology":
        """Copy with every link's cross-traffic amplitude scaled by ``factor``.

        Links without cross traffic are left untouched, so the helper
        composes with scenario shaping (e.g. ``evening_peak`` adds the
        profiles, the longitudinal drift then grows them day over day).
        """
        if not math.isfinite(factor) or factor < 0:
            # validate up front even when no link carries cross traffic —
            # otherwise a bad factor only explodes links-deep into a run
            raise ValueError(
                f"cross-traffic scale factor must be finite and non-negative, "
                f"got {factor!r}"
            )
        return replace(
            self,
            links=tuple(
                link
                if link.cross_traffic is None
                else replace(link, cross_traffic=link.cross_traffic.scaled(factor))
                for link in self.links
            ),
        )

    def restrict(self, link_ids: Sequence[str]) -> "NetworkTopology":
        """Sub-topology keeping only ``link_ids`` (in topology order).

        Used by the fleet orchestrator to hand each shard exactly the links
        it owns; attachment on a restricted topology is only meaningful for
        users whose link survived, so restricted specs should carry explicit
        ``SessionSpec.link`` ids (the orchestrator always sets them).
        """
        keep = set(link_ids)
        unknown = keep - set(self.link_ids)
        if unknown:
            raise KeyError(f"unknown links {sorted(unknown)}")
        return replace(
            self, links=tuple(link for link in self.links if link.link_id in keep)
        )

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the uplink graph, each a tuple of link
        indices in topology order; components ordered by smallest member.

        Links sharing any path must co-shard (the allocator couples them), so
        sharding distributes whole components.  On flat topologies every link
        is a singleton component in topology order, which reproduces the
        historical per-link round-robin exactly.
        """
        parent = list(range(self.num_links))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        index = {link.link_id: i for i, link in enumerate(self.links)}
        for i, link in enumerate(self.links):
            for up in link.uplinks:
                root_a, root_b = find(i), find(index[up])
                if root_a != root_b:
                    parent[max(root_a, root_b)] = min(root_a, root_b)
        members: dict[int, list[int]] = {}
        for i in range(self.num_links):
            members.setdefault(find(i), []).append(i)
        return tuple(tuple(members[root]) for root in sorted(members))

    def shard_links(self, num_shards: int) -> list[list[str]]:
        """Round-robin assignment of link ids to shards (some may be empty).

        Whole uplink-connected components are assigned together so a shard
        always owns every link of each of its sessions' paths.
        """
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        shards: list[list[str]] = [[] for _ in range(num_shards)]
        for position, component in enumerate(self._components):
            shards[position % num_shards].extend(
                self.links[i].link_id for i in component
            )
        return shards

    def shard_profiles(self, profiles: Sequence, num_shards: int) -> list[list]:
        """Shard user profiles *by link* so allocation coupling stays intra-shard.

        Every user of a link lands in the shard that owns the link, so a
        shard sees the complete set of competitors on each of its links —
        which is also what makes networked fleet aggregates invariant to the
        shard count (links never straddle shards).  Profile order within a
        shard follows the input order.
        """
        link_shards = self.shard_links(num_shards)
        shard_of_link = {
            link_id: shard
            for shard, ids in enumerate(link_shards)
            for link_id in ids
        }
        shards: list[list] = [[] for _ in range(num_shards)]
        for profile in profiles:
            link = self.links[self.link_index_for(profile.user_id)]
            shards[shard_of_link[link.link_id]].append(profile)
        return shards


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: dict[str, Callable[[], NetworkTopology]] = {}


def register_topology(name: str, factory: Callable[[], NetworkTopology]) -> None:
    """Register a topology factory under ``name`` (overwrites silently)."""
    _REGISTRY[name] = factory


def available_topologies() -> list[str]:
    """Registered topology names, sorted."""
    return sorted(_REGISTRY)


def get_topology(topology: str | NetworkTopology | None) -> NetworkTopology | None:
    """Resolve a topology name (pass instances and ``None`` through)."""
    if topology is None or isinstance(topology, NetworkTopology):
        return topology
    try:
        factory = _REGISTRY[topology]
    except KeyError:
        raise KeyError(
            f"unknown topology {topology!r}; available: {available_topologies()}"
        ) from None
    return factory()


def _single_bottleneck() -> NetworkTopology:
    return NetworkTopology(
        name="single_bottleneck",
        links=(EdgeLink("bottleneck", capacity_kbps=500_000.0),),
    )


def _dual_isp() -> NetworkTopology:
    return NetworkTopology(
        name="dual_isp",
        links=(
            EdgeLink("fiber", capacity_kbps=800_000.0, user_share=0.65),
            EdgeLink("dsl", capacity_kbps=120_000.0, user_share=0.35),
        ),
    )


def _metro_8() -> NetworkTopology:
    capacities = (300_000.0, 250_000.0, 200_000.0, 160_000.0,
                  120_000.0, 100_000.0, 80_000.0, 60_000.0)
    return NetworkTopology(
        name="metro_8",
        links=tuple(
            EdgeLink(f"metro{i}", capacity_kbps=capacity)
            for i, capacity in enumerate(capacities)
        ),
    )


def _cdn_3tier() -> NetworkTopology:
    """Three-tier CDN: edge caches → ISP peering → shared origin.

    Edge capacities sum to 135 Mbps against 110 Mbps of peering and an
    80 Mbps origin, so cold caches (misses traversing the full path) push
    congestion upstream — the cache-storm / origin-overload regime.
    """
    return NetworkTopology(
        name="cdn_3tier",
        cache=CacheModel(hit_ratio=0.7),
        links=(
            EdgeLink("edge_a", 60_000.0, user_share=0.4,
                     uplinks=("peer_a", "origin")),
            EdgeLink("edge_b", 45_000.0, user_share=0.35,
                     uplinks=("peer_a", "origin")),
            EdgeLink("edge_c", 30_000.0, user_share=0.25,
                     uplinks=("peer_b", "origin")),
            EdgeLink("peer_a", 70_000.0, tier="peering"),
            EdgeLink("peer_b", 40_000.0, tier="peering"),
            EdgeLink("origin", 80_000.0, tier="origin"),
        ),
    )


register_topology("single_bottleneck", _single_bottleneck)
register_topology("dual_isp", _dual_isp)
register_topology("metro_8", _metro_8)
register_topology("cdn_3tier", _cdn_3tier)
