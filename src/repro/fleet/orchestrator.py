"""Sharded multi-user fleet orchestration.

:class:`FleetOrchestrator` turns the single-session engine into a platform
simulator: a :class:`~repro.users.population.UserPopulation` is split into
``num_shards`` deterministic shards, each shard simulates all of its users'
sessions for one simulated day (scenario-shaped traffic, per-user ABR state,
per-user exit behaviour), and the shards run concurrently on the persistent
worker pool of :mod:`repro.fleet.pool`.  Results come back in
shard order, so fleet metrics are identical for a given ``(seed,
num_shards)`` no matter how many worker processes execute the shards —
including zero (inline execution).

Determinism contract
--------------------
* Sharding is round-robin by population index, or by uplink component for
  networked runs — decided in one place, :func:`shard_members`.
* Every user draws all of their randomness — ABR/controller seed, scenario
  draws, per-session `Philox` exit substreams — from the children of a
  `SeedSequence` keyed by ``(seed, md5(user_id))``, never from a
  shard-level stream: child 0 seeds the user's `PCG64` generator, children
  1..n the user's n sessions.  A shard derives all of these in two batches
  (:func:`~repro.sim.backend.derive_substreams`), bit-equal to numpy's own
  `SeedSequence`.  A user's traffic is therefore a function of the user and
  the seed only: every session is identical across shard counts, worker
  counts and backends.
* Shard outputs merge in shard order, so float aggregates are identical for
  a given ``(seed, num_shards)``; across shard counts they may differ in
  the last ulp (summation order), never in any session.

ABR factories
-------------
Worker processes need picklable factories, so the fleet defines its own
two-argument protocol ``factory(profile, seed) -> ABRAlgorithm`` with two
implementations: :class:`HybFleetFactory` (the production baseline) and
:class:`LingXiFleetFactory` (per-user LingXi controllers, each with the
lockstep Monte-Carlo evaluator every controller builds).
"""

from __future__ import annotations

import os
import time
from dataclasses import InitVar, dataclass, field, replace
from pathlib import Path
from typing import Callable, ClassVar, Iterable

import numpy as np

from repro import obs
from repro.abr.base import ABRAlgorithm, QoEParameters
from repro.obs import live as obs_live
from repro.abr.hyb import HYB
from repro.analytics.logs import LogCollection, SessionLog
from repro.core.controller import ControllerConfig, LingXiABR, LingXiController
from repro.core.exit_predictor import ExitRatePredictor
from repro.core.monte_carlo import MonteCarloConfig
from repro.core.parameter_space import ParameterSpace
from repro.core.persistence import controller_state_payload, restore_controller_state
from repro.core.triggers import TriggerPolicy
from repro.fleet.pool import WorkerPool, shared_pool
from repro.fleet.scenarios import Scenario, get_scenario
from repro.fleet.telemetry import (
    TelemetryEvent,
    TelemetryWriter,
    iter_shard_chunks,
)
from repro.net.allocator import LinkUsageSample
from repro.net.topology import (
    ALLOCATORS,
    NetworkTopology,
    get_topology,
    stable_user_key,
)
from repro.sim.backend import SessionSpec, derive_substreams, get_backend
from repro.sim.session import SessionConfig
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation, UserProfile


class HybFleetFactory:
    """Picklable per-user factory for the HYB production baseline."""

    def __init__(self, parameters: QoEParameters | None = None) -> None:
        self.parameters = parameters or QoEParameters()

    def __call__(self, profile: UserProfile, seed: int) -> ABRAlgorithm:
        """Fresh HYB instance for one user."""
        return HYB(parameters=self.parameters)


class LingXiFleetFactory:
    """Picklable per-user factory building LingXi-wrapped HYB controllers.

    Each user gets their own :class:`LingXiController`, seeded from the
    user's seed; its lockstep evaluator batches the NN inference of candidate
    scoring inside a shard.
    """

    def __init__(
        self,
        predictor: ExitRatePredictor,
        parameter_space: ParameterSpace | None = None,
        monte_carlo: MonteCarloConfig | None = None,
        controller_config: ControllerConfig | None = None,
        trigger: TriggerPolicy | None = None,
        baseline_parameters: QoEParameters | None = None,
    ) -> None:
        self.predictor = predictor
        self.parameter_space = parameter_space or ParameterSpace.for_hyb()
        self.monte_carlo = monte_carlo or MonteCarloConfig(num_samples=3)
        self.controller_config = controller_config or ControllerConfig(max_sample_times=3)
        self.trigger = trigger or TriggerPolicy()
        self.baseline_parameters = baseline_parameters or QoEParameters()

    def __call__(self, profile: UserProfile, seed: int) -> ABRAlgorithm:
        """Fresh LingXi(HYB) instance for one user."""
        controller = LingXiController(
            parameter_space=self.parameter_space,
            predictor=self.predictor,
            monte_carlo=self.monte_carlo,
            trigger=self.trigger,
            config=replace(self.controller_config, seed=seed),
        )
        return LingXiABR(HYB(parameters=self.baseline_parameters), controller)


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of one fleet run."""

    num_shards: int = 4
    #: Worker processes for the pool; ``None`` → ``min(num_shards, cpu)``,
    #: ``0`` or ``1`` → run shards inline (no pool).
    num_workers: int | None = None
    #: Override of every user's sessions-per-day (scenario multipliers still
    #: apply on top); ``None`` keeps each profile's own activity level.
    sessions_per_user: int | None = None
    trace_length: int = 120
    seed: int = 0
    day: int = 0
    session_config: SessionConfig = field(default_factory=SessionConfig)
    #: Simulation backend that runs each shard's
    #: :class:`~repro.sim.backend.SessionSpec` batch: ``"scalar"`` (the
    #: reference engine) or any other registered backend (e.g.
    #: ``"vector"``).  Both see the same specs with the same per-session
    #: `Philox` substreams, so the choice never changes a trace.
    backend: str = "scalar"
    #: Shared-bottleneck network substrate: a registered topology name (or a
    #: :class:`~repro.net.topology.NetworkTopology` instance), or ``None``
    #: for the classic uncoupled mode.  Networked runs shard users **by edge
    #: link** (so allocation coupling stays intra-shard) and emit per-slot
    #: link-utilization telemetry.
    network: str | NetworkTopology | None = None
    #: Rate-control algorithm override for networked runs: a name from
    #: :data:`repro.net.topology.ALLOCATORS` (``"max_min_fair"`` /
    #: ``"low_lapsley"``), or ``None`` to keep whatever the topology itself
    #: selects.  Applied after scenario shaping, so one fleet config can A/B
    #: allocators on any registered topology.
    allocator: str | None = None
    #: Accepted for callers that still pass ``spec_batched=True``; every
    #: shard runs spec-batched, so any other value raises.  Not a field.
    #: Removed once the benchmark suite drops the keyword.
    spec_batched: InitVar[bool] = True

    def __post_init__(self, spec_batched: bool) -> None:
        if spec_batched is not True:
            raise ValueError("spec_batched=False is gone: every shard is spec-batched")
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        get_backend(self.backend)  # fail fast on unknown backend names
        get_topology(self.network)  # ... and unknown topology names
        if self.allocator is not None:
            if self.allocator not in ALLOCATORS:
                raise ValueError(
                    f"unknown allocator {self.allocator!r}; "
                    f"available: {list(ALLOCATORS)}"
                )
            if self.network is None:
                raise ValueError("allocator requires a networked run (network=...)")
        if self.num_workers is not None and self.num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        if self.sessions_per_user is not None and self.sessions_per_user <= 0:
            raise ValueError("sessions_per_user must be positive")
        if self.trace_length <= 0:
            raise ValueError("trace_length must be positive")


@dataclass(frozen=True)
class ShardTask:
    """One shard of one fleet day — the only description of a shard.

    The inline path hands it to :func:`_run_shard` as is; the pool ships the
    same task in its wire form (:meth:`~repro.fleet.pool.WorkerPool.by_ref`,
    every :attr:`SHARED` field swapped for a cache token) and the worker
    swaps the cached objects back before calling the same function.  A task
    names its members by ``(population, network, num_shards, shard_index)``;
    :func:`_run_shard` resolves them with :func:`shard_members`, so no
    per-shard user or link list is ever stored or shipped.
    """

    #: Run-wide objects every shard of a run shares (the heavy fields the
    #: pool registers once in its worker-side cache).
    SHARED: ClassVar[tuple[str, ...]] = (
        "population",
        "scenario",
        "library",
        "abr_factory",
        "session_config",
        "network",
    )

    run_id: str
    shard_index: int
    num_shards: int
    population: UserPopulation
    scenario: Scenario
    library: VideoLibrary
    abr_factory: Callable[[UserProfile, int], ABRAlgorithm]
    sessions_per_user: int | None
    trace_length: int
    day: int
    session_config: SessionConfig
    #: Restored LingXi state of this shard's own users only.
    controller_states: dict[str, dict] = field(default_factory=dict)
    backend: str = "scalar"
    #: Root fleet seed; every user's substreams are the children of
    #: ``SeedSequence(seed, spawn_key=md5(user_id) words)`` — child 0 for
    #: the user's draws, children 1..n for the sessions — the property that
    #: makes fleet runs invariant to shard and worker counts.
    seed: int = 0
    #: Full (scenario-shaped) topology for networked runs, or ``None`` for
    #: the classic uncoupled mode.  User→link attachment must happen on the
    #: full topology (restriction renormalises ``user_share``); the engines
    #: then run on the restriction to the shard's own links so each shard
    #: only allocates — and reports usage for — the links it owns.
    network: NetworkTopology | None = None
    #: Collect observability (spans + metrics) inside the shard worker and
    #: ship the snapshot back with the result.  Set by the orchestrator when
    #: the parent process has obs enabled; workers always run their own
    #: fresh collector (see :func:`repro.obs.collect`), so a fork-inherited
    #: parent collector is never mutated from a child.
    profile: bool = False


@dataclass
class ShardOutput:
    """What one shard hands back to the orchestrator."""

    shard_index: int
    sessions: list[SessionLog]
    controller_states: dict[str, dict]
    num_segments: int
    wall_time_s: float
    link_usage: list[LinkUsageSample] = field(default_factory=list)
    #: Sessions the batched backend bounced to the scalar reference engine
    #: (always zero on the scalar backend, which has no fallback concept).
    fallback_sessions: int = 0
    #: Serialised :meth:`repro.obs.Collector.snapshot` when the shard ran
    #: with ``profile=True``; the orchestrator grafts it into its own tree.
    obs: dict | None = None
    #: Pre-encoded telemetry JSONL for this shard (pooled runs only): the
    #: worker sends its encoded events as a raw frame right after this
    #: output's pickle, the parent sets this field from that frame, and
    #: :func:`write_fleet_telemetry` streams the blob to disk verbatim.
    telemetry_blob: bytes | None = None


@dataclass(frozen=True)
class FleetMetrics:
    """Deterministic fleet-level aggregates (no wall-clock terms)."""

    num_sessions: int
    num_segments: int
    exited_sessions: int
    segment_exits: int
    total_watch_time_s: float
    total_stall_time_s: float
    mean_bitrate_kbps: float

    @property
    def session_exit_rate(self) -> float:
        """Fraction of sessions abandoned before the video ended."""
        return self.exited_sessions / self.num_sessions if self.num_sessions else 0.0

    @property
    def segment_exit_rate(self) -> float:
        """Exit probability per watched segment."""
        return self.segment_exits / self.num_segments if self.num_segments else 0.0

    def as_dict(self) -> dict:
        """Plain-dict view (telemetry payload)."""
        return {
            "num_sessions": self.num_sessions,
            "num_segments": self.num_segments,
            "exited_sessions": self.exited_sessions,
            "segment_exits": self.segment_exits,
            "total_watch_time_s": self.total_watch_time_s,
            "total_stall_time_s": self.total_stall_time_s,
            "mean_bitrate_kbps": self.mean_bitrate_kbps,
            "session_exit_rate": self.session_exit_rate,
            "segment_exit_rate": self.segment_exit_rate,
        }


@dataclass
class FleetResult:
    """Merged output of one fleet run."""

    run_id: str
    config: FleetConfig
    scenario_name: str
    logs: LogCollection
    shard_outputs: list[ShardOutput]
    controller_states: dict[str, dict]
    wall_time_s: float
    telemetry_path: Path | None = None
    #: Run health report (:func:`repro.obs.build_run_report`) when the run
    #: executed with observability enabled; ``None`` otherwise.
    obs_report: dict | None = None

    @property
    def total_fallback_sessions(self) -> int:
        """Sessions the batched backends bounced to the scalar engine."""
        return sum(output.fallback_sessions for output in self.shard_outputs)

    @property
    def total_batch_sessions(self) -> int:
        """Sessions run through the backend (every session of the run)."""
        return len(self.logs)

    @property
    def metrics(self) -> FleetMetrics:
        """Deterministic fleet-level aggregates over all shards."""
        return fleet_metrics(self.logs)

    @property
    def sessions_per_second(self) -> float:
        """Throughput of the run (sessions / wall-clock second)."""
        if self.wall_time_s <= 0:
            return float("inf")
        return len(self.logs) / self.wall_time_s

    @property
    def link_usage(self) -> list[LinkUsageSample]:
        """All shards' per-slot link-utilization samples, in shard order."""
        return [
            sample for output in self.shard_outputs for sample in output.link_usage
        ]

    def link_utilization(self):
        """:class:`~repro.analytics.logs.LinkUtilizationLog` over the run.

        Raises when the run was not networked (no usage samples).
        """
        from repro.analytics.logs import LinkUtilizationLog

        return LinkUtilizationLog(self.link_usage)


def fleet_metrics(logs: Iterable[SessionLog]) -> FleetMetrics:
    """Compute :class:`FleetMetrics` from any session stream (live or replayed)."""
    num_sessions = 0
    num_segments = 0
    segment_exits = 0
    exited_sessions = 0
    watch_time = 0.0
    stall_time = 0.0
    bitrate_sum = 0.0
    for session in logs:
        trace = session.trace
        segments = trace.segments
        num_sessions += 1
        num_segments += len(trace)
        segment_exits += int(np.count_nonzero(segments["exited"]))
        exited_sessions += int(trace.exited_early)
        watch_time += trace.watch_time
        stall_time += trace.total_stall_time
        bitrate_sum += float(segments["bitrate_kbps"].sum())
    return FleetMetrics(
        num_sessions=num_sessions,
        num_segments=num_segments,
        exited_sessions=exited_sessions,
        segment_exits=segment_exits,
        total_watch_time_s=watch_time,
        total_stall_time_s=stall_time,
        mean_bitrate_kbps=bitrate_sum / num_segments if num_segments else 0.0,
    )


def shard_members(
    population: UserPopulation, network: NetworkTopology | None, num_shards: int
) -> list[tuple[tuple[UserProfile, ...], tuple[str, ...]]]:
    """Each shard's ``(profiles, link ids)``: the one split of a fleet.

    Users are dealt round-robin by population index, or — for networked
    runs — by uplink component, so a link's whole contention set lives in
    one shard and fair-share coupling never crosses a shard boundary.
    Shards may be empty.  Deterministic in its arguments, which is what lets
    the orchestrator (to drop empty shards) and every shard run (for its
    own members, inline or in a pool worker) call it independently.
    """
    # contract: FLEET-SHARD-009
    if network is None:
        return [(tuple(profiles), ()) for profiles in population.shards(num_shards)]
    return [
        (tuple(profiles), tuple(link_ids))
        for profiles, link_ids in zip(
            network.shard_profiles(population.profiles, num_shards),
            network.shard_links(num_shards),
        )
    ]


def _run_shard(task: ShardTask) -> ShardOutput:  # contract: FLEET-SHARD-009
    """Simulate one shard: every user's sessions for one simulated day.

    The one shard runner: called inline when the pool is disabled, and by
    every pool worker on the same :class:`ShardTask` once its cache tokens
    are resolved.  With ``task.profile`` the shard runs under a private obs
    collector (identical inline and in a forked worker) and the snapshot
    travels back in :attr:`ShardOutput.obs`.
    """
    # Heartbeat bracket: identical for inline and pooled execution (workers
    # run this very function), wall-clock only — a no-op without a live run.
    obs_live.begin_shard(task.shard_index, task.day)
    try:
        if not task.profile:
            output = _run_shard_batched(task)
        else:
            with obs.collect() as collector:
                with obs.span("shard.run"):
                    output = _run_shard_batched(task)
                output.obs = collector.snapshot()
    except BaseException as exc:
        obs_live.fail_shard(f"{type(exc).__name__}: {exc}"[:150])
        raise
    obs_live.finish_shard(len(output.sessions), output.num_segments)
    return output


def _trim_trailing_idle(samples: list[LinkUsageSample]) -> list[LinkUsageSample]:
    """Drop each link's idle samples after its last busy slot.

    The engines emit usage for every link while *any* of the shard's
    sessions is still running, so a link's trailing-idle tail (and an
    always-idle link's entire stream) would depend on which other links
    share its shard.  A link's *busy span* is a function of its own users
    only, and leading/mid-run idle slots are always covered (the link's own
    future sessions keep the loop alive) — so after this trim the fleet's
    link-usage stream is invariant to the shard count.
    """
    last_busy: dict[str, int] = {}
    for sample in samples:
        if sample.active_sessions > 0:
            last_busy[sample.link_id] = max(
                sample.step, last_busy.get(sample.link_id, -1)
            )
    return [
        sample
        for sample in samples
        if sample.step <= last_busy.get(sample.link_id, -1)
    ]


def _run_shard_batched(task: ShardTask) -> ShardOutput:
    """Build the :class:`~repro.sim.backend.SessionSpec` list of the shard's
    own users (:func:`shard_members`) and run it on the configured backend
    as one batch.

    All of a user's randomness — ABR seed, scenario draws (session counts,
    traces, videos, start slots) and the per-session `Philox` exit
    substreams — flows from the children of a `SeedSequence` keyed by
    ``(fleet seed, md5(user_id))`` via
    :func:`~repro.net.topology.stable_user_key`: child 0 seeds the user's
    generator, children 1..n the sessions.  Both sets come from
    :func:`~repro.sim.backend.derive_substreams`, one call for all users
    before the spec loop and one for all sessions after it, so no
    `SeedSequence` is hashed per user or per session.  Keying
    by user *identity* rather than shard position makes every user's traffic
    independent of how the population is sharded, so fleet aggregates are
    invariant to shard and worker counts (networked runs included: links
    never straddle shards, so each link's contention set is
    sharding-independent too).  Both backends consume the same specs, so a
    ``backend="scalar"`` run is bit-identical to a ``backend="vector"`` one.
    """
    start = time.perf_counter()  # contract: DET-CLOCK-002 exempt(wall-time telemetry only; excluded from bit-exact comparison)
    backend = get_backend(task.backend)
    metas: list[tuple[str, int, int, float]] = []
    controllers: dict[str, object] = {}

    obs_live.set_phase("build_specs")
    with obs.span("shard.build_specs"):
        profiles, link_ids = shard_members(
            task.population, task.network, task.num_shards
        )[task.shard_index]
        # Child 0 of each user's `SeedSequence(seed, spawn_key=user key)`
        # seeds the user's draws, children 1..n the sessions' exit streams;
        # both derive in one batch each.
        user_keys = np.array(
            [stable_user_key(profile.user_id) for profile in profiles], dtype=np.uint32
        ).reshape(-1, 2)
        user_streams = derive_substreams(
            task.seed, np.column_stack([user_keys, np.zeros(len(profiles), np.uint32)])
        )
        # Spec fields but the seed, in spec order.
        unseeded: list[tuple] = []
        counts: list[int] = []
        for profile, stream in zip(profiles, user_streams):
            obs_live.pulse()
            rng = np.random.Generator(np.random.PCG64(stream))
            abr_seed = int(rng.integers(2**31 - 1))
            abr = task.abr_factory(profile, abr_seed)
            controller = getattr(abr, "controller", None)
            if controller is not None:
                if profile.user_id in task.controller_states:
                    restore_controller_state(
                        controller, task.controller_states[profile.user_id]
                    )
                controllers[profile.user_id] = controller
            exit_model = profile.exit_model()
            num_sessions = task.scenario.sessions_for(
                task.sessions_per_user or profile.sessions_per_day, rng
            )
            counts.append(num_sessions)
            trace = task.scenario.trace_for(profile, rng, task.trace_length)
            link = (
                task.network.link_for(profile.user_id).link_id
                if task.network is not None
                else None
            )
            for session_index in range(num_sessions):
                video = task.scenario.video_for(profile, task.library, rng)
                start_step = (
                    task.scenario.start_for(profile, session_index, rng)
                    if task.network is not None
                    else 0
                )
                unseeded.append(
                    (abr, video, trace, exit_model, profile.user_id, link, start_step)
                )
                metas.append(
                    (profile.user_id, task.day, session_index, profile.mean_bandwidth_kbps)
                )
        # A user's session i is child i + 1 of the user's key.
        children = [session_index + 1 for _, _, session_index, _ in metas]
        session_seeds = derive_substreams(
            task.seed, np.column_stack([np.repeat(user_keys, counts, axis=0), children])
        )
        specs = [
            SessionSpec(
                abr=abr,
                video=video,
                trace=trace,
                exit_model=exit_model,
                seed=seed,
                user_id=user_id,
                link=link,
                start_step=start_step,
            )
            for (abr, video, trace, exit_model, user_id, link, start_step), seed in zip(
                unseeded, session_seeds
            )
        ]

    run_network = (
        task.network.restrict(link_ids) if task.network is not None else None
    )
    link_usage: list[LinkUsageSample] = []
    obs_live.set_shard_total(len(specs))
    obs_live.set_phase("run_batch")
    with obs.span("shard.run_batch"):
        playbacks = backend.run_batch(
            specs, task.session_config, network=run_network, link_usage=link_usage
        )
    link_usage = _trim_trailing_idle(link_usage)
    sessions = SessionLog.zip_with_playbacks(metas, playbacks)
    fallback_sessions = int(getattr(backend, "last_fallback_sessions", 0))
    obs.counter_add("backend.batch_sessions", len(specs))
    obs.counter_add("backend.fallback_sessions", fallback_sessions)
    return ShardOutput(
        shard_index=task.shard_index,
        sessions=sessions,
        controller_states={
            user_id: controller_state_payload(controller)
            for user_id, controller in controllers.items()
        },
        num_segments=sum(len(playback) for playback in playbacks),
        wall_time_s=time.perf_counter() - start,  # contract: DET-CLOCK-002 exempt(wall-time telemetry only; excluded from bit-exact comparison)
        link_usage=link_usage,
        fallback_sessions=fallback_sessions,
    )


class FleetOrchestrator:
    """Shard a population, fan the shards out on a pool, merge the results.

    Parallel runs (``num_workers > 1``) execute on the persistent
    :class:`~repro.fleet.pool.WorkerPool` — by default the
    process-global pool of :func:`~repro.fleet.pool.shared_pool`, reused
    across runs, so every day of a longitudinal campaign finds the same
    workers; pass ``pool=`` to pin a specific pool.  ``num_workers`` of 0/1 keeps
    the inline reference path, which the pooled path must match bit-for-bit.
    """

    def __init__(
        self, config: FleetConfig | None = None, *, pool: WorkerPool | None = None
    ) -> None:
        self.config = config or FleetConfig()
        self._pool = pool

    def _resolve_workers(self) -> int:
        if self.config.num_workers is not None:
            return self.config.num_workers
        return min(self.config.num_shards, os.cpu_count() or 1)

    def run(
        self,
        population: UserPopulation,
        library: VideoLibrary,
        scenario: str | Scenario | None = None,
        abr_factory: Callable[[UserProfile, int], ABRAlgorithm] | None = None,
        telemetry_path: str | Path | None = None,
        controller_states: dict[str, dict] | None = None,
        run_id: str | None = None,
    ) -> FleetResult:
        """Simulate one day of fleet traffic.

        ``controller_states`` (user id → payload, e.g. from a previous run's
        :attr:`FleetResult.controller_states` or a saved checkpoint) restores
        per-user LingXi long-term state before the day starts.
        """
        with obs.span("fleet.run_day"):
            return self._run_day(
                population,
                library,
                scenario=scenario,
                abr_factory=abr_factory,
                telemetry_path=telemetry_path,
                controller_states=controller_states,
                run_id=run_id,
            )

    def _run_day(
        self,
        population: UserPopulation,
        library: VideoLibrary,
        scenario: str | Scenario | None,
        abr_factory: Callable[[UserProfile, int], ABRAlgorithm] | None,
        telemetry_path: str | Path | None,
        controller_states: dict[str, dict] | None,
        run_id: str | None,
    ) -> FleetResult:
        config = self.config
        profiling = obs.enabled()
        run_started = time.perf_counter()  # contract: DET-CLOCK-002 exempt(wall-time telemetry only; excluded from bit-exact comparison)
        scenario = get_scenario(scenario)
        abr_factory = abr_factory or HybFleetFactory()
        run_id = run_id or f"fleet-{config.seed:08d}-s{config.num_shards}-d{config.day}"
        states = controller_states or {}
        live = obs_live.active_run()
        if live is not None:
            live.begin_fleet_run(
                run_id=run_id, num_shards=config.num_shards, day=config.day
            )

        with obs.span("fleet.prepare"):
            network = get_topology(config.network)
            if network is not None:
                network = scenario.network_for(network)
                if config.allocator is not None:
                    network = replace(network, allocator=config.allocator)
            tasks = [
                ShardTask(
                    run_id=run_id,
                    shard_index=index,
                    num_shards=config.num_shards,
                    population=population,
                    scenario=scenario,
                    library=library,
                    abr_factory=abr_factory,
                    sessions_per_user=config.sessions_per_user,
                    trace_length=config.trace_length,
                    day=config.day,
                    session_config=config.session_config,
                    controller_states={
                        p.user_id: states[p.user_id]
                        for p in profiles
                        if p.user_id in states
                    },
                    backend=config.backend,
                    seed=config.seed,
                    network=network,
                    profile=profiling,
                )
                for index, (profiles, _) in enumerate(
                    shard_members(population, network, config.num_shards)
                )
                if profiles
            ]

        workers = self._resolve_workers()
        start = time.perf_counter()  # contract: DET-CLOCK-002 exempt(wall-time telemetry only; excluded from bit-exact comparison)
        with obs.span("fleet.run_shards"):
            # Both execution paths emit the same span skeleton
            # (``shard.spawn``, then ``shard.map`` wrapping
            # ``pool.dispatch``/``pool.drain``) so a profiled run's tree has
            # the same structure at any shard/worker count; inline runs
            # record ~zero spawn time, and a pre-warmed shared pool records
            # ~zero there too — that is the point of keeping it alive.
            pool = None
            with obs.span("shard.spawn"):
                if workers > 1 and len(tasks) > 1:
                    pool = self._pool if self._pool is not None else shared_pool(workers)
            with obs.span("shard.map"):
                if pool is None:
                    with obs.span("pool.dispatch"):
                        outputs = [_run_shard(task) for task in tasks]
                    with obs.span("pool.drain"):
                        pass
                else:
                    outputs = pool.run(
                        [pool.by_ref(task) for task in tasks],
                        telemetry=telemetry_path is not None,
                        live=live,
                    )
            outputs.sort(key=lambda output: output.shard_index)
            for output in outputs:
                obs.merge_shard_snapshot(output.obs)
        wall_time = time.perf_counter() - start  # contract: DET-CLOCK-002 exempt(wall-time telemetry only; excluded from bit-exact comparison)

        with obs.span("fleet.merge"):
            sessions: list[SessionLog] = []
            merged_states: dict[str, dict] = {}
            for output in outputs:
                sessions.extend(output.sessions)
                merged_states.update(output.controller_states)
            if not sessions:
                raise ValueError("fleet run produced no sessions")
            logs = LogCollection(sessions)
        num_segments = sum(output.num_segments for output in outputs)
        obs.counter_add("fleet.sessions", len(sessions))
        obs.counter_add("fleet.segments", num_segments)
        obs.counter_add("fleet.shards", len(outputs))
        obs.gauge_max("fleet.workers", workers)

        live_summary = None
        if live is not None:
            live.finish_fleet_run(sessions=len(sessions))
            live.watchdog_tick()  # final pass so just-stalled shards are counted
            live_summary = live.summary()
            stragglers = live_summary["stragglers"]
            if stragglers:
                obs.counter_add("pool.straggler.shards", len(stragglers))
                obs.gauge_max(
                    "pool.straggler.stall_intervals",
                    max(item["stalled_intervals"] for item in stragglers),
                )

        result = FleetResult(
            run_id=run_id,
            config=config,
            scenario_name=scenario.name,
            logs=logs,
            shard_outputs=outputs,
            controller_states=merged_states,
            wall_time_s=wall_time,
            telemetry_path=Path(telemetry_path) if telemetry_path is not None else None,
        )

        def build_report() -> dict | None:
            if not (profiling and obs.enabled()):
                return None
            from repro.obs import build_run_report

            return build_run_report(
                run_id=run_id,
                sessions=len(sessions),
                segments=num_segments,
                wall_time_s=time.perf_counter() - run_started,  # contract: DET-CLOCK-002 exempt(wall-time telemetry only; excluded from bit-exact comparison)
                fallback_sessions=result.total_fallback_sessions,
                batch_sessions=result.total_batch_sessions,
                per_shard=[
                    {
                        "shard": output.shard_index,
                        "sessions": len(output.sessions),
                        "segments": output.num_segments,
                        "wall_time_s": output.wall_time_s,
                        "fallback_sessions": output.fallback_sessions,
                    }
                    for output in outputs
                ],
                live=live_summary,
            )

        if telemetry_path is None:
            result.obs_report = build_report()
        else:
            with obs.span("fleet.telemetry"):
                write_fleet_telemetry(result, telemetry_path, report=build_report)
        return result


def write_fleet_telemetry(
    result: FleetResult,
    path: str | Path,
    report: Callable[[], dict | None] | None = None,
) -> Path:
    """Emit the full JSONL telemetry stream of a fleet run to ``path``.

    ``report``, when given, builds the run report once every shard's events
    are written, so the report of an inline run holds its
    ``fleet.telemetry.encode`` spans as a pooled run's holds its workers';
    the document lands on ``result.obs_report`` and, when not ``None``, in
    the ``run_report`` event.
    """
    path = Path(path)
    with TelemetryWriter(path) as writer:
        writer.emit(
            TelemetryEvent(
                run_id=result.run_id,
                shard=-1,
                user_id="",
                event="run_start",
                payload={
                    "scenario": result.scenario_name,
                    "num_shards": result.config.num_shards,
                    "seed": result.config.seed,
                    "day": result.config.day,
                    "num_users_with_state": len(result.controller_states),
                },
            )
        )
        for output in result.shard_outputs:
            if output.telemetry_blob is not None:
                # Pooled shard: the worker already encoded these exact events
                # and sent them as one frame — stream the bytes verbatim.
                writer.write_raw(output.telemetry_blob)
            else:
                with obs.span("fleet.telemetry.encode"):
                    for chunk in iter_shard_chunks(result.run_id, output):
                        writer.write_raw(chunk)
        if report is not None:
            result.obs_report = report()
        if result.obs_report is not None:
            writer.emit(
                TelemetryEvent(
                    run_id=result.run_id,
                    shard=-1,
                    user_id="",
                    event="run_report",
                    payload=result.obs_report,
                )
            )
        writer.emit(
            TelemetryEvent(
                run_id=result.run_id,
                shard=-1,
                user_id="",
                event="run_end",
                payload={
                    **result.metrics.as_dict(),
                    # The backend fallback counters: "last" is this run's own
                    # count (the most recent batch of every shard), "total"
                    # the same sum — they diverge only on the in-process
                    # backend object, which accumulates across runs.
                    "last_fallback_sessions": result.total_fallback_sessions,
                    "total_fallback_sessions": result.total_fallback_sessions,
                    "total_batch_sessions": result.total_batch_sessions,
                },
            )
        )
    return path


def run_fleet_day(
    population: UserPopulation,
    library: VideoLibrary,
    config: FleetConfig | None = None,
    scenario: str | Scenario | None = None,
    abr_factory: Callable[[UserProfile, int], ABRAlgorithm] | None = None,
    telemetry_path: str | Path | None = None,
    controller_states: dict[str, dict] | None = None,
) -> FleetResult:
    """Convenience one-call wrapper around :class:`FleetOrchestrator`."""
    return FleetOrchestrator(config).run(
        population,
        library,
        scenario=scenario,
        abr_factory=abr_factory,
        telemetry_path=telemetry_path,
        controller_states=controller_states,
    )
