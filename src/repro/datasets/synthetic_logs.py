"""Synthetic production-log generation and multi-day campaigns.

The paper's §2 analyses and the exit-predictor training set come from
production logs that are proprietary; this module produces a synthetic corpus
with the same schema and the same qualitative structure by simulating every
user of a :class:`~repro.users.population.UserPopulation` for a number of
days: each user plays several sessions per day over traces drawn from their
own bandwidth regime, with a production ABR (HYB by default) choosing
bitrates and their personal :class:`~repro.users.engagement.QoSAwareExitModel`
deciding when they abandon a video.

The same day loop runs the A/B campaigns of §5.3–§5.5 (Figure 12): every
user keeps one ABR instance for the whole call, so LingXi's long-term state
carries across sessions and days, and the deployed ``beta`` is recorded at
the end of every user-day.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.abr.base import ABRAlgorithm
from repro.abr.hyb import HYB
from repro.analytics.logs import LogCollection, SessionLog
from repro.net.topology import NetworkTopology, get_topology
from repro.sim.backend import SessionSpec, derive_substreams
from repro.sim.session import SessionConfig
from repro.sim.vector import VectorBackend
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation, UserProfile


@dataclass
class LogGenerationConfig:
    """Knobs of the synthetic log generator."""

    days: int = 1
    sessions_per_user_per_day: int | None = None
    trace_length: int = 200
    seed: int = 0
    session_config: SessionConfig = field(default_factory=SessionConfig)
    #: Day number of the first simulated day (a campaign's AB phase starts
    #: where its AA phase ended); logs and daily parameters carry it.
    start_day: int = 0
    #: Shared-bottleneck topology (name or instance): each day's corpus runs
    #: as one coupled batch whose sessions fair-share edge-link capacity, so
    #: the generated logs carry *emergent* congestion.  ``None`` keeps the
    #: classic uncoupled traces.
    network: str | NetworkTopology | None = None

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError("days must be positive")
        if self.start_day < 0:
            raise ValueError("start_day must be non-negative")
        get_topology(self.network)  # fail fast on unknown topology names
        if self.sessions_per_user_per_day is not None and self.sessions_per_user_per_day <= 0:
            raise ValueError("sessions_per_user_per_day must be positive")


@dataclass
class GeneratedLogs:
    """Logs plus per-user-day deployed parameter values and the ABRs."""

    logs: LogCollection
    #: HYB's ``beta`` as deployed at the end of each (user, day).
    daily_parameters: dict[tuple[str, int], float]
    #: The persistent per-user ABR instances (inspect e.g. LingXi controllers).
    abrs: dict[str, ABRAlgorithm]


def generate_production_logs(
    population: UserPopulation,
    library: VideoLibrary,
    config: LogGenerationConfig | None = None,
    abr_factory: Callable[[UserProfile], ABRAlgorithm] | None = None,
) -> GeneratedLogs:
    """Simulate the population day by day and return the resulting logs.

    ``abr_factory`` builds the ABR used for a given user (defaults to a HYB
    instance with production-default parameters, the paper's baseline); it is
    called once per user, and that instance plays all of the user's sessions
    on every day of the call, so per-user or per-group algorithms (e.g.
    LingXi-wrapped ones) keep their state across sessions and days.

    Traces, videos and population drift draw from one generator seeded by
    ``config.seed``; every session's exit decisions draw from its own RNG
    substream (session ``j`` of the call is child ``j`` of
    ``SeedSequence(config.seed)``).  Each simulated day runs as one
    :class:`~repro.sim.vector.VectorBackend` batch: vectorizable sessions
    advance in lockstep, while kernel-less ones (e.g. Pensieve) and
    networked batches that cannot run lockstep play on the scalar reference
    engine, with the same logs either way.  One day of a large population is
    plenty of lockstep width, while bounding peak memory (the engine
    preallocates per-session record arrays per batch).
    """
    config = config or LogGenerationConfig()
    abr_factory = abr_factory or (lambda _profile: HYB())
    rng = np.random.default_rng(config.seed)
    engine = VectorBackend()
    network = get_topology(config.network)
    spawned = 0
    sessions: list[SessionLog] = []
    daily_parameters: dict[tuple[str, int], float] = {}
    abrs: dict[str, ABRAlgorithm] = {}
    day_population = population
    for day in range(config.start_day, config.start_day + config.days):
        specs: list[SessionSpec] = []
        metas: list[tuple[str, int, int, float]] = []
        counts = [
            config.sessions_per_user_per_day
            if config.sessions_per_user_per_day is not None
            else profile.sessions_per_day
            for profile in day_population
        ]
        count = sum(counts)
        seeds = iter(
            derive_substreams(config.seed, np.arange(spawned, spawned + count)[:, None])
        )
        spawned += count
        for profile, num_sessions in zip(day_population, counts):
            abr = abrs.get(profile.user_id)
            if abr is None:
                abr = abrs[profile.user_id] = abr_factory(profile)
            exit_model = profile.exit_model()
            trace = profile.bandwidth_trace(config.trace_length, rng)
            for session_index in range(num_sessions):
                video = library.sample(rng)
                specs.append(
                    SessionSpec(
                        abr=abr,
                        video=video,
                        trace=trace,
                        exit_model=exit_model,
                        seed=next(seeds),
                        user_id=profile.user_id,
                    )
                )
                metas.append(
                    (profile.user_id, day, session_index, profile.mean_bandwidth_kbps)
                )
        playbacks = engine.run_batch(specs, config.session_config, network=network)
        sessions.extend(SessionLog.zip_with_playbacks(metas, playbacks))
        for profile in day_population:
            daily_parameters[(profile.user_id, day)] = float(
                abrs[profile.user_id].parameters.beta
            )
        day_population = day_population.next_day(rng)
    return GeneratedLogs(LogCollection(sessions), daily_parameters, abrs)
