"""Synthetic production-log generation.

The paper's §2 analyses and the exit-predictor training set come from
production logs that are proprietary; this module produces a synthetic corpus
with the same schema and the same qualitative structure by simulating every
user of a :class:`~repro.users.population.UserPopulation` for a number of
days: each user plays several sessions per day over traces drawn from their
own bandwidth regime, with a production ABR (HYB by default) choosing
bitrates and their personal :class:`~repro.users.engagement.QoSAwareExitModel`
deciding when they abandon a video.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.abr.base import ABRAlgorithm
from repro.abr.hyb import HYB
from repro.analytics.logs import LogCollection, SessionLog
from repro.net.topology import NetworkTopology, get_topology
from repro.sim.backend import SessionSpec, derive_substreams, get_backend
from repro.sim.session import SessionConfig
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
    #: Simulation backend that runs each day's spec batch: ``"scalar"``
    #: (the reference engine) or any other registered backend.  Sessions
    #: draw from per-session RNG substreams, so every backend produces the
    #: same corpus.
    backend: str = "scalar"
    #: Shared-bottleneck topology (name or instance): each day's corpus runs
    #: as one coupled batch whose sessions fair-share edge-link capacity, so
    #: the generated logs carry *emergent* congestion.  ``None`` keeps the
    #: classic uncoupled traces.
    network: str | NetworkTopology | None = None

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError("days must be positive")
        get_topology(self.network)  # fail fast on unknown topology names
        if self.sessions_per_user_per_day is not None and self.sessions_per_user_per_day <= 0:
            raise ValueError("sessions_per_user_per_day must be positive")


def generate_production_logs(
    population: UserPopulation,
    library: VideoLibrary,
    config: LogGenerationConfig | None = None,
    abr_factory: Callable[[UserProfile], ABRAlgorithm] | None = None,
) -> LogCollection:
    """Simulate the population and return the resulting log corpus.

    ``abr_factory`` builds the ABR used for a given user (defaults to a HYB
    instance with production-default parameters, the paper's baseline); it is
    called once per user per day so experiments can inject per-user or
    per-group algorithms (e.g. LingXi-wrapped ones).

    Traces, videos and population drift draw from one generator seeded by
    ``config.seed``; every session's exit decisions draw from its own RNG
    substream, so the backend may execute a batch in any order (the vector
    backend advances every vectorizable session in lockstep) and both
    backends produce the same corpus.  Each simulated day runs as its own
    batch: one day of a large population is plenty of lockstep width for the
    vector engine, while bounding peak memory (the engine preallocates
    per-session record arrays per batch).
    """
    config = config or LogGenerationConfig()
    abr_factory = abr_factory or (lambda _profile: HYB())
    rng = np.random.default_rng(config.seed)
    backend = get_backend(config.backend)
    network = get_topology(config.network)
    spawned = 0
    sessions: list[SessionLog] = []
    day_population = population
    for day in range(config.days):
        specs: list[SessionSpec] = []
        metas: list[tuple[str, int, int, float]] = []
        counts = [
            config.sessions_per_user_per_day
            if config.sessions_per_user_per_day is not None
            else profile.sessions_per_day
            for profile in day_population
        ]
        # The run's session j is child j of `SeedSequence(config.seed)`.
        count = sum(counts)
        seeds = iter(
            derive_substreams(config.seed, np.arange(spawned, spawned + count)[:, None])
        )
        spawned += count
        for profile, num_sessions in zip(day_population, counts):
            abr = abr_factory(profile)
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
        playbacks = backend.run_batch(specs, config.session_config, network=network)
        sessions.extend(SessionLog.zip_with_playbacks(metas, playbacks))
        day_population = day_population.next_day(rng)
    return LogCollection(sessions)
