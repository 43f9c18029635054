"""Multi-day campaign simulation with persistent per-user ABR instances.

The A/B experiments of §5.3–§5.5 need users to keep their algorithm state
across sessions and days (LingXi's long-term state is what personalisation is
built on), which the one-shot log generator does not provide.  The campaign
runner keeps one ABR instance per user for the whole campaign, records the
deployed parameter value at the end of every user-day, and returns the logs
in the same :class:`~repro.analytics.logs.LogCollection` format as everything
else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.abr.base import ABRAlgorithm
from repro.analytics.logs import LogCollection, SessionLog
from repro.sim.backend import SessionSpec, derive_substreams, get_backend
from repro.sim.session import SessionConfig
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation, UserProfile


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of a simulated multi-day campaign."""

    days: int = 5
    sessions_per_user_per_day: int = 4
    trace_length: int = 150
    seed: int = 0
    start_day: int = 0

    def __post_init__(self) -> None:
        if self.days <= 0 or self.sessions_per_user_per_day <= 0:
            raise ValueError("days and sessions_per_user_per_day must be positive")


@dataclass
class CampaignResult:
    """Logs plus per-user-day deployed parameter values."""

    logs: LogCollection
    #: Parameter value (by default HYB's beta) at the end of each (user, day).
    daily_parameters: dict[tuple[str, int], float]
    #: The persistent per-user ABR instances (inspect e.g. LingXi controllers).
    abrs: dict[str, ABRAlgorithm] = field(default_factory=dict)


def run_campaign(
    population: UserPopulation,
    library: VideoLibrary,
    abr_factory: Callable[[UserProfile], ABRAlgorithm],
    config: CampaignConfig | None = None,
    parameter_getter: Callable[[ABRAlgorithm], float] | None = None,
    abrs: dict[str, ABRAlgorithm] | None = None,
    backend: str = "scalar",
) -> CampaignResult:
    """Simulate ``config.days`` days of playback for every user.

    ``abr_factory`` is called once per user (unless a pre-existing instance is
    supplied via ``abrs``, which allows chaining an AA phase into an AB phase
    with the same user state).  ``parameter_getter`` extracts the tracked
    parameter from an ABR (defaults to ``beta``).

    ``backend`` selects the simulation backend that runs each day's sessions
    as one :class:`~repro.sim.backend.SessionSpec` batch with per-session RNG
    substreams: ``"scalar"`` (the reference engine) or any other registered
    backend, which produces the same logs — vectorizable users (e.g. plain
    HYB during AA phases) then advance in lockstep, while stateful LingXi
    users fall back to sequential execution inside the same batch.
    """
    config = config or CampaignConfig()
    parameter_getter = parameter_getter or (lambda abr: abr.parameters.beta)
    rng = np.random.default_rng(config.seed)
    sim_backend = get_backend(backend)
    abrs = abrs if abrs is not None else {}

    spawned = 0
    sessions: list[SessionLog] = []
    daily_parameters: dict[tuple[str, int], float] = {}
    day_population = population
    for day_offset in range(config.days):
        day = config.start_day + day_offset
        specs: list[SessionSpec] = []
        metas: list[tuple[str, int, int, float]] = []
        # The campaign's session j is child j of `SeedSequence(config.seed)`.
        count = len(day_population) * config.sessions_per_user_per_day
        seeds = iter(
            derive_substreams(config.seed, np.arange(spawned, spawned + count)[:, None])
        )
        spawned += count
        for profile in day_population:
            abr = abrs.get(profile.user_id)
            if abr is None:
                abr = abr_factory(profile)
                abrs[profile.user_id] = abr
            exit_model = profile.exit_model()
            trace = profile.bandwidth_trace(config.trace_length, rng)
            for session_index in range(config.sessions_per_user_per_day):
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
        playbacks = sim_backend.run_batch(specs, SessionConfig())
        sessions.extend(SessionLog.zip_with_playbacks(metas, playbacks))
        for profile in day_population:
            daily_parameters[(profile.user_id, day)] = float(
                parameter_getter(abrs[profile.user_id])
            )
        day_population = day_population.next_day(rng)
    return CampaignResult(
        logs=LogCollection(sessions), daily_parameters=daily_parameters, abrs=abrs
    )
