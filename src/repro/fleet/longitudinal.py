"""Longitudinal multi-day fleets: churn, drift and cross-day A/B campaigns.

Every fleet scenario so far simulated one isolated day, so the paper's core
claim — QoE decisions today change whether a user comes back *tomorrow* —
never compounded.  :class:`LongitudinalCampaign` closes the loop:

* each simulated day is one :class:`~repro.fleet.orchestrator.FleetOrchestrator`
  run over the users who actually showed up;
* each user's day is reduced to an
  :class:`~repro.users.retention.EngagementSummary`, and a
  :class:`~repro.users.retention.RetentionModel` maps it to the probability
  that the user arrives again the next day (lapsed users may come back);
* per-user controller state (LingXi long-term state) carries across days
  through the existing checkpoint layer;
* the population drifts: per-user bandwidth/tolerance drift, new-user
  influx, per-day workload schedules (e.g. a shifting device mix) and
  cross-traffic evolution on the network topology.

Determinism contract
--------------------
Every stochastic decision outside the session engines — the retention coin,
profile drift, influx draws, per-day fleet seeds — flows from a `Philox`
stream keyed by ``(campaign seed, decision kind, day, md5(user id))``.
Combined with the orchestrator's spec-batched path (``spec_batched=True`` is
forced, so scalar and vector backends resolve identical per-user RNG
substreams), a campaign is **bit-identical** across shard counts, worker
counts and backends: same traces, same retention decisions, same telemetry.

The cross-day A/B harness (:func:`run_ab_campaign`) splits a population into
two arms by stable user-id hash, runs both arms through the same days with
shared seeds, and feeds the per-day cohort metrics into
:func:`repro.analytics.abtest.compare_arm_series` — the compounding analogue
of the Figure 12 difference-in-differences protocol.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.abr.base import ABRAlgorithm
from repro.analytics.abtest import ArmComparison, compare_arm_series
from repro.analytics.logs import LogCollection
from repro.analytics.metrics import GroupDailyMetrics, aggregate_daily_metrics
from repro.fleet.checkpoint import (
    load_fleet_checkpoint,
    save_checkpoint_states,
    write_text_atomic,
)
from repro.fleet.orchestrator import (
    FleetConfig,
    FleetOrchestrator,
    FleetResult,
    write_fleet_telemetry,
)
from repro.fleet.pool import shared_pool
from repro.obs import live as obs_live
from repro.fleet.scenarios import DeviceMixScenario, Scenario, get_scenario
from repro.fleet.telemetry import TelemetryEvent, TelemetryWriter, read_events
from repro.net.topology import (
    NetworkTopology,
    get_topology,
    stable_fraction,
    stable_user_key,
)
from repro.sim.bandwidth import MixedTraceGenerator
from repro.sim.session import SessionConfig
from repro.sim.video import VideoLibrary
from repro.users.perception import (
    SensitivityArchetype,
    StallSensitivityProfile,
    sample_profile,
)
from repro.users.population import UserPopulation, UserProfile
from repro.users.retention import (
    EngagementSummary,
    RetentionModel,
    RuleBasedRetentionModel,
    summarize_sessions,
)

__all__ = [
    "DriftConfig",
    "LongitudinalConfig",
    "RetentionDecision",
    "DayResult",
    "CampaignResumeState",
    "load_resume_state",
    "LongitudinalResult",
    "LongitudinalCampaign",
    "run_longitudinal_campaign",
    "LongitudinalABResult",
    "assign_arms",
    "run_ab_campaign",
    "shifting_device_mix",
    "replay_retention_decisions",
    "replay_day_summaries",
]

#: Spawn-key namespaces for campaign-level decision streams.  Values are
#: arbitrary but frozen: changing them changes every longitudinal trace.
_DECISION_KEYS = {"retention": 101, "drift": 102, "influx": 103, "day-seed": 104}


def _decision_rng(
    seed: int, kind: str, day: int, user_id: str = ""
) -> np.random.Generator:
    """Philox stream for one campaign decision, keyed by identity.

    Keying by ``(seed, kind, day, md5(user_id))`` — never by roster position —
    makes every decision invariant to sharding, backend and roster
    composition (influx appends cannot shift anyone else's draws).
    """
    key: tuple[int, ...] = (_DECISION_KEYS[kind], day)
    if user_id:
        key = key + stable_user_key(user_id, salt=kind)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=key))
    )


def _day_seed(seed: int, day: int) -> int:
    """Per-day fleet seed: users replay fresh randomness every day."""
    return int(
        np.random.SeedSequence(
            seed, spawn_key=(_DECISION_KEYS["day-seed"], day)
        ).generate_state(1)[0]
    )


@dataclass(frozen=True)
class DriftConfig:
    """How the population and its environment evolve across days."""

    #: Apply :meth:`~repro.users.population.UserProfile.next_day` per user
    #: (bandwidth wobble + stall-tolerance drift) between days.
    profile_drift: bool = True
    #: New users appended to the roster after each day (they arrive
    #: unconditionally on their first day, like the day-0 cohort).
    influx_per_day: int = 0
    #: User-id prefix for influx users (A/B arms override it so the same
    #: campaign seed cannot mint the same user into both arms).
    influx_id_prefix: str = "n"
    influx_bandwidth_median_kbps: float = 8000.0
    influx_sigma_log: float = 0.9
    influx_burst_fraction: float = 0.3
    #: Per-day multiplicative growth of every link's cross-traffic amplitude
    #: (day ``d`` scales by ``(1 + growth) ** d``); ``0`` keeps the topology
    #: static.  Only meaningful for networked campaigns.
    cross_traffic_growth: float = 0.0

    def __post_init__(self) -> None:
        if self.influx_per_day < 0:
            raise ValueError("influx_per_day must be non-negative")
        if self.cross_traffic_growth <= -1.0:
            raise ValueError("cross_traffic_growth must be > -1")
        if not self.influx_id_prefix:
            raise ValueError("influx_id_prefix must be non-empty")


@dataclass(frozen=True)
class LongitudinalConfig:
    """Knobs of one multi-day campaign."""

    days: int = 3
    seed: int = 0
    num_shards: int = 2
    #: ``0``/``1`` → run shards inline; ``None`` → pool sized to CPU count.
    num_workers: int | None = 0
    sessions_per_user: int | None = None
    trace_length: int = 120
    backend: str = "scalar"
    network: str | NetworkTopology | None = None
    session_config: SessionConfig = field(default_factory=SessionConfig)
    drift: DriftConfig = field(default_factory=DriftConfig)

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError("days must be positive")
        # Validation of the fleet-level knobs is delegated to FleetConfig —
        # build one up front so bad values fail before day 0 starts.
        self._fleet_config(day=0, network=get_topology(self.network))

    def _fleet_config(self, day: int, network: NetworkTopology | None) -> FleetConfig:
        """The one-day fleet configuration for ``day``."""
        return FleetConfig(
            num_shards=self.num_shards,
            num_workers=self.num_workers,
            sessions_per_user=self.sessions_per_user,
            trace_length=self.trace_length,
            seed=_day_seed(self.seed, day),
            day=day,
            session_config=self.session_config,
            backend=self.backend,
            network=network,
            spec_batched=True,
        )


@dataclass(frozen=True)
class RetentionDecision:
    """One user's arrival decision for one day."""

    user_id: str
    day: int
    #: Arrival probability the retention model assigned (1.0 for new users).
    probability: float
    returned: bool
    #: True when the user had no engagement outcome the previous day.
    lapsed: bool
    #: True on the user's first roster day (unconditional arrival).
    new_user: bool

    def as_payload(self) -> dict:
        """Telemetry payload of the decision."""
        return {
            "day": int(self.day),
            "probability": float(self.probability),
            "returned": bool(self.returned),
            "lapsed": bool(self.lapsed),
            "new_user": bool(self.new_user),
        }

    @classmethod
    def from_payload(cls, user_id: str, payload: dict) -> "RetentionDecision":
        """Inverse of :meth:`as_payload`."""
        return cls(
            user_id=user_id,
            day=int(payload["day"]),
            probability=float(payload["probability"]),
            returned=bool(payload["returned"]),
            lapsed=bool(payload["lapsed"]),
            new_user=bool(payload["new_user"]),
        )


def _profile_payload(profile: UserProfile) -> dict:
    """JSON form of a roster profile (floats roundtrip exactly)."""
    return {
        "user_id": profile.user_id,
        "mean_bandwidth_kbps": profile.mean_bandwidth_kbps,
        "bursty": profile.bursty,
        "sessions_per_day": profile.sessions_per_day,
        "base_hazard": profile.base_hazard,
        "sensitivity": {
            "archetype": profile.sensitivity.archetype.value,
            "tolerance_s": profile.sensitivity.tolerance_s,
            "peak_exit_probability": profile.sensitivity.peak_exit_probability,
            "daily_drift_s": profile.sensitivity.daily_drift_s,
        },
    }


def _profile_from_payload(payload: dict) -> UserProfile:
    """Inverse of :func:`_profile_payload`."""
    sensitivity = payload["sensitivity"]
    return UserProfile(
        user_id=str(payload["user_id"]),
        mean_bandwidth_kbps=float(payload["mean_bandwidth_kbps"]),
        bursty=bool(payload["bursty"]),
        sensitivity=StallSensitivityProfile(
            archetype=SensitivityArchetype(sensitivity["archetype"]),
            tolerance_s=float(sensitivity["tolerance_s"]),
            peak_exit_probability=float(sensitivity["peak_exit_probability"]),
            daily_drift_s=float(sensitivity["daily_drift_s"]),
        ),
        sessions_per_day=int(payload["sessions_per_day"]),
        base_hazard=float(payload["base_hazard"]),
    )


@dataclass
class CampaignResumeState:
    """Everything beyond controller payloads a resumed campaign needs.

    Controller state alone is not enough to continue a campaign: the next
    day's retention coins depend on *yesterday's* engagement summaries,
    distinguishing a genuinely new user (unconditional arrival) from a
    resumed one needs the first-day map, and the roster itself has drifted
    (bandwidth/tolerance wobble, influx) since the original population was
    built.  With ``checkpoint_dir`` the campaign writes one
    ``resume_day_XXX.json`` per day next to the controller checkpoint;
    :func:`load_resume_state` restores everything from disk, and

    >>> resume = load_resume_state(dir / "resume_day_000.json", dir / "day_000.json")
    >>> campaign.run(resume.population(), library, resume_state=resume)

    is **bit-identical** to the uninterrupted campaign under any retention
    model — a crash between days loses nothing.
    """

    #: First day after the saved one (what ``start_day`` should be).
    next_day: int
    #: Engagement summaries of the users who played the saved day.
    summaries: dict[str, EngagementSummary]
    #: user id → the day the user first appeared on the roster.
    first_day: dict[str, int]
    #: Controller payloads as of the saved day (checkpoint-layer format).
    controller_states: dict[str, dict]
    #: The drifted roster as of the morning of ``next_day`` (influx included).
    roster: tuple[UserProfile, ...] = ()

    def population(self) -> UserPopulation:
        """The saved roster as a population (what a resumed run plays)."""
        if not self.roster:
            raise ValueError("resume state carries no roster")
        return UserPopulation(list(self.roster))

    def save(self, path: str | Path) -> Path:
        """Write the resume state as one JSON document."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "next_day": int(self.next_day),
            "summaries": {
                uid: summary.as_payload() for uid, summary in self.summaries.items()
            },
            "first_day": {uid: int(day) for uid, day in self.first_day.items()},
            "roster": [_profile_payload(profile) for profile in self.roster],
        }
        write_text_atomic(path, json.dumps(payload, indent=2))
        return path


def load_resume_state(
    resume_path: str | Path, checkpoint_path: str | Path
) -> CampaignResumeState:
    """Load a day's resume state plus its controller checkpoint.

    ``resume_path`` is the campaign's ``resume_day_XXX.json``;
    ``checkpoint_path`` the matching ``day_XXX.json`` controller checkpoint
    (versioned/migrated through the checkpoint layer as usual).  Floats in
    the summaries and roster profiles survive the JSON roundtrip exactly, so
    a resumed campaign sees bit-identical model inputs.
    """
    raw = json.loads(Path(resume_path).read_text())
    return CampaignResumeState(
        next_day=int(raw["next_day"]),
        summaries={
            uid: EngagementSummary.from_payload(payload)
            for uid, payload in raw["summaries"].items()
        },
        first_day={uid: int(day) for uid, day in raw["first_day"].items()},
        controller_states=load_fleet_checkpoint(checkpoint_path).states,
        roster=tuple(
            _profile_from_payload(payload) for payload in raw.get("roster", [])
        ),
    )


@dataclass
class DayResult:
    """Everything one simulated day produced."""

    day: int
    result: FleetResult
    #: Arrival decision of every roster user that morning.
    decisions: dict[str, RetentionDecision]
    #: Per-user engagement summaries of the users who played.
    summaries: dict[str, EngagementSummary]
    #: Users who arrived (and therefore played), in roster order.
    active_user_ids: tuple[str, ...]
    #: Fraction of the users who played *yesterday* that returned today
    #: (NaN on day 0 and whenever nobody played yesterday).
    retention_rate: float

    @property
    def dau(self) -> int:
        """Daily active users."""
        return len(self.active_user_ids)


@dataclass
class LongitudinalResult:
    """Merged output of one multi-day campaign."""

    config: LongitudinalConfig
    days: list[DayResult]
    #: Final per-user controller payloads (checkpoint-layer format).
    controller_states: dict[str, dict]
    #: Roster after the final day's drift/influx.
    final_roster: tuple[UserProfile, ...]
    telemetry_dir: Path | None = None
    checkpoint_dir: Path | None = None

    @property
    def dau_series(self) -> list[int]:
        """Daily active users, one entry per day."""
        return [day.dau for day in self.days]

    @property
    def retention_series(self) -> list[float]:
        """Day-over-day retention rate (NaN on day 0)."""
        return [day.retention_rate for day in self.days]

    def all_logs(self) -> LogCollection:
        """All sessions of the campaign, in day order."""
        sessions = [
            session for day in self.days for session in day.result.logs.sessions
        ]
        return LogCollection(sessions)

    def daily_metrics(self, group: str) -> list[GroupDailyMetrics]:
        """One metrics row per day — zero rows for zero-arrival days.

        Unlike :func:`~repro.analytics.metrics.aggregate_daily_metrics` over
        the merged logs, the result always covers every campaign day, so two
        arms' series stay aligned for :func:`compare_arm_series` even when
        churn empties out some days.  Sessions are aggregated in canonical
        ``(user, session)`` order — live log order is shard-major, and float
        sums must not depend on how the population was sharded.
        """
        rows: list[GroupDailyMetrics] = []
        for day in self.days:
            ordered = sorted(
                day.result.logs.sessions,
                key=lambda s: (s.user_id, s.session_index),
            )
            aggregated = aggregate_daily_metrics(ordered, group=group)
            if aggregated:
                rows.append(aggregated[0])
            else:
                rows.append(
                    GroupDailyMetrics(
                        day=day.day,
                        group=group,
                        total_watch_time=0.0,
                        mean_bitrate_kbps=0.0,
                        total_stall_time=0.0,
                        stall_count=0,
                        qoe_lin=0.0,
                        num_sessions=0,
                    )
                )
        return rows


class LongitudinalCampaign:
    """Run a population through K engagement-coupled simulated days."""

    def __init__(self, config: LongitudinalConfig | None = None) -> None:
        self.config = config or LongitudinalConfig()

    def run(
        self,
        population: UserPopulation,
        library: VideoLibrary,
        abr_factory: Callable[[UserProfile, int], ABRAlgorithm] | None = None,
        retention_model: RetentionModel | None = None,
        scenario: str | Scenario | None = None,
        scenario_schedule: Callable[[int], str | Scenario] | None = None,
        telemetry_dir: str | Path | None = None,
        checkpoint_dir: str | Path | None = None,
        controller_states: dict[str, dict] | None = None,
        start_day: int = 0,
        resume_state: CampaignResumeState | None = None,
    ) -> LongitudinalResult:
        """Simulate ``config.days`` engagement-coupled days.

        ``scenario_schedule`` (day → scenario) overrides ``scenario`` per day
        — how workloads drift (see :func:`shifting_device_mix`).  With
        ``checkpoint_dir`` the campaign writes, per day, a controller
        checkpoint (``day_XXX.json``, reloaded before the next day so
        cross-day state carry always exercises the persistence layer) and a
        :class:`CampaignResumeState` (``resume_day_XXX.json``).  Passing the
        loaded ``resume_state`` (see :func:`load_resume_state`) continues an
        interrupted campaign bit-identically: retention coins see
        yesterday's summaries, resumed users are not mistaken for new ones,
        and controller state flows from the checkpoint.  ``start_day`` and
        ``controller_states`` remain available for manual resumes (without a
        resume state, every roster user arrives unconditionally on the first
        resumed day).
        """
        with obs.span("campaign.run"):
            return self._run_campaign(
                population,
                library,
                abr_factory=abr_factory,
                retention_model=retention_model,
                scenario=scenario,
                scenario_schedule=scenario_schedule,
                telemetry_dir=telemetry_dir,
                checkpoint_dir=checkpoint_dir,
                controller_states=controller_states,
                start_day=start_day,
                resume_state=resume_state,
            )

    def _run_campaign(
        self,
        population: UserPopulation,
        library: VideoLibrary,
        abr_factory: Callable[[UserProfile, int], ABRAlgorithm] | None,
        retention_model: RetentionModel | None,
        scenario: str | Scenario | None,
        scenario_schedule: Callable[[int], str | Scenario] | None,
        telemetry_dir: str | Path | None,
        checkpoint_dir: str | Path | None,
        controller_states: dict[str, dict] | None,
        start_day: int,
        resume_state: CampaignResumeState | None,
    ) -> LongitudinalResult:
        config = self.config
        retention_model = retention_model or RuleBasedRetentionModel()
        telemetry_dir = Path(telemetry_dir) if telemetry_dir is not None else None
        checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        campaign_id = f"longitudinal-{config.seed:08d}"

        roster: list[UserProfile] = list(population)
        if len({p.user_id for p in roster}) != len(roster):
            raise ValueError("population contains duplicate user ids")
        if resume_state is not None:
            if controller_states is not None:
                raise ValueError(
                    "pass either resume_state or controller_states, not both"
                )
            start_day = resume_state.next_day
            first_day = {
                p.user_id: resume_state.first_day.get(p.user_id, start_day)
                for p in roster
            }
            states: dict[str, dict] = dict(resume_state.controller_states)
            prev_summaries = dict(resume_state.summaries)
        else:
            first_day = {p.user_id: start_day for p in roster}
            states = dict(controller_states or {})
            prev_summaries = {}
        base_topology = get_topology(config.network)
        drift = config.drift

        # One persistent pool for the whole campaign (the shared pool also
        # outlives it, so back-to-back campaigns — e.g. both arms of an A/B —
        # reuse the same workers and cached library/factory objects).  Day
        # populations and controller states still travel per day: they are
        # genuinely new data.
        workers = config.num_workers
        if workers is None:
            workers = min(config.num_shards, os.cpu_count() or 1)
        fleet_pool = shared_pool(workers) if workers > 1 and config.num_shards > 1 else None

        writer: TelemetryWriter | None = None
        if telemetry_dir is not None:
            # A resumed campaign appends: the pre-crash retention/day_summary
            # history in campaign.jsonl must survive (per-day files are
            # per-run and keep truncating).
            writer = TelemetryWriter(
                telemetry_dir / "campaign.jsonl", append=start_day > 0
            )
            writer.emit(
                TelemetryEvent(
                    run_id=campaign_id,
                    shard=-1,
                    user_id="",
                    event="campaign_start",
                    payload={
                        "days": config.days,
                        "start_day": start_day,
                        "seed": config.seed,
                        "backend": config.backend,
                        "num_users": len(roster),
                        "retention_model": type(retention_model).__name__,
                    },
                )
            )

        live = obs_live.active_run()
        if live is not None:
            live.begin_campaign(
                start_day=start_day, days=config.days, run_id=campaign_id
            )

        day_results: list[DayResult] = []
        try:
            for offset in range(config.days):
                with obs.span("campaign.day"):
                    day = start_day + offset
                    if live is not None:
                        live.note_day(day=day, roster=len(roster))
                    scen = get_scenario(
                        scenario_schedule(day) if scenario_schedule is not None else scenario
                    )
                    topology = base_topology
                    if topology is not None and drift.cross_traffic_growth != 0.0:
                        topology = topology.with_cross_traffic_scale(
                            (1.0 + drift.cross_traffic_growth) ** day
                        )

                    with obs.span("campaign.retention"):
                        decisions: dict[str, RetentionDecision] = {}
                        arrivals: list[UserProfile] = []
                        for profile in roster:
                            uid = profile.user_id
                            if first_day[uid] == day:
                                decision = RetentionDecision(
                                    uid, day, 1.0, returned=True, lapsed=False, new_user=True
                                )
                            else:
                                summary = prev_summaries.get(uid)
                                probability = float(
                                    retention_model.return_probability(summary)
                                )
                                if not 0.0 <= probability <= 1.0:
                                    raise ValueError(
                                        f"retention probability {probability} for {uid!r} "
                                        "outside [0, 1]"
                                    )
                                draw = float(
                                    _decision_rng(config.seed, "retention", day, uid).random()
                                )
                                decision = RetentionDecision(
                                    uid,
                                    day,
                                    probability,
                                    returned=draw < probability,
                                    lapsed=summary is None,
                                    new_user=False,
                                )
                            decisions[uid] = decision
                            if decision.returned:
                                arrivals.append(profile)

                    fleet_config = config._fleet_config(day=day, network=topology)
                    run_id = f"{campaign_id}-d{day:03d}"
                    telemetry_path = (
                        telemetry_dir / f"day_{day:03d}.jsonl"
                        if telemetry_dir is not None
                        else None
                    )
                    if arrivals:
                        result = FleetOrchestrator(fleet_config, pool=fleet_pool).run(
                            UserPopulation(arrivals),
                            library,
                            scenario=scen,
                            abr_factory=abr_factory,
                            telemetry_path=telemetry_path,
                            controller_states=states,
                            run_id=run_id,
                        )
                        states.update(result.controller_states)
                    else:
                        # Zero-arrival day: a first-class (empty) fleet result so
                        # telemetry, metrics and replay stay uniform.
                        result = FleetResult(
                            run_id=run_id,
                            config=fleet_config,
                            scenario_name=scen.name,
                            logs=LogCollection([]),
                            shard_outputs=[],
                            controller_states={},
                            wall_time_s=0.0,
                            telemetry_path=telemetry_path,
                        )
                        if telemetry_path is not None:
                            write_fleet_telemetry(result, telemetry_path)

                    with obs.span("campaign.checkpoint"):
                        if checkpoint_dir is not None:
                            path = save_checkpoint_states(
                                states,
                                checkpoint_dir / f"day_{day:03d}.json",
                                run_id=run_id,
                                day=day,
                            )
                            # Reload what was written: cross-day carry-over always
                            # rides the checkpoint layer, so a process boundary
                            # between days cannot change the campaign.
                            states = load_fleet_checkpoint(path).states

                    with obs.span("campaign.summarize"):
                        summaries = {
                            uid: summarize_sessions(
                                sorted(sessions, key=lambda s: s.session_index)
                            )
                            for uid, sessions in result.logs.group_by_user().items()
                        }
                        eligible = [
                            d for d in decisions.values() if not d.new_user and not d.lapsed
                        ]
                        retention_rate = (
                            float(np.mean([d.returned for d in eligible]))
                            if eligible
                            else float("nan")
                        )
                    day_result = DayResult(
                        day=day,
                        result=result,
                        decisions=decisions,
                        summaries=summaries,
                        active_user_ids=tuple(p.user_id for p in arrivals),
                        retention_rate=retention_rate,
                    )
                    if live is not None:
                        live.note_day(day=day, dau=day_result.dau, roster=len(roster))
                    day_results.append(day_result)

                    if writer is not None:
                        for uid in sorted(decisions):
                            writer.emit(
                                TelemetryEvent(
                                    run_id=campaign_id,
                                    shard=-1,
                                    user_id=uid,
                                    event="retention",
                                    payload=decisions[uid].as_payload(),
                                )
                            )
                        writer.emit(
                            TelemetryEvent(
                                run_id=campaign_id,
                                shard=-1,
                                user_id="",
                                event="day_summary",
                                payload={
                                    "day": day,
                                    "dau": day_result.dau,
                                    "retention_rate": (
                                        None
                                        if np.isnan(retention_rate)
                                        else retention_rate
                                    ),
                                    "roster_size": len(roster),
                                    "metrics": result.metrics.as_dict(),
                                },
                            )
                        )

                    prev_summaries = summaries
                    with obs.span("campaign.drift"):
                        if drift.profile_drift:
                            roster = [
                                p.next_day(_decision_rng(config.seed, "drift", day, p.user_id))
                                for p in roster
                            ]
                        if drift.influx_per_day > 0:
                            new_profiles = _influx_profiles(config.seed, day, drift)
                            for profile in new_profiles:
                                if profile.user_id in first_day:
                                    raise ValueError(
                                        f"influx id collision: {profile.user_id!r}"
                                    )
                                first_day[profile.user_id] = day + 1
                            roster.extend(new_profiles)
                    with obs.span("campaign.checkpoint"):
                        if checkpoint_dir is not None:
                            # Saved after drift/influx so the roster snapshot is the
                            # morning-of-next-day one; pair with day_XXX.json via
                            # load_resume_state to continue bit-identically.
                            CampaignResumeState(
                                next_day=day + 1,
                                summaries=summaries,
                                first_day=dict(first_day),
                                controller_states={},
                                roster=tuple(roster),
                            ).save(checkpoint_dir / f"resume_day_{day:03d}.json")

            if writer is not None:
                writer.emit(
                    TelemetryEvent(
                        run_id=campaign_id,
                        shard=-1,
                        user_id="",
                        event="campaign_end",
                        payload={
                            "dau_series": [d.dau for d in day_results],
                            "final_roster_size": len(roster),
                            "num_users_with_state": len(states),
                        },
                    )
                )
        finally:
            if writer is not None:
                writer.close()

        return LongitudinalResult(
            config=config,
            days=day_results,
            controller_states=states,
            final_roster=tuple(roster),
            telemetry_dir=telemetry_dir,
            checkpoint_dir=checkpoint_dir,
        )


def _influx_profiles(seed: int, day: int, drift: DriftConfig) -> list[UserProfile]:
    """Draw the day's new-user cohort (ids are prefix + day + index)."""
    rng = _decision_rng(seed, "influx", day)
    mixture = MixedTraceGenerator(
        median_kbps=drift.influx_bandwidth_median_kbps,
        sigma_log=drift.influx_sigma_log,
        burst_fraction=drift.influx_burst_fraction,
    )
    profiles = []
    for i in range(drift.influx_per_day):
        profiles.append(
            UserProfile(
                user_id=f"{drift.influx_id_prefix}{day:03d}x{i:04d}",
                mean_bandwidth_kbps=mixture.sample_user_mean(rng),
                bursty=bool(rng.random() < drift.influx_burst_fraction),
                sensitivity=sample_profile(rng),
                sessions_per_day=int(rng.integers(3, 15)),
                base_hazard=float(np.clip(rng.normal(0.02, 0.008), 0.004, 0.06)),
            )
        )
    return profiles


def run_longitudinal_campaign(
    population: UserPopulation,
    library: VideoLibrary,
    config: LongitudinalConfig | None = None,
    **kwargs,
) -> LongitudinalResult:
    """Convenience one-call wrapper around :class:`LongitudinalCampaign`."""
    return LongitudinalCampaign(config).run(population, library, **kwargs)


def shifting_device_mix(
    mobile_start: float = 0.3,
    mobile_shift_per_day: float = 0.05,
    tv_fraction: float = 0.2,
    **scenario_kwargs,
) -> Callable[[int], Scenario]:
    """Scenario schedule: the mobile share of the device mix drifts daily.

    Day ``d`` runs a :class:`~repro.fleet.scenarios.DeviceMixScenario` with
    ``mobile_fraction = mobile_start + d * mobile_shift_per_day`` (clamped so
    the fractions stay valid) — the "device-mix shift" axis of population
    drift.
    """

    def schedule(day: int) -> Scenario:
        mobile = min(max(mobile_start + day * mobile_shift_per_day, 0.0), 0.95)
        tv = min(tv_fraction, 1.0 - mobile)
        return DeviceMixScenario(
            mobile_fraction=mobile, tv_fraction=tv, **scenario_kwargs
        )

    return schedule


# --------------------------------------------------------------------------- #
# Cross-day A/B harness
# --------------------------------------------------------------------------- #

#: Metrics compared between arms by default.  ``dau`` and ``retention_rate``
#: come from the campaign's churn loop; the rest from the daily QoE rows.
DEFAULT_AB_METRICS: tuple[str, ...] = (
    "dau",
    "retention_rate",
    "total_watch_time",
    "mean_bitrate_kbps",
    "stall_seconds_per_hour",
    "qoe_lin",
)


@dataclass
class LongitudinalABResult:
    """Both arms' campaigns plus the per-metric paired comparisons."""

    arms: dict[str, LongitudinalResult]
    #: metric name → paired per-day comparison (first arm = treatment).
    comparisons: dict[str, ArmComparison]
    #: user id → arm name for the initial population.
    arm_assignment: dict[str, str]
    treatment_arm: str
    control_arm: str

    def summary_lines(self) -> list[str]:
        """Human-readable per-metric comparison summaries."""
        return [comparison.summary() for comparison in self.comparisons.values()]


def assign_arms(
    population: UserPopulation,
    arm_names: Sequence[str],
    salt: str = "ab-arm",
) -> dict[str, UserPopulation]:
    """Split a population into arms by stable user-id hash.

    The assignment is a pure function of user identity (like the cohorts in
    :mod:`repro.fleet.scenarios`): recomputation, sharding and roster growth
    cannot move a user between arms.
    """
    names = list(arm_names)
    if len(names) < 2 or len(set(names)) != len(names):
        raise ValueError("need at least two distinct arm names")
    boundaries = np.linspace(0.0, 1.0, len(names) + 1)[1:]
    groups: dict[str, list[UserProfile]] = {name: [] for name in names}
    for profile in population:
        draw = stable_fraction(profile.user_id, salt)
        arm = names[int(np.searchsorted(boundaries, draw, side="right"))]
        groups[arm].append(profile)
    empty = [name for name, members in groups.items() if not members]
    if empty:
        raise ValueError(
            f"arms {empty} received no users; population too small for the split"
        )
    return {name: UserPopulation(members) for name, members in groups.items()}


def run_ab_campaign(
    population: UserPopulation,
    library: VideoLibrary,
    arms: Mapping[str, Callable[[UserProfile, int], ABRAlgorithm]],
    config: LongitudinalConfig | None = None,
    retention_model: RetentionModel | None = None,
    scenario: str | Scenario | None = None,
    scenario_schedule: Callable[[int], str | Scenario] | None = None,
    telemetry_root: str | Path | None = None,
    checkpoint_root: str | Path | None = None,
    metrics: Sequence[str] = DEFAULT_AB_METRICS,
    split_salt: str = "ab-arm",
) -> LongitudinalABResult:
    """Run a cross-day A/B campaign: two arms, shared seeds, paired days.

    ``arms`` maps arm name → fleet ABR factory; the **first** entry is the
    treatment arm in every comparison.  Both arms run the same
    :class:`LongitudinalConfig` (same seed — the campaign keys all decision
    randomness by user identity, so shared seeds give paired days), and
    influx users are minted with arm-specific id prefixes and arm-share
    counts so new users also split across arms.
    """
    if len(arms) != 2:
        raise ValueError("run_ab_campaign compares exactly two arms")
    config = config or LongitudinalConfig()
    arm_names = list(arms)
    populations = assign_arms(population, arm_names, salt=split_salt)
    arm_assignment = {
        profile.user_id: name
        for name, arm_population in populations.items()
        for profile in arm_population
    }

    influx_counts = _apportion(
        config.drift.influx_per_day,
        [len(populations[name]) / len(population) for name in arm_names],
    )
    results: dict[str, LongitudinalResult] = {}
    for name, arm_influx in zip(arm_names, influx_counts):
        arm_population = populations[name]
        drift = replace(
            config.drift,
            influx_per_day=arm_influx,
            influx_id_prefix=f"{name}-{config.drift.influx_id_prefix}",
        )
        arm_config = replace(config, drift=drift)
        results[name] = LongitudinalCampaign(arm_config).run(
            arm_population,
            library,
            abr_factory=arms[name],
            retention_model=retention_model,
            scenario=scenario,
            scenario_schedule=scenario_schedule,
            telemetry_dir=(
                Path(telemetry_root) / name if telemetry_root is not None else None
            ),
            checkpoint_dir=(
                Path(checkpoint_root) / name if checkpoint_root is not None else None
            ),
        )

    treatment_name, control_name = arm_names
    daily_rows = {
        name: results[name].daily_metrics(name) for name in arm_names
    }
    comparisons: dict[str, ArmComparison] = {}
    for metric in metrics:
        treatment_series = _metric_series(
            results[treatment_name], daily_rows[treatment_name], metric
        )
        control_series = _metric_series(
            results[control_name], daily_rows[control_name], metric
        )
        # Drop non-finite *pairs* (day 0's retention rate has no previous
        # day; a fully-churned day has no sessions to average over) so the
        # paired statistics never silently degrade to NaN or count an empty
        # day's "0.0 kbps / 0 stall" as a real observation.  Pairing is
        # preserved: day i of one arm is only compared with day i of the
        # other.
        pairs = [
            (t, c)
            for t, c in zip(treatment_series, control_series)
            if np.isfinite(t) and np.isfinite(c)
        ]
        if len(pairs) >= 2:
            comparisons[metric] = compare_arm_series(
                metric, [t for t, _ in pairs], [c for _, c in pairs]
            )
    return LongitudinalABResult(
        arms=results,
        comparisons=comparisons,
        arm_assignment=arm_assignment,
        treatment_arm=treatment_name,
        control_arm=control_name,
    )


def _apportion(total: int, shares: Sequence[float]) -> list[int]:
    """Split ``total`` integer units by ``shares`` (largest remainder).

    Unlike per-share rounding, the counts always sum to ``total`` — a
    configured daily influx is never silently dropped (or doubled) by
    round-half-to-even across arms.
    """
    raw = [total * share for share in shares]
    counts = [int(np.floor(value)) for value in raw]
    remainder = total - sum(counts)
    by_fraction = sorted(
        range(len(shares)), key=lambda i: (-(raw[i] - counts[i]), i)
    )
    for index in by_fraction[:remainder]:
        counts[index] += 1
    return counts


#: Per-session/per-hour *ratios* — undefined on a zero-arrival day.  They
#: report NaN there (and get pair-dropped), because encoding "nobody played"
#: as 0.0 kbps / 0.0 stall would enter the t-test as a real observation.
#: Extensive totals (dau, watch time, qoe sum) are legitimately 0 on empty
#: days and stay in.
_INTENSIVE_METRICS = frozenset(
    {"mean_bitrate_kbps", "stall_seconds_per_hour", "session_exit_rate"}
)


def _metric_series(
    result: LongitudinalResult,
    rows: Sequence[GroupDailyMetrics],
    metric: str,
) -> list[float]:
    """Per-day series of one cohort metric (aligned across arms).

    ``rows`` are the arm's precomputed :meth:`LongitudinalResult.daily_metrics`
    rows (computed once per arm, not once per metric).
    """
    if metric == "dau":
        return [float(v) for v in result.dau_series]
    if metric == "retention_rate":
        return list(result.retention_series)
    if metric == "session_exit_rate":
        return [
            float("nan") if day.dau == 0 else day.result.metrics.session_exit_rate
            for day in result.days
        ]
    try:
        values = [float(getattr(row, metric)) for row in rows]
    except AttributeError:
        raise ValueError(f"unknown A/B metric {metric!r}") from None
    if metric in _INTENSIVE_METRICS:
        return [
            float("nan") if day.dau == 0 else value
            for day, value in zip(result.days, values)
        ]
    return values


# --------------------------------------------------------------------------- #
# Campaign telemetry replay
# --------------------------------------------------------------------------- #
def replay_retention_decisions(
    path: str | Path,
) -> dict[tuple[int, str], RetentionDecision]:
    """Reconstruct every retention decision from a ``campaign.jsonl`` file.

    Exact replay: probabilities survive the JSON roundtrip bit-for-bit, so
    the result compares equal to the live campaign's ``DayResult.decisions``.
    """
    decisions: dict[tuple[int, str], RetentionDecision] = {}
    for event in read_events(path):
        if event.event == "retention":
            decision = RetentionDecision.from_payload(event.user_id, event.payload)
            decisions[(decision.day, decision.user_id)] = decision
    if not decisions:
        raise ValueError(f"no retention events found in {path}")
    return decisions


def replay_day_summaries(path: str | Path) -> list[dict]:
    """The per-day summary payloads of a ``campaign.jsonl`` file, in order."""
    return [
        event.payload for event in read_events(path) if event.event == "day_summary"
    ]
