"""repro.fleet — sharded multi-user session orchestration.

The fleet layer scales the single-session engine of :mod:`repro.sim` into a
platform simulator:

* :mod:`repro.fleet.orchestrator` — :class:`FleetOrchestrator` shards a
  :class:`~repro.users.population.UserPopulation` across a process pool with
  deterministic per-shard seeding and merges the results into the standard
  :class:`~repro.analytics.logs.LogCollection` analytics format.
* :mod:`repro.fleet.batched` — an old import path, with no logic, for
  :class:`BatchedExitPredictor` and the lockstep
  :class:`BatchedMonteCarloEvaluator`.  Both live in :mod:`repro.core`, where
  every LingXi controller builds them, and this package re-exports them.
* :mod:`repro.fleet.scenarios` — the workload registry (steady state, flash
  crowd, regional degradation, device mix, plus user-registered ones).
* :mod:`repro.fleet.pool` — persistent shared-memory worker pool:
  long-lived forked workers, shard tasks shipped by reference through a
  worker-side object cache, zero-copy columnar results in shared-memory arenas.
* :mod:`repro.fleet.telemetry` — JSONL event pipeline with a lossless
  replay/loader API.
* :mod:`repro.fleet.checkpoint` — per-user controller-state checkpointing for
  multi-day campaigns across process boundaries.
* :mod:`repro.fleet.longitudinal` — engagement-coupled multi-day campaigns:
  retention-driven churn, population drift, new-user influx, and the
  cross-day A/B harness (the compounding analogue of Figure 12).
"""

from repro.core.exit_predictor import BatchedExitPredictor
from repro.core.monte_carlo import BatchedMonteCarloEvaluator
from repro.fleet.checkpoint import (
    FleetCheckpoint,
    checkpoint_controllers,
    load_fleet_checkpoint,
    register_checkpoint_migration,
    restore_controllers,
    save_checkpoint_states,
    save_fleet_checkpoint,
)
from repro.fleet.longitudinal import (
    CampaignResumeState,
    DayResult,
    DriftConfig,
    load_resume_state,
    LongitudinalABResult,
    LongitudinalCampaign,
    LongitudinalConfig,
    LongitudinalResult,
    RetentionDecision,
    assign_arms,
    replay_day_summaries,
    replay_retention_decisions,
    run_ab_campaign,
    run_longitudinal_campaign,
    shifting_device_mix,
)
from repro.fleet.pool import (
    CacheRef,
    PoolError,
    ShardTaskError,
    WorkerCrashError,
    WorkerPool,
    shared_pool,
    shutdown_shared_pools,
)
from repro.fleet.orchestrator import (
    FleetConfig,
    FleetMetrics,
    FleetOrchestrator,
    FleetResult,
    HybFleetFactory,
    LingXiFleetFactory,
    ShardOutput,
    ShardTask,
    fleet_metrics,
    run_fleet_day,
    write_fleet_telemetry,
)
from repro.fleet.scenarios import (
    DeviceMixScenario,
    EveningPeakScenario,
    FlashCrowdScenario,
    FlashCrowdSharedScenario,
    LinkOutageScenario,
    RegionalDegradationScenario,
    Scenario,
    SteadyStateScenario,
    available_scenarios,
    get_scenario,
    register_scenario,
)
from repro.fleet.telemetry import (
    TelemetryEvent,
    TelemetryWriter,
    encode_events,
    encode_shard_events,
    iter_shard_events,
    link_utilization_event,
    read_events,
    replay_link_usage,
    replay_link_utilization,
    replay_log_collection,
    replay_run_report,
    replay_run_summary,
    replay_sessions,
    session_event,
    session_from_payload,
    session_payload,
    shard_summary_event,
)

__all__ = [
    "BatchedExitPredictor",
    "BatchedMonteCarloEvaluator",
    "FleetCheckpoint",
    "checkpoint_controllers",
    "load_fleet_checkpoint",
    "register_checkpoint_migration",
    "restore_controllers",
    "save_checkpoint_states",
    "save_fleet_checkpoint",
    "CampaignResumeState",
    "DayResult",
    "DriftConfig",
    "load_resume_state",
    "LongitudinalABResult",
    "LongitudinalCampaign",
    "LongitudinalConfig",
    "LongitudinalResult",
    "RetentionDecision",
    "assign_arms",
    "replay_day_summaries",
    "replay_retention_decisions",
    "run_ab_campaign",
    "run_longitudinal_campaign",
    "shifting_device_mix",
    "CacheRef",
    "PoolError",
    "ShardTaskError",
    "WorkerCrashError",
    "WorkerPool",
    "shared_pool",
    "shutdown_shared_pools",
    "encode_events",
    "encode_shard_events",
    "iter_shard_events",
    "shard_summary_event",
    "FleetConfig",
    "FleetMetrics",
    "FleetOrchestrator",
    "FleetResult",
    "HybFleetFactory",
    "LingXiFleetFactory",
    "ShardOutput",
    "ShardTask",
    "fleet_metrics",
    "run_fleet_day",
    "write_fleet_telemetry",
    "DeviceMixScenario",
    "EveningPeakScenario",
    "FlashCrowdScenario",
    "FlashCrowdSharedScenario",
    "LinkOutageScenario",
    "RegionalDegradationScenario",
    "Scenario",
    "SteadyStateScenario",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
    "TelemetryEvent",
    "TelemetryWriter",
    "link_utilization_event",
    "read_events",
    "replay_link_usage",
    "replay_link_utilization",
    "replay_log_collection",
    "replay_run_report",
    "replay_run_summary",
    "replay_sessions",
    "session_event",
    "session_from_payload",
    "session_payload",
]
