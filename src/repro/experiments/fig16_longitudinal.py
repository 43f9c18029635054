"""Figure 16 (extension) — compounding cross-day A/B campaign.

Figure 12 measures LingXi's effect with both groups' populations pinned:
every user plays every day, so better QoE can only move per-session metrics.
This experiment runs the same HYB-vs-LingXi comparison through the
longitudinal fleet (:mod:`repro.fleet.longitudinal`), where engagement
feeds back into arrivals: users who stall out churn, users who finish videos
come back.  The reported deltas — DAU, day-over-day retention, watch time,
stall time — therefore *compound* across days, which is the paper's actual
long-term claim.

Both arms run the same days with shared seeds (paired days), and the
per-metric comparisons come from
:func:`repro.analytics.abtest.compare_arm_series`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abr.base import QoEParameters
from repro.analytics.abtest import ArmComparison
from repro.core.monte_carlo import MonteCarloConfig
from repro.core.parameter_space import ParameterSpace
from repro.core.triggers import TriggerPolicy
from repro.experiments.common import Substrate, SubstrateConfig, build_substrate
from repro.fleet.longitudinal import (
    LongitudinalABResult,
    LongitudinalConfig,
    DriftConfig,
    run_ab_campaign,
)
from repro.fleet.orchestrator import HybFleetFactory, LingXiFleetFactory
from repro.users.population import UserPopulation
from repro.users.retention import RuleBasedRetentionModel


@dataclass
class Fig16Result:
    """A/B campaign artefacts plus the headline comparisons."""

    ab: LongitudinalABResult
    dau: ArmComparison | None
    retention: ArmComparison | None
    watch_time: ArmComparison | None
    stall: ArmComparison | None

    def summary_lines(self) -> list[str]:
        """Per-metric one-liners (skipping metrics with too few days)."""
        return self.ab.summary_lines()


#: Production-default HYB aggressiveness (matches fig12).
BASELINE_BETA: float = 0.8
BETA_RANGE: tuple[float, float] = (0.4, 1.0)


def run(
    substrate: Substrate | None = None,
    days: int = 4,
    num_users: int = 80,
    sessions_per_user: int = 3,
    trace_length: int = 100,
    influx_per_day: int = 4,
    seed: int = 33,
    network: str | None = None,
) -> Fig16Result:
    """Run the compounding A/B campaign on the substrate's population.

    The treatment arm runs per-user LingXi(HYB) controllers whose long-term
    state carries across days through the checkpoint layer; the control arm
    runs static HYB at the production beta.  Both arms run on the vector
    engine.
    """
    substrate = substrate or build_substrate(SubstrateConfig())
    profiles = substrate.population.profiles[:num_users]
    population = UserPopulation(profiles)

    lingxi_factory = LingXiFleetFactory(
        predictor=substrate.predictor,
        parameter_space=ParameterSpace.for_hyb(
            beta_range=BETA_RANGE, defaults=QoEParameters(beta=BASELINE_BETA)
        ),
        monte_carlo=MonteCarloConfig(num_samples=3, max_sample_duration_s=60.0),
        trigger=TriggerPolicy(stall_count_threshold=2),
        baseline_parameters=QoEParameters(beta=BASELINE_BETA),
    )
    hyb_factory = HybFleetFactory(parameters=QoEParameters(beta=BASELINE_BETA))

    config = LongitudinalConfig(
        days=days,
        seed=seed,
        num_shards=2,
        num_workers=0,
        sessions_per_user=sessions_per_user,
        trace_length=trace_length,
        backend="vector",
        network=network,
        drift=DriftConfig(influx_per_day=influx_per_day),
    )
    ab = run_ab_campaign(
        population,
        substrate.library,
        arms={"lingxi": lingxi_factory, "hyb": hyb_factory},
        config=config,
        retention_model=RuleBasedRetentionModel(),
    )
    return Fig16Result(
        ab=ab,
        dau=ab.comparisons.get("dau"),
        retention=ab.comparisons.get("retention_rate"),
        watch_time=ab.comparisons.get("total_watch_time"),
        stall=ab.comparisons.get("stall_seconds_per_hour"),
    )
