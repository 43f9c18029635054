"""Figure 12 — large-scale difference-in-differences A/B test.

The production experiment runs 5 AA days (both groups on the static HYB
baseline) followed by 5 AB days (the experimental group switches to
LingXi-tuned HYB).  The reported effects: total watch time +0.146%, bitrate
+0.103%, stall time −1.287% — with the stall-time improvement an order of
magnitude larger than the bitrate improvement.  The reproduction runs the
same protocol on the simulated population; absolute effect sizes differ (the
simulated population is far smaller and more volatile than 30 M users) but
the signs and the stall-vs-bitrate asymmetry should match.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abr.base import QoEParameters
from repro.abr.hyb import HYB
from repro.analytics.abtest import ABTestResult, difference_in_differences
from repro.analytics.metrics import GroupDailyMetrics, aggregate_daily_metrics
from repro.core.controller import ControllerConfig, LingXiABR, LingXiController
from repro.core.monte_carlo import MonteCarloConfig
from repro.core.parameter_space import ParameterSpace
from repro.core.triggers import TriggerPolicy
from repro.datasets import GeneratedLogs, LogGenerationConfig, generate_production_logs
from repro.experiments.common import Substrate, SubstrateConfig, build_substrate
from repro.users.population import UserPopulation, UserProfile


@dataclass
class Fig12Result:
    """Daily metrics of both groups plus the difference-in-differences tests."""

    control_daily: list[GroupDailyMetrics]
    treatment_daily: list[GroupDailyMetrics]
    watch_time: ABTestResult
    bitrate: ABTestResult
    stall_time: ABTestResult
    #: Campaign artefacts of the AB (post-intervention) phase, for Figures 13–15.
    treatment_post: GeneratedLogs
    control_post: GeneratedLogs
    treatment_population: UserPopulation
    control_population: UserPopulation
    days_pre: int
    days_post: int


#: Production-default HYB aggressiveness used by both groups before (and, for
#: the control group, after) the intervention.  LingXi may move it in either
#: direction within BETA_RANGE.
BASELINE_BETA: float = 0.8
BETA_RANGE: tuple[float, float] = (0.4, 1.0)


def _baseline_parameters() -> QoEParameters:
    return QoEParameters(beta=BASELINE_BETA)


def _lingxi_hyb_factory(substrate: Substrate, seed: int):
    """Per-user factory building a LingXi-wrapped HYB with a fresh controller."""

    def factory(profile: UserProfile) -> LingXiABR:
        controller = LingXiController(
            parameter_space=ParameterSpace.for_hyb(
                beta_range=BETA_RANGE, defaults=_baseline_parameters()
            ),
            predictor=substrate.predictor,
            monte_carlo=MonteCarloConfig(num_samples=3, max_sample_duration_s=60.0, seed=seed),
            trigger=TriggerPolicy(stall_count_threshold=2),
            config=ControllerConfig(mode="bayesian", max_sample_times=4, seed=seed),
        )
        return LingXiABR(HYB(parameters=_baseline_parameters()), controller)

    return factory


def run(
    substrate: Substrate | None = None,
    days_pre: int = 3,
    days_post: int = 4,
    sessions_per_user_per_day: int = 4,
    trace_length: int = 120,
    split_fraction: float = 0.5,
    seed: int = 21,
) -> Fig12Result:
    """Run the AA/AB campaign and the difference-in-differences analysis.

    Each phase of each group is one
    :func:`~repro.datasets.synthetic_logs.generate_production_logs` call:
    every user keeps one ABR for the phase, and the AB phase starts on day
    ``days_pre``.  The AA phases and the control group are plain HYB, which
    the vector engine runs in lockstep.
    """
    substrate = substrate or build_substrate(SubstrateConfig())
    treatment_population, control_population = substrate.population.split(
        split_fraction, seed=seed
    )

    def campaign(population: UserPopulation, factory, start_day: int, days: int):
        return generate_production_logs(
            population,
            substrate.library,
            LogGenerationConfig(
                days=days,
                sessions_per_user_per_day=sessions_per_user_per_day,
                trace_length=trace_length,
                seed=seed + start_day,
                start_day=start_day,
            ),
            abr_factory=factory,
        )

    hyb_factory = lambda _profile: HYB(parameters=_baseline_parameters())  # noqa: E731

    control_pre = campaign(control_population, hyb_factory, 0, days_pre)
    treatment_pre = campaign(treatment_population, hyb_factory, 0, days_pre)
    control_post = campaign(control_population, hyb_factory, days_pre, days_post)
    treatment_post = campaign(
        treatment_population, _lingxi_hyb_factory(substrate, seed), days_pre, days_post
    )

    control_logs = control_pre.logs.extend(control_post.logs)
    treatment_logs = treatment_pre.logs.extend(treatment_post.logs)
    control_daily = aggregate_daily_metrics(control_logs.sessions, group="control")
    treatment_daily = aggregate_daily_metrics(treatment_logs.sessions, group="treatment")

    def did(metric: str, attribute: str) -> ABTestResult:
        # Guard against zero-valued control days (tiny simulated populations).
        floor = 1e-9
        control_values = [max(getattr(row, attribute), floor) for row in control_daily]
        treatment_values = [max(getattr(row, attribute), floor) for row in treatment_daily]
        return difference_in_differences(
            metric,
            treatment_pre=treatment_values[:days_pre],
            control_pre=control_values[:days_pre],
            treatment_post=treatment_values[days_pre:],
            control_post=control_values[days_pre:],
        )

    return Fig12Result(
        control_daily=control_daily,
        treatment_daily=treatment_daily,
        watch_time=did("total_watch_time", "total_watch_time"),
        bitrate=did("mean_bitrate", "mean_bitrate_kbps"),
        # Stall is compared per watch-hour: with a small simulated population
        # the raw daily totals are dominated by a handful of heavy sessions.
        stall_time=did("stall_seconds_per_hour", "stall_seconds_per_hour"),
        treatment_post=treatment_post,
        control_post=control_post,
        treatment_population=treatment_population,
        control_population=control_population,
        days_pre=days_pre,
        days_post=days_post,
    )
