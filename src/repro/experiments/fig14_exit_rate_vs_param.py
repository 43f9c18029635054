"""Figure 14 — relationship between stall exit rate and the ABR parameter.

For each day of the AB phase, every user contributes one point: their
stall-induced exit rate (fraction of stall events followed by an exit at the
current or next segment) and the ``beta`` LingXi assigned them that day.  The
paper reports consistently negative Pearson correlations (−0.23 to −0.52):
users who bail out of stalls quickly get conservative parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytics.correlation import linear_trend, pearson_correlation
from repro.experiments import fig12_ab_test
from repro.experiments.common import Substrate, SubstrateConfig, build_substrate


@dataclass
class DailyCorrelation:
    """One day's scatter of (stall exit rate, parameter) plus its statistics."""

    day: int
    exit_rates: list[float]
    parameters: list[float]
    correlation: float
    slope: float
    intercept: float


@dataclass
class Fig14Result:
    """Per-day correlations between stall exit rate and assigned parameter."""

    daily: list[DailyCorrelation]

    @property
    def correlations(self) -> list[float]:
        """Pearson correlation per day."""
        return [d.correlation for d in self.daily]


def run(
    substrate: Substrate | None = None,
    ab_result: fig12_ab_test.Fig12Result | None = None,
    min_stall_events: int = 2,
    **fig12_kwargs,
) -> Fig14Result:
    """Correlate per-user stall exit rates with their assigned parameters."""
    substrate = substrate or build_substrate(SubstrateConfig())
    ab_result = ab_result or fig12_ab_test.run(substrate=substrate, **fig12_kwargs)
    treatment = ab_result.treatment_post

    daily: list[DailyCorrelation] = []
    for day in treatment.logs.days():
        day_logs = treatment.logs.filter(lambda s, d=day: s.day == d)
        exit_rates_by_user = day_logs.stall_exit_rate_by_user(min_stall_events=min_stall_events)
        exit_rates: list[float] = []
        parameters: list[float] = []
        for user, exit_rate in exit_rates_by_user.items():
            parameter = treatment.daily_parameters.get((user, day))
            if parameter is None:
                continue
            exit_rates.append(exit_rate)
            parameters.append(parameter)
        if len(exit_rates) >= 3:
            correlation = pearson_correlation(exit_rates, parameters)
            slope, intercept = linear_trend(exit_rates, parameters)
        else:
            correlation, slope, intercept = float("nan"), float("nan"), float("nan")
        daily.append(
            DailyCorrelation(
                day=day,
                exit_rates=exit_rates,
                parameters=parameters,
                correlation=correlation,
                slope=slope,
                intercept=intercept,
            )
        )
    return Fig14Result(daily=daily)
