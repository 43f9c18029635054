"""Figure 1 — QoS metrics meet their limits.

Three fixed-objective variants of the production algorithm are A/B-tested for
five days: ``Alg1`` prioritises stall reduction (large stall penalty),
``Alg2`` is the balanced baseline, ``Alg3`` prioritises video quality (small
stall penalty).  The figure reports normalized daily bitrate, stall time,
``QoE_lin`` and overall watch time; the reproduction's expected shape is the
paper's: Alg3 wins bitrate, Alg1 wins stall time and ``QoE_lin``, and watch
time shows no consistent winner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.abr.base import QoEParameters
from repro.abr.robust_mpc import RobustMPC
from repro.analytics.metrics import aggregate_daily_metrics
from repro.datasets import LogGenerationConfig, generate_production_logs
from repro.experiments.common import Substrate, SubstrateConfig, build_substrate

#: The three optimization preferences of the experiment.
ALGORITHM_VARIANTS: dict[str, QoEParameters] = {
    "Alg1": QoEParameters(stall_penalty=12.0, switch_penalty=1.0),  # stall-averse
    "Alg2": QoEParameters(stall_penalty=4.3, switch_penalty=1.0),  # production baseline
    "Alg3": QoEParameters(stall_penalty=1.0, switch_penalty=0.5),  # quality-leaning
}


@dataclass
class Fig01Result:
    """Normalized daily series per algorithm (reference = Alg2)."""

    days: list[int]
    bitrate: dict[str, list[float]]
    stall_time: dict[str, list[float]]
    qoe_lin: dict[str, list[float]]
    watch_time: dict[str, list[float]]

    def rows(self) -> list[list[object]]:
        """Table rows: one per (algorithm, day)."""
        out: list[list[object]] = []
        for name in self.bitrate:
            for i, day in enumerate(self.days):
                out.append(
                    [
                        name,
                        day + 1,
                        round(self.bitrate[name][i], 4),
                        round(self.stall_time[name][i], 4),
                        round(self.qoe_lin[name][i], 4),
                        round(self.watch_time[name][i], 4),
                    ]
                )
        return out


def run(
    substrate: Substrate | None = None,
    days: int = 5,
    sessions_per_user_per_day: int = 2,
    mpc_horizon: int = 3,
    seed: int = 11,
) -> Fig01Result:
    """Run the three-variant A/B comparison and return normalized series."""
    substrate = substrate or build_substrate(SubstrateConfig())
    per_algorithm: dict[str, list] = {}
    for name, parameters in ALGORITHM_VARIANTS.items():
        logs = generate_production_logs(
            substrate.population,
            substrate.library,
            LogGenerationConfig(
                days=days,
                sessions_per_user_per_day=sessions_per_user_per_day,
                seed=seed,
            ),
            abr_factory=lambda _profile, p=parameters: RobustMPC(
                parameters=p, horizon=mpc_horizon
            ),
        ).logs
        per_algorithm[name] = aggregate_daily_metrics(logs.sessions, group=name)

    reference = per_algorithm["Alg2"]
    day_indices = [row.day for row in reference]

    def normalized(metric: str) -> dict[str, list[float]]:
        ref_values = np.asarray([getattr(row, metric) for row in reference], dtype=float)
        series = {}
        for name, rows in per_algorithm.items():
            values = np.asarray([getattr(row, metric) for row in rows], dtype=float)
            with np.errstate(invalid="ignore", divide="ignore"):
                series[name] = list(np.where(ref_values != 0, values / ref_values, np.nan))
        return series

    return Fig01Result(
        days=day_indices,
        bitrate=normalized("mean_bitrate_kbps"),
        stall_time=normalized("total_stall_time"),
        qoe_lin=normalized("qoe_lin"),
        watch_time=normalized("total_watch_time"),
    )
