"""Figure 11 — heatmap of chosen stall parameters under different sensitivities.

For rule-based users on a (stall-count threshold × stall-time threshold)
grid, LingXi's average chosen stall parameter should decrease (darker cells
in the paper) as the user's exit thresholds increase — i.e. LingXi perceives
tolerant users as tolerant and relaxes the stall penalty for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments import fig10_simulation
from repro.experiments.common import Substrate, SubstrateConfig, build_substrate


@dataclass
class Fig11Result:
    """Heatmap matrix of mean chosen stall parameters per baseline."""

    thresholds: list[float]
    #: baseline name -> matrix indexed [time_threshold_index, count_threshold_index]
    heatmaps: dict[str, np.ndarray]


def run(
    substrate: Substrate | None = None,
    baselines: tuple[str, ...] = ("robust_mpc",),
    rule_thresholds: tuple[float, ...] = (2.0, 5.0, 8.0),
    seed: int = 0,
    **fig10_kwargs,
) -> Fig11Result:
    """Build the chosen-stall-parameter heatmap from LingXi(B) runs."""
    substrate = substrate or build_substrate(SubstrateConfig())
    heatmaps: dict[str, np.ndarray] = {}
    thresholds = list(rule_thresholds)
    for baseline in baselines:
        outcome = fig10_simulation.run(
            baseline=baseline,
            user_modeling="rule",
            substrate=substrate,
            rule_thresholds=rule_thresholds,
            include_fixed=False,
            include_lingxi_fixed=False,
            include_lingxi_bayesian=True,
            seed=seed,
            **fig10_kwargs,
        )
        matrix = np.full((len(thresholds), len(thresholds)), np.nan)
        for (time_threshold, count_threshold), value in outcome.chosen_stall_parameter.items():
            i = thresholds.index(float(time_threshold))
            j = thresholds.index(float(count_threshold))
            matrix[i, j] = value
        heatmaps[baseline] = matrix
    return Fig11Result(thresholds=thresholds, heatmaps=heatmaps)
