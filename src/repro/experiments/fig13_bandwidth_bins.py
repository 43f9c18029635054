"""Figure 13 — LingXi behaviour across bandwidth regimes.

(a) The learned HYB aggressiveness ``beta`` as a function of the user's
bandwidth: low-bandwidth users get conservative (small) betas with larger
variation; high-bandwidth users keep large, stable betas.
(b) The relative change in stall time versus the static-HYB control group,
per bandwidth bin: the reduction concentrates in the <2000 kbps long tail,
fading to parity as bandwidth grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments import fig12_ab_test
from repro.experiments.common import Substrate, SubstrateConfig, build_substrate

#: Bandwidth bin edges (kbps) used for both panels.
BANDWIDTH_BIN_EDGES_KBPS: tuple[float, ...] = (0, 2000, 4000, 6000, 1e9)


@dataclass
class Fig13Result:
    """Per-bin learned parameters and stall-time changes."""

    bin_labels: list[str]
    mean_beta: list[float]
    std_beta: list[float]
    stall_change_percent: list[float]

    @property
    def low_bandwidth_stall_change(self) -> float:
        """Stall-time change (%) in the lowest bandwidth bin."""
        return self.stall_change_percent[0]


def run(
    substrate: Substrate | None = None,
    ab_result: fig12_ab_test.Fig12Result | None = None,
    **fig12_kwargs,
) -> Fig13Result:
    """Aggregate the AB-phase campaign by bandwidth bin."""
    substrate = substrate or build_substrate(SubstrateConfig())
    ab_result = ab_result or fig12_ab_test.run(substrate=substrate, **fig12_kwargs)

    treatment = ab_result.treatment_post
    control = ab_result.control_post
    treatment_bandwidth = {
        p.user_id: p.mean_bandwidth_kbps for p in ab_result.treatment_population
    }
    control_bandwidth = {
        p.user_id: p.mean_bandwidth_kbps for p in ab_result.control_population
    }

    edges = BANDWIDTH_BIN_EDGES_KBPS
    labels, mean_beta, std_beta, stall_change = [], [], [], []
    for low, high in zip(edges[:-1], edges[1:]):
        labels.append(f"{low / 1000:g}-{high / 1000:g} Mbps" if high < 1e8 else f">{low / 1000:g} Mbps")

        betas = [
            value
            for (user, _day), value in treatment.daily_parameters.items()
            if low <= treatment_bandwidth.get(user, -1.0) < high
        ]
        mean_beta.append(float(np.mean(betas)) if betas else float("nan"))
        std_beta.append(float(np.std(betas)) if betas else float("nan"))

        def stall_per_watch_second(result, bandwidths) -> float:
            stall = 0.0
            watch = 0.0
            for session in result.logs:
                bandwidth = bandwidths.get(session.user_id, -1.0)
                if low <= bandwidth < high:
                    stall += session.total_stall_time
                    watch += session.watch_time
            return stall / watch if watch > 0 else float("nan")

        treatment_rate = stall_per_watch_second(treatment, treatment_bandwidth)
        control_rate = stall_per_watch_second(control, control_bandwidth)
        if np.isfinite(treatment_rate) and np.isfinite(control_rate) and control_rate > 0:
            stall_change.append(100.0 * (treatment_rate - control_rate) / control_rate)
        else:
            stall_change.append(float("nan"))

    return Fig13Result(
        bin_labels=labels,
        mean_beta=mean_beta,
        std_beta=std_beta,
        stall_change_percent=stall_change,
    )
