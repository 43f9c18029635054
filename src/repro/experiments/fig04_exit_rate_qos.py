"""Figure 4 — the impact of QoS metrics on exit rates.

The headline "Takeaway 1" of the paper: video quality, smoothness and stall
time influence segment-level exit rates at the 1e-3, 1e-2 and 1e-1 orders of
magnitude respectively, and stall interacts with engagement (compound
effects).  The driver reproduces all four panels from the synthetic log
corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import Substrate, SubstrateConfig, build_substrate

#: Cumulative-stall-time bin edges (seconds) for panels (c)/(d).
STALL_BINS: tuple[float, ...] = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 14.0, 20.0)
#: Switch granularities examined in panel (b).
SWITCH_GRANULARITIES: tuple[int, ...] = (-2, -1, 0, 1, 2)


@dataclass
class Fig04Result:
    """Exit-rate series for the four panels plus the influence magnitudes."""

    tier_names: list[str]
    exit_rate_by_tier: np.ndarray
    switch_granularities: list[int]
    exit_rate_by_switch: dict[int, float]
    stall_bins_s: list[float]
    exit_rate_by_stall: np.ndarray
    exit_rate_by_stall_engaged: np.ndarray
    exit_rate_by_stall_top_tier: np.ndarray
    exit_rate_by_stall_multiple: np.ndarray

    @property
    def quality_magnitude(self) -> float:
        """Absolute exit-rate spread across quality tiers."""
        values = self.exit_rate_by_tier[np.isfinite(self.exit_rate_by_tier)]
        return float(values.max() - values.min()) if values.size else float("nan")

    @property
    def smoothness_magnitude(self) -> float:
        """Exit-rate spread between switching and non-switching segments."""
        values = [v for v in self.exit_rate_by_switch.values() if np.isfinite(v)]
        return float(max(values) - min(values)) if values else float("nan")

    @property
    def stall_magnitude(self) -> float:
        """Exit-rate spread across the stall-time bins."""
        values = self.exit_rate_by_stall[np.isfinite(self.exit_rate_by_stall)]
        return float(values.max() - values.min()) if values.size else float("nan")


def run(substrate: Substrate | None = None) -> Fig04Result:
    """Aggregate segment-level exit rates against the three QoS dimensions.

    The analysis runs on the long-tail-oversampled corpus (the paper's own
    analysis corpus is explicitly the trajectories that contain the QoS events
    of interest); platform-wide stalls are too rare for stable bin estimates.
    """
    substrate = substrate or build_substrate(SubstrateConfig())
    logs = substrate.training_logs
    ladder = substrate.library.ladder
    top_level = ladder.num_levels - 1

    # Panels (a)/(b) condition on non-stalled segments so the (much larger)
    # stall effect does not confound the quality and smoothness magnitudes.
    exit_rate_by_tier, _overall = logs.non_stall_exit_rates(ladder.num_levels)
    return Fig04Result(
        tier_names=[ladder.tier_name(i) for i in range(ladder.num_levels)],
        exit_rate_by_tier=exit_rate_by_tier,
        switch_granularities=list(SWITCH_GRANULARITIES),
        exit_rate_by_switch=logs.exit_rate_by_switch(SWITCH_GRANULARITIES),
        stall_bins_s=list(STALL_BINS),
        exit_rate_by_stall=logs.exit_rate_by_stall_time(STALL_BINS),
        exit_rate_by_stall_engaged=logs.exit_rate_by_stall_time(
            STALL_BINS, segment_filter=lambda s: s["watch_time"] > 20.0
        ),
        exit_rate_by_stall_top_tier=logs.exit_rate_by_stall_time(
            STALL_BINS, segment_filter=lambda s: s["level"] == top_level
        ),
        exit_rate_by_stall_multiple=logs.exit_rate_by_stall_time(
            STALL_BINS, segment_filter=lambda s: s["stall_count"] >= 2
        ),
    )
