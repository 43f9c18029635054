"""Shared scaffolding for the experiment drivers.

All experiments run on the same synthetic substrate: a heterogeneous user
population, a short-video library, a synthetic production-log corpus and a
trained exit-rate predictor.  This module centralises those defaults (and a
tiny in-process cache so benchmark runs do not regenerate the corpus for
every figure).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytics.logs import LogCollection
from repro.core.exit_predictor import ExitRatePredictor, train_and_evaluate
from repro.core.statistics_model import OverallStatisticsModel
from repro.datasets import (
    DatasetComposition,
    LogGenerationConfig,
    build_exit_dataset,
    generate_production_logs,
)
from repro.net.topology import get_topology
from repro.sim.video import VideoLibrary
from repro.users.population import UserPopulation


@dataclass(frozen=True)
class SubstrateConfig:
    """Shared knobs of the synthetic substrate used by the experiments."""

    num_users: int = 160
    days: int = 2
    sessions_per_user_per_day: int = 4
    num_videos: int = 8
    #: Median of the population bandwidth distribution.  The default keeps
    #: roughly 10–15% of users below the top encoding bitrate, matching the
    #: production picture of Figure 2(a).
    bandwidth_median_kbps: float = 12000.0
    #: Extra log-generation days restricted to bandwidth-constrained users,
    #: used only to enlarge the stall-event training corpus (stalls are rare
    #: platform-wide, exactly as in the paper).
    training_oversample_days: int = 8
    training_oversample_threshold_kbps: float = 4500.0
    seed: int = 0
    #: Shared-bottleneck topology name for substrate log generation: the
    #: synthetic corpus is produced by sessions fair-sharing edge-link
    #: capacity, so its stalls and exits carry emergent congestion.
    #: ``None`` keeps the classic uncoupled traces.
    network: str | None = None

    def __post_init__(self) -> None:
        if self.num_users <= 0 or self.days <= 0:
            raise ValueError("num_users and days must be positive")
        if self.training_oversample_days < 0:
            raise ValueError("training_oversample_days must be non-negative")
        get_topology(self.network)  # fail fast on unknown topology names


@dataclass
class Substrate:
    """Population + videos + logs + trained predictor, built once per config."""

    config: SubstrateConfig
    population: UserPopulation
    library: VideoLibrary
    logs: LogCollection
    training_logs: LogCollection
    statistics_model: OverallStatisticsModel
    predictor: ExitRatePredictor


_CACHE: dict[SubstrateConfig, Substrate] = {}


def build_substrate(config: SubstrateConfig | None = None, train_epochs: int = 10) -> Substrate:
    """Build (or fetch from cache) the shared experiment substrate."""
    config = config or SubstrateConfig()
    if config in _CACHE:
        return _CACHE[config]
    population = UserPopulation.generate(
        config.num_users,
        seed=config.seed,
        bandwidth_median_kbps=config.bandwidth_median_kbps,
    )
    library = VideoLibrary(num_videos=config.num_videos, seed=config.seed + 1)
    logs = generate_production_logs(
        population,
        library,
        LogGenerationConfig(
            days=config.days,
            sessions_per_user_per_day=config.sessions_per_user_per_day,
            seed=config.seed + 2,
            network=config.network,
        ),
    ).logs
    # Stall events are rare platform-wide, so the predictor's training corpus
    # additionally oversamples the bandwidth-constrained long tail (the same
    # users the paper's 100k stall-event entries inevitably come from).
    training_logs = logs
    constrained = population.low_bandwidth_users(config.training_oversample_threshold_kbps)
    if config.training_oversample_days > 0 and constrained:
        extra_logs = generate_production_logs(
            UserPopulation(constrained),
            library,
            LogGenerationConfig(
                days=config.training_oversample_days,
                sessions_per_user_per_day=config.sessions_per_user_per_day,
                seed=config.seed + 3,
                network=config.network,
            ),
        ).logs
        training_logs = logs.extend(extra_logs)
    statistics_model = OverallStatisticsModel.fit(logs, library.ladder.num_levels)
    dataset = build_exit_dataset(training_logs, DatasetComposition.STALL)
    predictor, _evaluation = train_and_evaluate(
        dataset,
        epochs=train_epochs,
        seed=config.seed,
        statistics_model=statistics_model,
    )
    substrate = Substrate(
        config=config,
        population=population,
        library=library,
        logs=logs,
        training_logs=training_logs,
        statistics_model=statistics_model,
        predictor=predictor,
    )
    _CACHE[config] = substrate
    return substrate


def empirical_cdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values and their empirical CDF (both 1-D arrays)."""
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        raise ValueError("empirical_cdf needs at least one value")
    return values, np.arange(1, values.size + 1) / values.size


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Simple fixed-width table formatting for benchmark output."""
    all_rows = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in all_rows) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(all_rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
