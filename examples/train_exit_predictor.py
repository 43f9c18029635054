"""Train the hybrid exit-rate predictor from synthetic production logs.

Pipeline (mirrors §3.3 of the paper): generate a heterogeneous user
population, simulate production playback logs, build the stall-event dataset,
train the branched 1D-CNN with balanced sampling, and report accuracy /
precision / recall / F1 on the held-out split — also comparing against the
ALL-segments dataset composition (Figure 9a).

Run with ``python examples/train_exit_predictor.py``.
"""

from __future__ import annotations

from repro.core.exit_predictor import train_and_evaluate
from repro.core.statistics_model import OverallStatisticsModel
from repro.datasets import (
    DatasetComposition,
    LogGenerationConfig,
    build_exit_dataset,
    generate_production_logs,
)
from repro.sim import VideoLibrary
from repro.users import UserPopulation


def main() -> None:
    population = UserPopulation.generate(120, seed=0, bandwidth_median_kbps=4000)
    library = VideoLibrary(num_videos=8, seed=1)
    print(f"simulating {len(population)} users ...")
    logs = generate_production_logs(
        population,
        library,
        LogGenerationConfig(days=3, sessions_per_user_per_day=5, seed=2),
    ).logs
    print(f"generated {len(logs)} playback sessions")

    statistics_model = OverallStatisticsModel.fit(logs, library.ladder.num_levels)
    print("overall-statistics exit rates per tier:", statistics_model.level_rates.round(4))

    for composition in (DatasetComposition.ALL, DatasetComposition.STALL):
        dataset = build_exit_dataset(logs, composition)
        predictor, evaluation = train_and_evaluate(
            dataset, epochs=12, seed=0, statistics_model=statistics_model
        )
        print(
            f"{composition.value:>5} dataset: {len(dataset)} samples "
            f"(exit fraction {dataset.exit_fraction:.2f}) -> "
            f"acc {evaluation.accuracy:.3f}, prec {evaluation.precision:.3f}, "
            f"recall {evaluation.recall:.3f}, f1 {evaluation.f1:.3f}"
        )

    print("done — the stall-only dataset isolates QoS-driven exits (Takeaway 1).")


if __name__ == "__main__":
    main()
