"""Figure 8 — trade-offs between accumulated stall counts and model recall.

(a) CDF of per-user daily stall counts, split by bandwidth bin: stalls are
rare except in the low-bandwidth long tail, so waiting for many stall events
before activating personalization would take weeks.
(b) Predictor recall as a function of how many stall events the user had
already accumulated: recall improves with history, with a visible step
between one and two events — the paper's justification for the trigger
threshold of two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exit_predictor import ExitRatePredictor
from repro.datasets import DatasetComposition, build_exit_dataset
from repro.experiments.common import (
    Substrate,
    SubstrateConfig,
    build_substrate,
    empirical_cdf,
)
from repro.nn.metrics import recall_score

#: Bandwidth bin edges (kbps) for panel (a).
BANDWIDTH_BIN_EDGES_KBPS: tuple[float, ...] = (0, 2000, 4000, 6000, 8000, 10000, 1e9)


@dataclass
class Fig08Result:
    """Per-bin stall-count CDFs and the recall-vs-history curve."""

    stall_count_cdfs: dict[str, tuple[np.ndarray, np.ndarray]]
    history_counts: list[int]
    recall_by_history: list[float]


def run(
    substrate: Substrate | None = None,
    max_history: int = 8,
    train_epochs: int = 10,
    seed: int = 0,
) -> Fig08Result:
    """Compute both panels from the shared substrate."""
    substrate = substrate or build_substrate(SubstrateConfig())
    logs = substrate.logs

    cdfs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for label, counts in logs.daily_stall_counts_by_bandwidth(BANDWIDTH_BIN_EDGES_KBPS).items():
        if counts:
            cdfs[label] = empirical_cdf(np.asarray(counts, dtype=float))

    # Panel (b): train on one half of the users, measure recall on the other
    # half bucketed by how much stall history the user had at each sample.
    # The training corpus (long-tail oversampled) is used so both halves have
    # enough stall events.
    dataset = build_exit_dataset(substrate.training_logs, DatasetComposition.STALL)
    assert dataset.stall_ordinals is not None
    users = sorted(set(dataset.user_ids))
    rng = np.random.default_rng(seed)
    rng.shuffle(users)
    train_users = set(users[: len(users) // 2])
    train_idx = np.asarray([i for i, u in enumerate(dataset.user_ids) if u in train_users])
    test_idx = np.asarray([i for i, u in enumerate(dataset.user_ids) if u not in train_users])

    predictor = ExitRatePredictor(statistics_model=substrate.statistics_model, seed=seed)
    predictor.train(dataset.subset(train_idx), balanced=True, epochs=train_epochs, seed=seed)

    test = dataset.subset(test_idx)
    assert test.stall_ordinals is not None
    predictions = predictor.network.predict(test.features)
    history_counts = list(range(1, max_history + 1))
    recalls: list[float] = []
    for k in history_counts:
        mask = test.stall_ordinals >= (k - 1)
        if mask.sum() == 0 or test.labels[mask].sum() == 0:
            recalls.append(float("nan"))
            continue
        recalls.append(recall_score(test.labels[mask], predictions[mask]))
    return Fig08Result(
        stall_count_cdfs=cdfs,
        history_counts=history_counts,
        recall_by_history=recalls,
    )
