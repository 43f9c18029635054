"""Hybrid exit-rate predictor (Equation 4).

``R_exit = NN(Stall) + OS(Quality, Smoothness)`` when the segment stalled,
``OS(Quality, Smoothness)`` otherwise.  The neural part is the branched
1D-CNN of Figure 7 trained on the stall-event dataset with balanced
undersampling (§3.3); the OS part is the population-level
:class:`~repro.core.statistics_model.OverallStatisticsModel`.

:class:`BatchedExitPredictor` evaluates Equation 4 for many decision points
at once — the OS baseline vectorised and a *single* NN forward pass over the
stalled subset — which is how the Monte-Carlo evaluator scores every alive
virtual-playback rollout of a step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.statistics_model import OverallStatisticsModel
from repro.datasets.stall_dataset import ExitDataset, NUM_FEATURES, WINDOW_LENGTH
from repro.nn.metrics import classification_report
from repro.nn.network import MultiBranchNetwork
from repro.nn.sampling import balanced_undersample, stratified_split


@dataclass(frozen=True)
class PredictorEvaluation:
    """Headline metrics of the predictor on a held-out set."""

    accuracy: float
    precision: float
    recall: float
    f1: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view."""
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


class ExitRatePredictor:
    """Hybrid stall-NN + overall-statistics exit-rate predictor."""

    def __init__(
        self,
        statistics_model: OverallStatisticsModel | None = None,
        channels: int = 64,
        kernel_size: int = 4,
        hidden: int = 64,
        seed: int = 0,
    ) -> None:
        self.statistics_model = statistics_model or OverallStatisticsModel()
        self.network = MultiBranchNetwork(
            num_features=NUM_FEATURES,
            length=WINDOW_LENGTH,
            channels=channels,
            kernel_size=kernel_size,
            hidden=hidden,
            num_classes=2,
            seed=seed,
        )

    def train(
        self,
        dataset: ExitDataset,
        balanced: bool = True,
        epochs: int = 12,
        batch_size: int = 64,
        learning_rate: float = 1e-3,
        seed: int = 0,
    ) -> list[float]:
        """Train the stall network; returns per-epoch losses."""
        features, labels = dataset.features, dataset.labels
        if balanced:
            features, labels = balanced_undersample(features, labels, seed=seed)
        losses = self.network.fit(
            features,
            labels,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            seed=seed,
        )
        return losses

    def stall_exit_probability(self, feature_matrix: np.ndarray) -> float:
        """NN(Stall): exit probability for one 5×8 feature matrix."""
        matrix = np.asarray(feature_matrix, dtype=float)
        if matrix.shape != (NUM_FEATURES, WINDOW_LENGTH):
            raise ValueError(
                f"expected a ({NUM_FEATURES}, {WINDOW_LENGTH}) matrix, got {matrix.shape}"
            )
        probabilities = self.network.predict_proba(matrix[None, :, :])
        return float(probabilities[0, 1])

    def predict(
        self,
        feature_matrix: np.ndarray,
        level: int,
        switch_magnitude: int,
        stalled: bool,
    ) -> float:
        """Equation 4: hybrid segment-level exit probability."""
        baseline = self.statistics_model.predict(level, switch_magnitude)
        if not stalled:
            return baseline
        return float(np.clip(baseline + self.stall_exit_probability(feature_matrix), 0.0, 1.0))

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """NN class probabilities for a batch of feature matrices (n, 5, 8)."""
        return self.network.predict_proba(np.asarray(features, dtype=float))

    def evaluate(self, features: np.ndarray, labels: np.ndarray) -> PredictorEvaluation:
        """Accuracy / precision / recall / F1 of the NN on a labelled set."""
        predictions = self.network.predict(np.asarray(features, dtype=float))
        report = classification_report(np.asarray(labels, dtype=int), predictions)
        return PredictorEvaluation(**report)


class BatchedExitPredictor:
    """Vectorised view of a hybrid exit-rate predictor (Equation 4, batched).

    Outputs match :meth:`ExitRatePredictor.predict` row for row: the OS
    baseline exactly (both index the model's table), the NN term to float64
    round-off (BLAS may take another kernel, and summation order, for one row
    than for a batch).
    """

    def __init__(self, predictor: ExitRatePredictor) -> None:
        self.predictor = predictor

    def baseline_many(
        self, levels: np.ndarray, switch_magnitudes: np.ndarray
    ) -> np.ndarray:
        """Vectorised ``OS(Quality, Smoothness)`` for ``n`` decision points."""
        return self.predictor.statistics_model.predict_many(levels, switch_magnitudes)

    def predict_many(
        self,
        feature_matrices: np.ndarray,
        levels: np.ndarray,
        switch_magnitudes: np.ndarray,
        stalled: np.ndarray,
    ) -> np.ndarray:
        """Equation 4 for a batch: hybrid exit probability per decision point.

        Parameters
        ----------
        feature_matrices:
            ``(n, 5, 8)`` stack of per-sample feature matrices.  Rows whose
            ``stalled`` flag is false are never fed to the network, so their
            matrix content is irrelevant (zeros are fine).
        levels / switch_magnitudes / stalled:
            Length-``n`` vectors describing each decision point.
        """
        stalled = np.asarray(stalled, dtype=bool)
        probabilities = self.baseline_many(levels, switch_magnitudes)
        stalled_rows = stalled.nonzero()[0]
        if stalled_rows.size:
            matrices = np.asarray(feature_matrices, dtype=float)
            if matrices.ndim != 3 or matrices.shape[1:] != (NUM_FEATURES, WINDOW_LENGTH):
                raise ValueError(
                    f"expected (n, {NUM_FEATURES}, {WINDOW_LENGTH}) matrices, "
                    f"got {matrices.shape}"
                )
            obs.counter_add("nn.forwards")
            obs.counter_add("nn.rows", int(stalled_rows.size))
            obs.observe("nn.batch_size", int(stalled_rows.size))
            with obs.span("nn.forward"):
                stall_probabilities = self.predictor.predict_batch(
                    matrices[stalled_rows]
                )[:, 1]
            probabilities[stalled_rows] = np.clip(
                probabilities[stalled_rows] + stall_probabilities, 0.0, 1.0
            )
        return probabilities


def train_and_evaluate(
    dataset: ExitDataset,
    balanced: bool = True,
    test_fraction: float = 0.2,
    epochs: int = 12,
    seed: int = 0,
    statistics_model: OverallStatisticsModel | None = None,
) -> tuple[ExitRatePredictor, PredictorEvaluation]:
    """80/20 stratified split, train on the training part, evaluate on the rest.

    This is the experimental protocol of §5.1 (Figure 9): identical dataset
    partitioning and sampling across dataset compositions.
    """
    x_train, y_train, x_test, y_test = stratified_split(
        dataset.features, dataset.labels, test_fraction=test_fraction, seed=seed
    )
    predictor = ExitRatePredictor(statistics_model=statistics_model, seed=seed)
    train_subset = ExitDataset(
        features=x_train, labels=y_train, composition=dataset.composition
    )
    predictor.train(train_subset, balanced=balanced, epochs=epochs, seed=seed)
    evaluation = predictor.evaluate(x_test, y_test)
    return predictor, evaluation
