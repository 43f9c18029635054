"""Engagement-driven retention: does today's QoE bring the user back tomorrow?

The paper's central claim is *longitudinal*: ABR decisions change long-term
engagement, not just the current session.  This module closes that loop for
the multi-day fleet (:mod:`repro.fleet.longitudinal`): a user's simulated day
is reduced to an :class:`EngagementSummary` (watch fraction, stalls, early
exits), and a :class:`RetentionModel` maps that summary to the probability
that the user shows up again the next day.  Two variants mirror the exit-model
families of :mod:`repro.users.engagement`:

* :class:`RuleBasedRetentionModel` — interpretable rules: a base return rate,
  eroded by stalls and abandoned sessions, boosted by completed watch time,
  with a separate comeback rate for users who lapsed (did not play today).
* :class:`DataDrivenRetentionModel` — a logistic model over the summary's
  feature vector, fitted from observed ``(summary, returned)`` histories with
  :func:`fit_retention_model` (same full-batch GD as the data-driven exit
  users).

Both models are pure functions of the summary — all randomness (the actual
arrival coin flip) stays in the campaign layer, keyed per ``(seed, user,
day)`` so longitudinal runs are deterministic and sharding-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

import numpy as np


@dataclass(frozen=True)
class EngagementSummary:
    """One user's engagement outcome over one simulated day."""

    num_sessions: int
    #: Mean fraction of video duration actually watched across sessions.
    mean_watch_fraction: float
    #: Fraction of the day's sessions abandoned before the video ended.
    exit_fraction: float
    total_stall_time_s: float
    stall_count: int
    mean_bitrate_kbps: float
    total_watch_time_s: float

    def __post_init__(self) -> None:
        if self.num_sessions <= 0:
            raise ValueError("a summary needs at least one session")
        if not 0.0 <= self.exit_fraction <= 1.0:
            raise ValueError("exit_fraction must be in [0, 1]")

    def as_features(self) -> np.ndarray:
        """Feature vector for data-driven retention models.

        Features: [sessions, mean watch fraction, exit fraction, stall time
        (s), stall count, mean bitrate (Mbps), watch time (min)].
        """
        return np.asarray(
            [
                float(self.num_sessions),
                self.mean_watch_fraction,
                self.exit_fraction,
                self.total_stall_time_s,
                float(self.stall_count),
                self.mean_bitrate_kbps / 1000.0,
                self.total_watch_time_s / 60.0,
            ],
            dtype=float,
        )

    def as_payload(self) -> dict:
        """Plain-dict view (telemetry payload)."""
        return {
            "num_sessions": int(self.num_sessions),
            "mean_watch_fraction": float(self.mean_watch_fraction),
            "exit_fraction": float(self.exit_fraction),
            "total_stall_time_s": float(self.total_stall_time_s),
            "stall_count": int(self.stall_count),
            "mean_bitrate_kbps": float(self.mean_bitrate_kbps),
            "total_watch_time_s": float(self.total_watch_time_s),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "EngagementSummary":
        """Inverse of :meth:`as_payload`."""
        return cls(
            num_sessions=int(payload["num_sessions"]),
            mean_watch_fraction=float(payload["mean_watch_fraction"]),
            exit_fraction=float(payload["exit_fraction"]),
            total_stall_time_s=float(payload["total_stall_time_s"]),
            stall_count=int(payload["stall_count"]),
            mean_bitrate_kbps=float(payload["mean_bitrate_kbps"]),
            total_watch_time_s=float(payload["total_watch_time_s"]),
        )


def summarize_sessions(sessions: Iterable) -> EngagementSummary:
    """Reduce one user's :class:`~repro.analytics.logs.SessionLog` day.

    Accepts any iterable of objects exposing the session-log surface
    (``trace`` with ``watch_time``/``video_duration``, ``exited_early``,
    ``total_stall_time``, ``stall_count``).  All statistics are simple sums
    and means in session order, so identical traces produce bit-identical
    summaries regardless of backend.
    """
    sessions = list(sessions)
    if not sessions:
        raise ValueError("summarize_sessions needs at least one session")
    watch_fractions = []
    bitrates = []
    num_segments = 0
    exits = 0
    stall_time = 0.0
    stall_count = 0
    watch_time = 0.0
    for session in sessions:
        trace = session.trace
        duration = trace.video_duration
        watch_fractions.append(
            trace.watch_time / duration if duration > 0 else 0.0
        )
        if len(trace):
            bitrates.append(float(trace.segments["bitrate_kbps"].sum()))
            num_segments += len(trace)
        exits += int(trace.exited_early)
        stall_time += trace.total_stall_time
        stall_count += trace.stall_count
        watch_time += trace.watch_time
    return EngagementSummary(
        num_sessions=len(sessions),
        mean_watch_fraction=float(np.mean(watch_fractions)),
        exit_fraction=exits / len(sessions),
        total_stall_time_s=float(stall_time),
        stall_count=int(stall_count),
        mean_bitrate_kbps=float(sum(bitrates) / num_segments) if num_segments else 0.0,
        total_watch_time_s=float(watch_time),
    )


class RetentionModel(Protocol):
    """Maps a day's engagement outcome to a next-day arrival probability.

    ``summary=None`` means the user did not play today (they had already
    churned or their arrival coin came up tails); the model decides how
    likely a lapsed user is to come back.
    """

    def return_probability(self, summary: EngagementSummary | None) -> float:
        """Probability the user arrives on the next simulated day."""
        ...


@dataclass(frozen=True)
class RuleBasedRetentionModel:
    """Interpretable retention rules (the §5.2 analogue for churn).

    Starting from ``base_return``, each stall event erodes the return
    probability by ``stall_penalty`` (capped at ``max_stall_penalty``),
    abandoning sessions erodes it by up to ``exit_penalty``, and actually
    finishing videos earns back up to ``watch_bonus``.  Users who lapsed
    return with ``lapse_return`` — churn is sticky but not absorbing, so
    DAU can recover.
    """

    base_return: float = 0.88
    stall_penalty: float = 0.03
    max_stall_penalty: float = 0.35
    exit_penalty: float = 0.25
    watch_bonus: float = 0.08
    lapse_return: float = 0.25
    floor: float = 0.05
    ceiling: float = 0.995

    def __post_init__(self) -> None:
        if not 0.0 <= self.floor <= self.ceiling <= 1.0:
            raise ValueError("need 0 <= floor <= ceiling <= 1")
        if not 0.0 <= self.base_return <= 1.0 or not 0.0 <= self.lapse_return <= 1.0:
            raise ValueError("base_return and lapse_return must be in [0, 1]")

    def return_probability(self, summary: EngagementSummary | None) -> float:
        if summary is None:
            return self.lapse_return
        probability = self.base_return
        probability -= min(
            self.stall_penalty * summary.stall_count, self.max_stall_penalty
        )
        probability -= self.exit_penalty * summary.exit_fraction
        probability += self.watch_bonus * summary.mean_watch_fraction
        return float(min(max(probability, self.floor), self.ceiling))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


@dataclass(frozen=True)
class DataDrivenRetentionModel:
    """Logistic retention model fitted from observed return behaviour."""

    weights: np.ndarray
    bias: float
    feature_scale: np.ndarray
    lapse_return: float = 0.25

    def return_probability(self, summary: EngagementSummary | None) -> float:
        if summary is None:
            return self.lapse_return
        x = summary.as_features() / self.feature_scale
        return float(_sigmoid(np.asarray([x @ self.weights + self.bias]))[0])


def fit_retention_model(
    summaries: Sequence[EngagementSummary],
    returned: Sequence[bool],
    learning_rate: float = 0.2,
    epochs: int = 300,
    l2: float = 1e-3,
    lapse_return: float = 0.25,
) -> DataDrivenRetentionModel:
    """Fit a :class:`DataDrivenRetentionModel` by logistic regression.

    ``summaries`` are observed user-days; ``returned[i]`` is whether that
    user showed up the following day.  Class-reweighted full-batch gradient
    descent, mirroring :func:`repro.users.engagement.fit_data_driven_user`.
    """
    if len(summaries) != len(returned):
        raise ValueError("summaries and returned must have the same length")
    if not summaries:
        raise ValueError("need at least one observation")
    features = np.stack([s.as_features() for s in summaries])
    labels = np.asarray(returned, dtype=float)
    # Constant columns carry no signal; scale them by their magnitude (not a
    # tiny epsilon) so they stay O(1) instead of exploding the gradients.
    std = np.std(features, axis=0)
    scale = np.where(
        std > 1e-9, std, np.maximum(np.abs(features).max(axis=0), 1.0)
    )
    x = features / scale
    n, d = x.shape
    weights = np.zeros(d)
    bias = 0.0
    positive = max(labels.sum(), 1.0)
    negative = max(n - labels.sum(), 1.0)
    sample_weight = np.where(labels > 0.5, n / (2.0 * positive), n / (2.0 * negative))
    for _ in range(epochs):
        predictions = _sigmoid(x @ weights + bias)
        error = (predictions - labels) * sample_weight
        grad_w = x.T @ error / n + l2 * weights
        grad_b = float(np.mean(error))
        weights -= learning_rate * grad_w
        bias -= learning_rate * grad_b
    return DataDrivenRetentionModel(
        weights=weights, bias=float(bias), feature_scale=scale, lapse_return=lapse_return
    )
