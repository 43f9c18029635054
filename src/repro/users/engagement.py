"""User engagement (exit) models.

Every class here implements the :class:`repro.sim.session.ExitModel`
interface: ``exit_probability(observation) -> float`` plus ``reset()``.  Four
families are provided:

* :class:`BaselineExitModel` — content-driven exits unrelated to QoS.  These
  are the "random exit events unrelated to QoS metrics" that dominate the ALL
  dataset in Figure 9(a) and they also produce the declining hazard with watch
  time seen in Figure 4(d).
* :class:`QoSAwareExitModel` — the behavioural model used to synthesise
  production logs: baseline hazard + universal quality/smoothness offsets (at
  the 1e-3 / 1e-2 magnitudes of Takeaway 1) + the user's personal stall
  response (1e-1 magnitude) from a
  :class:`~repro.users.perception.StallSensitivityProfile`.
* :class:`RuleBasedUser` — the deterministic exit rules of §5.2 (exit when
  cumulative stall time or stall count crosses a threshold).
* :class:`DataDrivenUser` — a per-user logistic exit model fitted from that
  user's observed engagement history (the paper's data-driven modelling).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.session import ExitObservation
from repro.sim.vector import row_columns
from repro.users.perception import StallSensitivityProfile

#: Universal exit-rate offsets per quality tier (index = ladder level, lowest
#: first).  Magnitude ~1e-3 per Takeaway 1; lower quality → slightly higher
#: exit rate, with a diminishing gap between the top two tiers (Figure 4a).
QUALITY_TIER_EXIT_OFFSETS: tuple[float, ...] = (0.006, 0.004, 0.001, 0.0)

#: Universal exit-rate penalty per unit of |quality switch| (magnitude ~1e-2).
SWITCH_EXIT_PENALTY: float = 0.008
#: Extra penalty applied to downward switches (Figure 4b: degradation slightly
#: worse than enhancement).
DOWNWARD_SWITCH_EXTRA: float = 0.004


@dataclass
class BaselineExitModel:
    """Content-driven exits independent of QoS.

    The per-segment hazard starts at ``base_hazard`` and decays towards
    ``floor_hazard`` as watch time accumulates — users who have stayed a while
    are committed to the video (Figure 4d, "Beyond 20s").
    """

    base_hazard: float = 0.02
    floor_hazard: float = 0.005
    decay_time_s: float = 30.0

    def __post_init__(self) -> None:
        if not 0 <= self.floor_hazard <= self.base_hazard <= 1:
            raise ValueError("need 0 <= floor_hazard <= base_hazard <= 1")
        if self.decay_time_s <= 0:
            raise ValueError("decay_time_s must be positive")

    def exit_probability(self, observation: ExitObservation) -> float:
        """Content-driven hazard for this segment."""
        decay = float(np.exp(-observation.watch_time / self.decay_time_s))
        return self.floor_hazard + (self.base_hazard - self.floor_hazard) * decay

    def reset(self) -> None:
        """Stateless — nothing to reset."""

    @classmethod
    def vector_exit_kernel(cls, models):
        """Batched :meth:`exit_probability` over a struct-of-arrays step view.

        Returns ``kernel(view) -> probabilities`` where ``view`` is a
        :class:`repro.sim.vector.ExitStepView` over the model rows it names
        (``view.rows``, ``None`` for the first ``len`` models).  The
        hazard expression is evaluated elementwise in the same operation
        order as the scalar method, so outputs match bit-for-bit.
        """
        base = np.asarray([m.base_hazard for m in models], dtype=float)
        floor = np.asarray([m.floor_hazard for m in models], dtype=float)
        decay_time = np.asarray([m.decay_time_s for m in models], dtype=float)
        at = row_columns(base, floor, decay_time)

        def kernel(view) -> np.ndarray:
            row_base, row_floor, row_decay_time = at(view.rows, view.level.size)
            decay = np.exp(-view.watch_time / row_decay_time)
            return row_floor + (row_base - row_floor) * decay

        return kernel


@dataclass
class QoSAwareExitModel:
    """Behavioural exit model combining content, quality, smoothness and stall.

    This is the generative model behind the synthetic production logs: it
    reproduces the hierarchical influence magnitudes of Takeaway 1
    (quality ≈ 1e-3, smoothness ≈ 1e-2, stall ≈ 1e-1) on top of a content
    baseline, with the stall response personalised through ``profile``.
    """

    profile: StallSensitivityProfile = field(default_factory=StallSensitivityProfile)
    baseline: BaselineExitModel = field(default_factory=BaselineExitModel)
    quality_offsets: tuple[float, ...] = QUALITY_TIER_EXIT_OFFSETS
    switch_penalty: float = SWITCH_EXIT_PENALTY
    downward_switch_extra: float = DOWNWARD_SWITCH_EXTRA
    engagement_stall_discount: float = 0.85
    engagement_time_s: float = 20.0

    def exit_probability(self, observation: ExitObservation) -> float:
        """Combine all exit drivers into one per-segment probability."""
        probability = self.baseline.exit_probability(observation)

        level = min(observation.level, len(self.quality_offsets) - 1)
        probability += self.quality_offsets[level]

        switch = observation.switch_magnitude
        if switch != 0:
            probability += self.switch_penalty * min(abs(switch), 3)
            if switch < 0:
                probability += self.downward_switch_extra

        if observation.stall_time > 1e-12:
            stall_probability = self.profile.stall_exit_probability(
                observation.cumulative_stall_time, observation.stall_count
            )
            # Long-engaged viewers tolerate stalls better (Figure 4d).
            if observation.watch_time > self.engagement_time_s:
                stall_probability *= self.engagement_stall_discount
            # Higher quality raises expectations, shrinking stall tolerance.
            top_level = len(self.quality_offsets) - 1
            if observation.level >= top_level:
                stall_probability *= 1.15
            probability += stall_probability

        return float(min(max(probability, 0.0), 1.0))

    def reset(self) -> None:
        """Stateless — nothing to reset."""

    @classmethod
    def vector_exit_kernel(cls, models):
        """Batched :meth:`exit_probability` over a struct-of-arrays step view.

        The content/quality/smoothness terms are pure array math in the same
        operation order as the scalar method.  The stall response — rare by
        construction (stalls are the long-tail event the paper studies) — is
        delegated to each stalled row's own
        :meth:`~repro.users.perception.StallSensitivityProfile.stall_exit_probability`
        in a masked scalar loop, so the per-user response curves (and their
        ``math.exp`` rounding) are reproduced exactly.
        """
        base = np.asarray([m.baseline.base_hazard for m in models], dtype=float)
        floor = np.asarray([m.baseline.floor_hazard for m in models], dtype=float)
        decay_time = np.asarray([m.baseline.decay_time_s for m in models], dtype=float)
        switch_penalty = np.asarray([m.switch_penalty for m in models], dtype=float)
        downward_extra = np.asarray(
            [m.downward_switch_extra for m in models], dtype=float
        )
        num_offsets = np.asarray(
            [len(m.quality_offsets) for m in models], dtype=int
        )
        offsets = np.zeros((len(models), int(num_offsets.max())))
        for row, model in enumerate(models):
            offsets[row, : len(model.quality_offsets)] = model.quality_offsets
        at = row_columns(
            base,
            floor,
            decay_time,
            switch_penalty,
            downward_extra,
            num_offsets,
            np.arange(len(models)),
        )

        def kernel(view) -> np.ndarray:
            (
                row_base,
                row_floor,
                row_decay_time,
                row_switch_penalty,
                row_downward_extra,
                row_num_offsets,
                model_index,
            ) = at(view.rows, view.level.size)
            decay = np.exp(-view.watch_time / row_decay_time)
            probability = row_floor + (row_base - row_floor) * decay
            level = np.minimum(view.level, row_num_offsets - 1)
            probability = probability + offsets[model_index, level]
            switch = np.where(
                view.previous_level < 0, 0, view.level - view.previous_level
            )
            probability = probability + np.where(
                switch != 0, row_switch_penalty * np.minimum(np.abs(switch), 3), 0.0
            )
            probability = probability + np.where(switch < 0, row_downward_extra, 0.0)
            stalled = view.stalled if view.active is None else view.active & view.stalled
            rows = np.flatnonzero(stalled)
            stall_probabilities = []
            for model_id, cumulative, count, watch_time, level in zip(
                model_index[rows].tolist(),
                view.cumulative_stall_time[rows].tolist(),
                view.stall_count[rows].tolist(),
                view.watch_time[rows].tolist(),
                view.level[rows].tolist(),
            ):
                model = models[model_id]
                stall_probability = model.profile.stall_exit_probability(
                    cumulative, count
                )
                if watch_time > model.engagement_time_s:
                    stall_probability *= model.engagement_stall_discount
                if level >= len(model.quality_offsets) - 1:
                    stall_probability *= 1.15
                stall_probabilities.append(stall_probability)
            probability[rows] += stall_probabilities
            return np.minimum(np.maximum(probability, 0.0), 1.0)

        return kernel


@dataclass
class RuleBasedUser:
    """Deterministic exit rules of §5.2: thresholds on stall time and count.

    The user exits (probability 1) the moment the session's cumulative stall
    time reaches ``stall_time_threshold_s`` seconds or the number of stall
    events reaches ``stall_count_threshold``; otherwise the exit probability
    is 0.  Thresholds between 2 and 9 generate the 64 engagement rules of the
    rule-based simulation study.
    """

    stall_time_threshold_s: float = 4.0
    stall_count_threshold: int = 4

    def __post_init__(self) -> None:
        if self.stall_time_threshold_s <= 0:
            raise ValueError("stall_time_threshold_s must be positive")
        if self.stall_count_threshold <= 0:
            raise ValueError("stall_count_threshold must be positive")

    def exit_probability(self, observation: ExitObservation) -> float:
        """1.0 once either threshold is crossed, else 0.0."""
        if observation.cumulative_stall_time >= self.stall_time_threshold_s:
            return 1.0
        if observation.stall_count >= self.stall_count_threshold:
            return 1.0
        return 0.0

    def reset(self) -> None:
        """Stateless — nothing to reset."""

    @classmethod
    def vector_exit_kernel(cls, models):
        """Batched :meth:`exit_probability`: two threshold comparisons."""
        time_threshold = np.asarray(
            [m.stall_time_threshold_s for m in models], dtype=float
        )
        count_threshold = np.asarray(
            [m.stall_count_threshold for m in models], dtype=int
        )

        at = row_columns(time_threshold, count_threshold)

        def kernel(view) -> np.ndarray:
            row_time, row_count = at(view.rows, view.level.size)
            crossed = (view.cumulative_stall_time >= row_time) | (
                view.stall_count >= row_count
            )
            return np.where(crossed, 1.0, 0.0)

        return kernel


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


def observation_features(observation: ExitObservation) -> np.ndarray:
    """Feature vector used by :class:`DataDrivenUser`.

    Features: [segment stall time, cumulative stall time, stall count,
    watch time (min), bitrate (Mbps), |switch magnitude|, buffer (s)].
    """
    return np.asarray(
        [
            observation.stall_time,
            observation.cumulative_stall_time,
            float(observation.stall_count),
            observation.watch_time / 60.0,
            observation.bitrate_kbps / 1000.0,
            float(abs(observation.switch_magnitude)),
            observation.buffer,
        ],
        dtype=float,
    )


@dataclass
class DataDrivenUser:
    """Per-user logistic exit model fitted from engagement history."""

    weights: np.ndarray
    bias: float
    feature_scale: np.ndarray

    def exit_probability(self, observation: ExitObservation) -> float:
        """Logistic exit probability for this observation."""
        x = observation_features(observation) / self.feature_scale
        return float(_sigmoid(np.asarray([x @ self.weights + self.bias]))[0])

    def reset(self) -> None:
        """Stateless — nothing to reset."""


def features_from_segments(segments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Observation features and exit labels from a segment array.

    Mirrors :func:`observation_features` for the rows of
    :attr:`~repro.sim.session.PlaybackTrace.segments` (each row's switch is
    against the row before it) so per-user exit models can be fitted
    directly from logged playback traces (the paper's data-driven user
    modelling, §5.2).
    """
    if not len(segments):
        raise ValueError("need at least one segment record")
    levels = segments["level"]
    features = np.column_stack(
        [
            segments["stall_time"],
            segments["cumulative_stall_time"],
            segments["stall_count"],
            segments["watch_time"] / 60.0,
            segments["bitrate_kbps"] / 1000.0,
            np.abs(np.diff(levels, prepend=levels[0])),
            segments["buffer_after"],
        ]
    )
    return features, segments["exited"].astype(int)


def fit_data_driven_user(
    features: np.ndarray,
    labels: np.ndarray,
    learning_rate: float = 0.2,
    epochs: int = 300,
    l2: float = 1e-3,
) -> DataDrivenUser:
    """Fit a :class:`DataDrivenUser` by logistic regression (full-batch GD).

    ``features`` has shape (n, 7) (see :func:`observation_features`);
    ``labels`` is 0/1 with 1 meaning the user exited after that segment.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError("features must be (n, d) with matching labels")
    if features.shape[0] == 0:
        raise ValueError("need at least one sample")

    scale = np.maximum(np.std(features, axis=0), 1e-6)
    x = features / scale
    n, d = x.shape
    weights = np.zeros(d)
    bias = 0.0
    # Reweight classes so rare exits are not ignored.
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

    return DataDrivenUser(weights=weights, bias=float(bias), feature_scale=scale)
