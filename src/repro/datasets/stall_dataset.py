"""Exit-rate-predictor datasets (§3.3).

Each training sample is a 5×8 feature matrix built from the last eight
segments before a decision point, matching Figure 7:

* row 0 — bitrate (Mbps) of the last eight segments;
* row 1 — throughput (Mbps) of the last eight downloads;
* row 2 — cumulative session stall time (seconds) at each of the last eight
  segments ("past stall time");
* row 3 — segments elapsed since the previous stall ("stall interval");
* row 4 — the user's personal tolerance estimate: the average cumulative
  stall time at which they exited in the past, or — while they have never
  exited on a stall — the largest cumulative stall they are known to have
  sat through.  This is the long-term engagement state derived from the
  user's stall / stall-exit history that personalises the predictor.

The label is 1 when the user exited at that segment or the next one (the same
"exit at the current or next video segment" attribution the paper uses for
stall-exit rates in §5.5), 0 otherwise.  Three dataset compositions mirror
Figure 9(a): ``ALL`` keeps every segment, ``EVENT`` keeps segments with a
stall or a quality switch, ``STALL`` keeps only stalled segments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.analytics.logs import LogCollection

WINDOW_LENGTH = 8
NUM_FEATURES = 5

_BITRATE_SCALE = 1000.0  # kbps -> Mbps
_THROUGHPUT_SCALE = 1000.0
_STALL_CUMULATIVE_SCALE = 10.0
_RECENCY_SCALE = 16.0
_LONG_TERM_SCALE = 512.0
#: Tolerance prior (seconds) used until a user has any stall-exit history.
DEFAULT_TOLERANCE_PRIOR_S = 4.0


def estimate_tolerance(
    stall_exit_time_sum: float,
    stall_exit_count: int,
    max_survived_stall_s: float,
    prior_s: float = DEFAULT_TOLERANCE_PRIOR_S,
) -> float:
    """Personal stall-tolerance estimate from a user's engagement history.

    Users who have exited on stalls before are summarised by the average
    cumulative stall time at those exits; users who never have are summarised
    by the largest cumulative stall they are known to have tolerated (at least
    the population prior).
    """
    if stall_exit_count > 0:
        return stall_exit_time_sum / stall_exit_count
    return max(max_survived_stall_s, prior_s)


class DatasetComposition(str, enum.Enum):
    """Which segments become training samples (Figure 9a)."""

    ALL = "all"
    EVENT = "event"
    STALL = "stall"


@dataclass(frozen=True)
class ExitDataset:
    """Feature/label matrices for the exit-rate predictor.

    ``user_ids`` and ``stall_ordinals`` are optional per-sample metadata:
    the user a sample came from, and how many stall events that user had
    already accumulated before it (used by the trigger-threshold analysis of
    Figure 8b).
    """

    features: np.ndarray  # (n, NUM_FEATURES, WINDOW_LENGTH)
    labels: np.ndarray  # (n,), 1 = exit
    composition: DatasetComposition
    user_ids: tuple[str, ...] = ()
    stall_ordinals: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.features.ndim != 3 or self.features.shape[1:] != (NUM_FEATURES, WINDOW_LENGTH):
            raise ValueError(
                f"features must be (n, {NUM_FEATURES}, {WINDOW_LENGTH}), got {self.features.shape}"
            )
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with features")
        if self.user_ids and len(self.user_ids) != self.features.shape[0]:
            raise ValueError("user_ids must align with features")
        if self.stall_ordinals is not None and self.stall_ordinals.shape != self.labels.shape:
            raise ValueError("stall_ordinals must align with labels")

    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def exit_fraction(self) -> float:
        """Fraction of samples labelled as exits."""
        if len(self) == 0:
            return 0.0
        return float(np.mean(self.labels))

    def subset(self, indices: np.ndarray) -> "ExitDataset":
        """Dataset restricted to ``indices`` (metadata preserved when present)."""
        indices = np.asarray(indices, dtype=int)
        return ExitDataset(
            features=self.features[indices],
            labels=self.labels[indices],
            composition=self.composition,
            user_ids=tuple(self.user_ids[i] for i in indices) if self.user_ids else (),
            stall_ordinals=(
                self.stall_ordinals[indices] if self.stall_ordinals is not None else None
            ),
        )


def _history(values: list[float], scale: float) -> np.ndarray:
    window = np.zeros(WINDOW_LENGTH)
    recent = values[-WINDOW_LENGTH:]
    if recent:
        window[-len(recent) :] = np.asarray(recent) / scale
    return window


def build_exit_dataset(
    logs: LogCollection,
    composition: DatasetComposition = DatasetComposition.STALL,
) -> ExitDataset:
    """Build an :class:`ExitDataset` from a log corpus.

    Sessions are processed per user in chronological order so the long-term
    "segments since the last stall-induced exit" feature carries across
    sessions, as the paper's long-term engagement state does.
    """
    features: list[np.ndarray] = []
    labels: list[int] = []
    user_ids: list[str] = []
    stall_ordinals: list[int] = []

    for user, sessions in logs.group_by_user().items():
        ordered = sorted(sessions, key=lambda s: (s.day, s.session_index))
        stall_exit_time_sum = 0.0
        stall_exit_count = 0
        max_survived_stall = 0.0
        prior_stall_events = 0
        for session in ordered:
            columns = session.trace.segments
            bitrates = columns["bitrate_kbps"].tolist()
            throughputs = columns["bandwidth_kbps"].tolist()
            cumulative_stalls = columns["cumulative_stall_time"].tolist()
            exited = columns["exited"].tolist()
            since_stall: list[float] = []
            segments_since_stall = float(WINDOW_LENGTH)
            for index, stall_time in enumerate(columns["stall_time"].tolist()):
                is_stall = stall_time > 0
                if is_stall:
                    segments_since_stall = 0.0
                else:
                    segments_since_stall += 1.0
                since_stall.append(segments_since_stall)
                # Tolerance is estimated from history *before* this event so
                # the feature stays causal.
                tolerance = estimate_tolerance(
                    stall_exit_time_sum, stall_exit_count, max_survived_stall
                )
                if is_stall and exited[index]:
                    stall_exit_time_sum += cumulative_stalls[index]
                    stall_exit_count += 1
                elif not exited[index]:
                    max_survived_stall = max(
                        max_survived_stall, cumulative_stalls[index]
                    )

                is_switch = index >= 1 and bitrates[index] != bitrates[index - 1]
                if composition is DatasetComposition.STALL and not is_stall:
                    continue
                if composition is DatasetComposition.EVENT and not (is_stall or is_switch):
                    continue

                # Exit attribution: this segment or the immediately next one.
                exited_soon = exited[index] or (
                    index + 1 < len(exited) and exited[index + 1]
                )
                window = slice(max(0, index + 1 - WINDOW_LENGTH), index + 1)
                sample = np.vstack(
                    [
                        _history(bitrates[window], _BITRATE_SCALE),
                        _history(throughputs[window], _THROUGHPUT_SCALE),
                        _history(cumulative_stalls[window], _STALL_CUMULATIVE_SCALE),
                        _history(since_stall[window], _RECENCY_SCALE),
                        np.full(WINDOW_LENGTH, tolerance / _STALL_CUMULATIVE_SCALE),
                    ]
                )
                features.append(sample)
                labels.append(int(exited_soon))
                user_ids.append(user)
                stall_ordinals.append(prior_stall_events)
                if is_stall:
                    prior_stall_events += 1

    if not features:
        raise ValueError("the chosen composition produced no samples")
    return ExitDataset(
        features=np.asarray(features, dtype=float),
        labels=np.asarray(labels, dtype=int),
        composition=composition,
        user_ids=tuple(user_ids),
        stall_ordinals=np.asarray(stall_ordinals, dtype=int),
    )
