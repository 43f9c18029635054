"""Daily per-group metric aggregation used by the A/B campaigns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.analytics.logs import SessionLog
from repro.analytics.qoe import session_qoe_lin


@dataclass(frozen=True)
class GroupDailyMetrics:
    """Aggregate QoS/QoE metrics of one group on one day."""

    day: int
    group: str
    total_watch_time: float
    mean_bitrate_kbps: float
    total_stall_time: float
    stall_count: int
    qoe_lin: float
    num_sessions: int

    @property
    def stall_seconds_per_hour(self) -> float:
        """Stall time normalised by watch time (seconds of stall per watch-hour).

        More stable than the raw total for small simulated populations, where
        a single heavy session can dominate a day's total.
        """
        if self.total_watch_time <= 0:
            return 0.0
        return 3600.0 * self.total_stall_time / self.total_watch_time

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (handy for printing benchmark tables)."""
        return {
            "day": float(self.day),
            "total_watch_time": self.total_watch_time,
            "mean_bitrate_kbps": self.mean_bitrate_kbps,
            "total_stall_time": self.total_stall_time,
            "stall_seconds_per_hour": self.stall_seconds_per_hour,
            "stall_count": float(self.stall_count),
            "qoe_lin": self.qoe_lin,
            "num_sessions": float(self.num_sessions),
        }


def aggregate_daily_metrics(
    sessions: Iterable[SessionLog],
    group: str,
    stall_penalty: float | None = None,
) -> list[GroupDailyMetrics]:
    """Aggregate a group's sessions into one metrics row per day."""
    by_day: dict[int, list[SessionLog]] = {}
    for session in sessions:
        by_day.setdefault(session.day, []).append(session)
    rows: list[GroupDailyMetrics] = []
    for day in sorted(by_day):
        day_sessions = by_day[day]
        watch_time = sum(s.watch_time for s in day_sessions)
        stall_time = sum(s.total_stall_time for s in day_sessions)
        stall_count = sum(s.stall_count for s in day_sessions)
        played = [s.trace for s in day_sessions if len(s.trace)]
        bitrates = [trace.mean_bitrate_kbps for trace in played]
        qoe_values = [session_qoe_lin(t, stall_penalty=stall_penalty) for t in played]
        rows.append(
            GroupDailyMetrics(
                day=day,
                group=group,
                total_watch_time=float(watch_time),
                mean_bitrate_kbps=float(np.mean(bitrates)) if bitrates else 0.0,
                total_stall_time=float(stall_time),
                stall_count=int(stall_count),
                qoe_lin=float(np.sum(qoe_values)) if qoe_values else 0.0,
                num_sessions=len(day_sessions),
            )
        )
    return rows


def normalize_series(values: Sequence[float], reference: Sequence[float]) -> np.ndarray:
    """Element-wise ratio ``values / reference`` (the paper's "Norm." series)."""
    values_arr = np.asarray(values, dtype=float)
    reference_arr = np.asarray(reference, dtype=float)
    if values_arr.shape != reference_arr.shape:
        raise ValueError("values and reference must have the same shape")
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(reference_arr != 0, values_arr / reference_arr, np.nan)
