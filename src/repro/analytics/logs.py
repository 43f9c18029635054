"""Production-style playback logs.

The paper's §2 analyses run over 1.5 million playback trajectories, each
describing one video playback session (user id, timestamps, video length,
watch time, and per-segment buffer / bitrate / size / download / stall
information).  :class:`SessionLog` is that record; :class:`LogCollection`
holds a corpus of them and provides the aggregations the §2 figures need
(exit rate by quality tier, by switch granularity, by stall-time bin, watch
time by QoS, daily stall counts, tolerable stall times, …).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.sim.session import SEGMENT_DTYPE, PlaybackTrace, SegmentRecord


@dataclass(frozen=True)
class SessionLog:
    """One playback session in the production log."""

    user_id: str
    day: int
    session_index: int
    trace: PlaybackTrace
    mean_bandwidth_kbps: float

    @property
    def records(self) -> Sequence[SegmentRecord]:
        """Per-segment records of the session."""
        return self.trace.records

    @classmethod
    def zip_with_playbacks(
        cls,
        metas: Sequence[tuple[str, int, int, float]],
        playbacks: Sequence[PlaybackTrace],
    ) -> list["SessionLog"]:
        """Pair session metadata with backend-batch playback results.

        ``metas`` holds one ``(user_id, day, session_index,
        mean_bandwidth_kbps)`` tuple per spec, in the order the specs were
        handed to :meth:`repro.sim.backend.SimBackend.run_batch` — the shared
        reassembly step of every spec-batched session producer (fleet shards,
        campaigns, synthetic log generation).
        """
        return [
            cls(
                user_id=user_id,
                day=day,
                session_index=session_index,
                trace=playback,
                mean_bandwidth_kbps=mean_bandwidth_kbps,
            )
            for (user_id, day, session_index, mean_bandwidth_kbps), playback in zip(
                metas, playbacks, strict=True
            )
        ]

    @property
    def watch_time(self) -> float:
        """Seconds of video watched."""
        return self.trace.watch_time

    @property
    def exited_early(self) -> bool:
        """True when the user abandoned the video before its end."""
        return self.trace.exited_early

    @property
    def total_stall_time(self) -> float:
        """Total stall time in the session (seconds)."""
        return self.trace.total_stall_time

    @property
    def stall_count(self) -> int:
        """Number of stall events in the session."""
        return self.trace.stall_count


def segment_exit_rate(sessions: Iterable[SessionLog]) -> float:
    """Exit probability per watched segment of any session stream (live or replayed)."""
    watched = 0
    exited = 0
    for session in sessions:
        exited_flags = session.trace.segments["exited"]
        watched += exited_flags.size
        exited += int(np.count_nonzero(exited_flags))
    if watched == 0:
        return float("nan")
    return exited / watched


def exit_rate_by_stall_time(
    sessions: Iterable[SessionLog],
    bins: Sequence[float],
    min_samples: int = 20,
    segment_filter: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Exit rate per cumulative-stall-time bin of any session stream (live or replayed).

    ``segment_filter`` maps a session's structured ``trace.segments`` array
    to a bool mask of the segments to count (``None`` counts them all).
    """
    edges = np.asarray(bins, dtype=float)
    watched = np.zeros(edges.size)
    exited = np.zeros(edges.size)
    for session in sessions:
        segments = session.trace.segments
        if segment_filter is not None:
            segments = segments[segment_filter(segments)]
        if segments.size == 0:
            continue
        indices = np.maximum(
            np.searchsorted(edges, segments["cumulative_stall_time"], side="right") - 1, 0
        )
        np.add.at(watched, indices, 1.0)
        np.add.at(exited, indices, segments["exited"].astype(float))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(watched >= min_samples, exited / watched, np.nan)


def _exit_rate_by_level(segments: np.ndarray, num_levels: int) -> tuple[np.ndarray, float]:
    """Exit rate of ``segments`` per level below ``num_levels`` and overall."""
    levels = segments["level"]
    watched = np.bincount(levels, minlength=num_levels)
    exits = np.bincount(levels, weights=segments["exited"], minlength=num_levels)
    overall = float(exits.sum()) / levels.size if levels.size else float("nan")
    watched, exits = watched[:num_levels], exits[:num_levels]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(watched > 0, exits / watched, np.nan), overall


class LogCollection:
    """A corpus of :class:`SessionLog` records with §2-style aggregations.

    A collection may be **empty** — longitudinal fleets with churn produce
    zero-arrival days, and those days must still aggregate (to zeros/NaNs)
    and survive telemetry round trips rather than crash the campaign.
    """

    def __init__(self, sessions: Iterable[SessionLog] = ()) -> None:
        self._sessions = list(sessions)

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self) -> Iterator[SessionLog]:
        return iter(self._sessions)

    def __getitem__(self, index: int) -> SessionLog:
        return self._sessions[index]

    @property
    def sessions(self) -> Sequence[SessionLog]:
        """All sessions."""
        return tuple(self._sessions)

    def filter(self, predicate: Callable[[SessionLog], bool]) -> "LogCollection":
        """Sub-collection of sessions matching ``predicate``."""
        kept = [s for s in self._sessions if predicate(s)]
        if not kept:
            raise ValueError("filter produced an empty collection")
        return LogCollection(kept)

    def users(self) -> list[str]:
        """Distinct user ids, in first-seen order."""
        seen: dict[str, None] = {}
        for session in self._sessions:
            seen.setdefault(session.user_id, None)
        return list(seen)

    def days(self) -> list[int]:
        """Distinct day indices, sorted."""
        return sorted({s.day for s in self._sessions})

    # ------------------------------------------------------------------ #
    # Segment-level aggregations (exit-rate analyses of Figure 4)
    # ------------------------------------------------------------------ #
    def segment_exit_rate(self, predicate: Callable[[SegmentRecord], bool] | None = None) -> float:
        """Exit probability per watched segment, optionally restricted by ``predicate``."""
        if predicate is None:
            return segment_exit_rate(self._sessions)
        watched = 0
        exited = 0
        for session in self._sessions:
            for record in session.records:
                if not predicate(record):
                    continue
                watched += 1
                exited += int(record.exited)
        if watched == 0:
            return float("nan")
        return exited / watched

    def _segments(self) -> np.ndarray:
        """Every session's segment rows, concatenated in session order."""
        return np.concatenate(
            [session.trace.segments for session in self._sessions]
            + [np.empty(0, dtype=SEGMENT_DTYPE)]
        )

    def exit_rate_by_level(self, num_levels: int) -> np.ndarray:
        """Exit rate per quality level (Figure 4a); ``nan`` for unwatched levels."""
        return _exit_rate_by_level(self._segments(), num_levels)[0]

    def non_stall_exit_rates(self, num_levels: int) -> tuple[np.ndarray, float]:
        """Exit rate of the segments that did not stall (``stall_time <= 0``):
        per quality level below ``num_levels`` (``nan`` where none was
        watched), and over every level (``nan`` when there is none).

        One ``bincount`` over the segment columns; the values equal
        :meth:`segment_exit_rate` with the matching predicate, the same
        integer counts divided the same way.
        """
        segments = self._segments()
        return _exit_rate_by_level(segments[segments["stall_time"] <= 0], num_levels)

    def exit_rate_by_switch(
        self, granularities: Sequence[int], min_samples: int = 20
    ) -> dict[int, float]:
        """Exit rate by signed switch granularity (Figure 4b).

        Granularity 0 means "no switch"; +g / -g are upward / downward jumps
        of g rungs relative to the previous segment.  Granularities observed
        fewer than ``min_samples`` times report ``nan``.
        """
        counts: dict[int, list[int]] = {g: [0, 0] for g in granularities}
        for session in self._sessions:
            segments = session.trace.segments
            switches = np.diff(segments["level"]).tolist()
            for switch, exited in zip(switches, segments["exited"][1:].tolist()):
                if switch in counts:
                    counts[switch][0] += 1
                    counts[switch][1] += exited
        return {
            g: (exited / watched if watched >= min_samples else float("nan"))
            for g, (watched, exited) in counts.items()
        }

    def exit_rate_by_stall_time(
        self,
        bins: Sequence[float],
        segment_filter: Callable[[np.ndarray], np.ndarray] | None = None,
        min_samples: int = 20,
    ) -> np.ndarray:
        """Exit rate per cumulative-stall-time bin (Figures 4c/4d).

        ``bins`` are the left edges (seconds); segment ``i`` falls into the
        last bin whose edge does not exceed its cumulative stall time.  Bins
        with fewer than ``min_samples`` segments report ``nan``.
        ``segment_filter`` is a column expression over a session's
        ``trace.segments`` (e.g. ``lambda s: s["stall_count"] >= 2``).
        """
        return exit_rate_by_stall_time(
            self._sessions, bins, min_samples=min_samples, segment_filter=segment_filter
        )

    # ------------------------------------------------------------------ #
    # Session-level aggregations (watch time, stall counts, tolerances)
    # ------------------------------------------------------------------ #
    def watch_time_by_level(self, num_levels: int) -> np.ndarray:
        """Mean watch time of sessions grouped by their dominant quality level."""
        sums = np.zeros(num_levels)
        counts = np.zeros(num_levels)
        for session in self._sessions:
            if not len(session.trace):
                continue
            levels = session.trace.segments["level"]
            dominant = int(np.bincount(levels, minlength=num_levels).argmax())
            sums[dominant] += session.watch_time
            counts[dominant] += 1
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, sums / counts, np.nan)

    def watch_time_by_stall_time(self, bins: Sequence[float]) -> np.ndarray:
        """Mean watch time of sessions grouped by total stall time bin."""
        edges = np.asarray(bins, dtype=float)
        sums = np.zeros(edges.size)
        counts = np.zeros(edges.size)
        for session in self._sessions:
            index = int(np.searchsorted(edges, session.total_stall_time, side="right") - 1)
            index = max(index, 0)
            sums[index] += session.watch_time
            counts[index] += 1
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, sums / counts, np.nan)

    def daily_stall_counts(self) -> dict[tuple[str, int], int]:
        """Stall events per (user, day)."""
        counts: dict[tuple[str, int], int] = defaultdict(int)
        for session in self._sessions:
            counts[(session.user_id, session.day)] += session.stall_count
        return dict(counts)

    def daily_stall_counts_by_bandwidth(
        self, bin_edges_kbps: Sequence[float]
    ) -> dict[str, list[int]]:
        """Per-day stall counts grouped into bandwidth bins (Figure 8a).

        Returns a mapping from a bin label (``"lo-hi"`` in Mbps) to the list
        of per-(user, day) stall counts of users whose mean bandwidth falls in
        the bin.
        """
        edges = list(bin_edges_kbps)
        if len(edges) < 2:
            raise ValueError("need at least two bin edges")
        per_user_day: dict[tuple[str, int], int] = defaultdict(int)
        user_bandwidth: dict[str, list[float]] = defaultdict(list)
        for session in self._sessions:
            per_user_day[(session.user_id, session.day)] += session.stall_count
            user_bandwidth[session.user_id].append(session.mean_bandwidth_kbps)
        result: dict[str, list[int]] = {}
        for lo, hi in zip(edges[:-1], edges[1:]):
            label = f"{lo / 1000:g}-{hi / 1000:g} Mbps"
            users = {
                u for u, bws in user_bandwidth.items() if lo <= float(np.mean(bws)) < hi
            }
            result[label] = [
                count for (user, _day), count in per_user_day.items() if user in users
            ]
        return result

    def tolerable_stall_times(self) -> dict[str, float]:
        """Per-user average tolerable stall time (Figure 5a).

        For each user, sessions where they kept watching through stalls
        contribute their total stall time; the user's tolerance is the mean
        over those sessions.  Users who never experienced a stall are skipped.
        """
        tolerated: dict[str, list[float]] = defaultdict(list)
        for session in self._sessions:
            if session.total_stall_time <= 0:
                continue
            stall_times = session.trace.segments["stall_time"]
            exited_on_stall = session.exited_early and stall_times[-1] > 0
            if not exited_on_stall:
                tolerated[session.user_id].append(session.total_stall_time)
        return {user: float(np.mean(values)) for user, values in tolerated.items() if values}

    def stall_exit_rate_by_user(self, min_stall_events: int = 1) -> dict[str, float]:
        """Per-user fraction of stall events that led to an exit (§5.5).

        A stall event "leads to an exit" when the user exits at the segment
        that stalled or the next one.
        """
        stats: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for session in self._sessions:
            segments = session.trace.segments
            stalled = segments["stall_time"] > 0
            if not stalled.any():
                continue
            exited = segments["exited"]
            exited_now_or_next = exited | np.append(exited[1:], False)
            user = stats[session.user_id]
            user[0] += int(np.count_nonzero(stalled))
            user[1] += int(np.count_nonzero(stalled & exited_now_or_next))
        return {
            user: exits / events
            for user, (events, exits) in stats.items()
            if events >= min_stall_events
        }

    def group_by_user(self) -> dict[str, list[SessionLog]]:
        """Sessions grouped per user, preserving order."""
        groups: dict[str, list[SessionLog]] = defaultdict(list)
        for session in self._sessions:
            groups[session.user_id].append(session)
        return dict(groups)

    def extend(self, other: "LogCollection") -> "LogCollection":
        """New collection containing this corpus followed by ``other``."""
        return LogCollection(list(self._sessions) + list(other.sessions))


class LinkUtilizationLog:
    """Per-slot, per-link utilization analytics for networked fleet runs.

    Built from the :class:`~repro.net.allocator.LinkUsageSample` stream a
    networked run produces (live via ``FleetResult.link_usage`` or replayed
    from telemetry).  All aggregations are computed from parallel arrays, so
    a day of samples across many links stays cheap to slice.
    """

    def __init__(self, samples: Iterable) -> None:
        samples = list(samples)
        if not samples:
            raise ValueError("a link-utilization log needs at least one sample")
        self._samples = samples
        self.link_ids = np.asarray([s.link_id for s in samples])
        self.steps = np.asarray([s.step for s in samples], dtype=int)
        self.capacity_kbps = np.asarray([s.capacity_kbps for s in samples])
        self.active_sessions = np.asarray(
            [s.active_sessions for s in samples], dtype=int
        )
        self.demand_kbps = np.asarray([s.demand_kbps for s in samples])
        self.allocated_kbps = np.asarray([s.allocated_kbps for s in samples])

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Sequence:
        """All samples, in recorded order."""
        return tuple(self._samples)

    def links(self) -> list[str]:
        """Distinct link ids, sorted."""
        return sorted(set(self.link_ids.tolist()))

    def _mask(self, link_id: str | None) -> np.ndarray:
        if link_id is None:
            return np.ones(len(self._samples), dtype=bool)
        mask = self.link_ids == link_id
        if not mask.any():
            raise KeyError(f"no samples for link {link_id!r}")
        return mask

    def mean_utilization(self, link_id: str | None = None) -> float:
        """Mean allocated/capacity fraction over all slots (idle ones too)."""
        mask = self._mask(link_id)
        return float(
            np.mean(self.allocated_kbps[mask] / self.capacity_kbps[mask])
        )

    def peak_active_sessions(self, link_id: str | None = None) -> int:
        """Highest concurrency observed on the link (or anywhere)."""
        return int(self.active_sessions[self._mask(link_id)].max())

    def mean_allocated_per_session_kbps(self, link_id: str | None = None) -> float:
        """Mean per-session allocated throughput over busy slots.

        The congestion headline: as concurrency rises on a link, this number
        falls — sessions split the same capacity more ways.
        """
        mask = self._mask(link_id) & (self.active_sessions > 0)
        if not mask.any():
            raise ValueError("no busy slots to average over")
        per_session = self.allocated_kbps[mask] / self.active_sessions[mask]
        return float(np.mean(per_session))

    def congested_slot_fraction(
        self, link_id: str | None = None, tolerance: float = 1e-9
    ) -> float:
        """Fraction of busy slots where demand exceeded the allocation."""
        mask = self._mask(link_id) & (self.active_sessions > 0)
        if not mask.any():
            return 0.0
        squeezed = self.demand_kbps[mask] > self.allocated_kbps[mask] + tolerance
        return float(np.mean(squeezed))

    def utilization_timeseries(self, link_id: str) -> tuple[np.ndarray, np.ndarray]:
        """(steps, utilization) for one link, sorted by step."""
        mask = self._mask(link_id)
        order = np.argsort(self.steps[mask], kind="stable")
        steps = self.steps[mask][order]
        utilization = (self.allocated_kbps[mask] / self.capacity_kbps[mask])[order]
        return steps, utilization

    def concurrency_timeseries(self, link_id: str) -> tuple[np.ndarray, np.ndarray]:
        """(steps, active sessions) for one link, sorted by step."""
        mask = self._mask(link_id)
        order = np.argsort(self.steps[mask], kind="stable")
        return self.steps[mask][order], self.active_sessions[mask][order]
