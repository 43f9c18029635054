"""Playback session engine.

A :class:`PlaybackSession` joins three pieces around a
:class:`~repro.sim.player.PlayerEnvironment`:

* an **ABR algorithm** (anything implementing :class:`ABRPolicy`) that picks
  the quality level for each segment from an :class:`ABRContext` snapshot;
* a **bandwidth source** (a :class:`~repro.sim.bandwidth.BandwidthTrace`);
* an optional **user exit model** (anything implementing :class:`ExitModel`)
  that, after every segment, decides whether the simulated user abandons the
  video — this is the per-segment exit behaviour the paper's Monte-Carlo
  evaluator and pre-deployment simulation build on.

The session produces a :class:`PlaybackTrace` of per-segment
:class:`SegmentRecord` entries carrying everything later stages need
(analytics, exit-rate predictor features, production-log synthesis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.sim.bandwidth import BandwidthTrace
from repro.sim.player import PlayerEnvironment, SegmentResult
from repro.sim.video import BitrateLadder, Video


@dataclass(frozen=True)
class ABRContext:
    """Snapshot handed to an ABR algorithm before each segment download."""

    segment_index: int
    buffer: float
    buffer_cap: float
    last_level: int | None
    throughput_history_kbps: tuple[float, ...]
    next_segment_sizes_kbit: tuple[float, ...]
    ladder: BitrateLadder
    segment_duration: float
    bandwidth_mean_kbps: float
    bandwidth_std_kbps: float

    @property
    def estimated_bandwidth_kbps(self) -> float:
        """Plain mean-of-window bandwidth estimate (kbps)."""
        return self.bandwidth_mean_kbps


class ABRPolicy(Protocol):
    """Minimal interface an ABR algorithm must expose to the session engine."""

    def select_level(self, context: ABRContext) -> int:
        """Return the ladder level to download next."""
        ...

    def reset(self) -> None:
        """Clear any per-session internal state."""
        ...


@dataclass(frozen=True)
class ExitObservation:
    """What a user exit model sees after each segment has played."""

    segment_index: int
    level: int
    previous_level: int | None
    bitrate_kbps: float
    stall_time: float
    cumulative_stall_time: float
    stall_count: int
    watch_time: float
    buffer: float
    segments_since_last_stall: int
    throughput_kbps: float

    @property
    def switch_magnitude(self) -> int:
        """Signed level change relative to the previous segment (0 if first)."""
        if self.previous_level is None:
            return 0
        return self.level - self.previous_level


class ExitModel(Protocol):
    """Minimal interface of a user exit/engagement model."""

    def exit_probability(self, observation: ExitObservation) -> float:
        """Probability of abandoning the video after this segment."""
        ...

    def reset(self) -> None:
        """Clear any per-session internal state."""
        ...


@dataclass(frozen=True)
class SegmentRecord:
    """Per-segment entry of a :class:`PlaybackTrace`."""

    segment_index: int
    level: int
    bitrate_kbps: float
    size_kbit: float
    bandwidth_kbps: float
    download_time: float
    stall_time: float
    wait_time: float
    buffer_before: float
    buffer_after: float
    watch_time: float
    cumulative_stall_time: float
    stall_count: int
    exit_probability: float
    exited: bool


#: Column layout of the cached per-record array of :class:`PlaybackTrace`.
_COL_STALL, _COL_BITRATE, _COL_LEVEL, _COL_CUM_STALL, _COL_EXITED = range(5)


@dataclass
class PlaybackTrace:
    """Full record of one playback session."""

    user_id: str = "user"
    video_duration: float = 0.0
    segment_duration: float = 0.0
    trace_name: str = ""
    records: list[SegmentRecord] = field(default_factory=list)
    exited_early: bool = False
    #: Lazily built (n, 5) array of per-record aggregates; rebuilt whenever the
    #: number of records changes (records are append-only in practice).
    _record_cache: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.records)

    def record_array(self) -> np.ndarray:
        """Cached (n, 5) array: stall time, bitrate, level, cumulative stall, exited.

        The aggregate properties below (and the analytics inner loops) all read
        from this single array instead of rebuilding Python lists per access.
        The cache is invalidated by length, which covers the append-only way
        the session engine grows a trace.
        """
        if self._record_cache is None or self._record_cache.shape[0] != len(self.records):
            self._record_cache = np.asarray(
                [
                    (
                        r.stall_time,
                        r.bitrate_kbps,
                        float(r.level),
                        r.cumulative_stall_time,
                        float(r.exited),
                    )
                    for r in self.records
                ],
                dtype=float,
            ).reshape(len(self.records), 5)
        return self._record_cache

    @property
    def watch_time(self) -> float:
        """Seconds of video actually played."""
        return len(self.records) * self.segment_duration

    @property
    def completed(self) -> bool:
        """True when the full video was watched without an early exit."""
        return not self.exited_early and self.watch_time >= self.video_duration - 1e-9

    @property
    def completion_ratio(self) -> float:
        """Fraction of the video watched (0 for an empty trace)."""
        if self.video_duration <= 0:
            return 0.0
        return min(self.watch_time / self.video_duration, 1.0)

    @property
    def total_stall_time(self) -> float:
        """Total stall time (seconds)."""
        return float(np.sum(self.record_array()[:, _COL_STALL]))

    @property
    def stall_count(self) -> int:
        """Number of stall events."""
        return int(np.count_nonzero(self.record_array()[:, _COL_STALL] > 1e-12))

    @property
    def mean_bitrate_kbps(self) -> float:
        """Mean selected bitrate (kbps), 0 for an empty trace."""
        if not self.records:
            return 0.0
        return float(np.mean(self.record_array()[:, _COL_BITRATE]))

    @property
    def bitrates_kbps(self) -> np.ndarray:
        """Vector of selected bitrates."""
        return self.record_array()[:, _COL_BITRATE].copy()

    @property
    def levels(self) -> np.ndarray:
        """Vector of selected ladder levels."""
        return self.record_array()[:, _COL_LEVEL].astype(int)

    @property
    def num_switches(self) -> int:
        """Number of quality switches."""
        levels = self.record_array()[:, _COL_LEVEL]
        if levels.size < 2:
            return 0
        return int(np.count_nonzero(np.diff(levels)))

    @property
    def stall_times(self) -> np.ndarray:
        """Per-segment stall time vector."""
        return self.record_array()[:, _COL_STALL].copy()

    @property
    def cumulative_stall_times(self) -> np.ndarray:
        """Per-segment cumulative stall time vector."""
        return self.record_array()[:, _COL_CUM_STALL].copy()

    @property
    def exited_flags(self) -> np.ndarray:
        """Per-segment exit indicator vector (0/1 floats)."""
        return self.record_array()[:, _COL_EXITED].copy()


@dataclass(frozen=True)
class SessionConfig:
    """Knobs of a playback session."""

    initial_buffer: float = 0.0
    rtt: float = 0.08
    base_buffer_cap: float = 12.0
    max_segments: int | None = None


class LiveSession:
    """One session's mutable playback state, advanced one segment per call.

    :meth:`step` is the scalar engine's only per-segment rule: ABR decision,
    Equation 3 (via :meth:`PlayerEnvironment.step`), exit draw, ``observe``
    hook.  :meth:`PlaybackSession.run` drives it with trace values; the
    networked reference engine drives it slot by slot with the allocator's
    answers.  Resetting the ABR / exit model is the caller's job, because
    concurrent networked sessions may share one instance.
    """

    def __init__(
        self,
        abr: ABRPolicy,
        video: Video,
        trace: BandwidthTrace,
        config: SessionConfig,
        exit_model: ExitModel | None = None,
        rng: np.random.Generator | None = None,
        user_id: str = "user",
        start: int = 0,
    ) -> None:
        self.abr = abr
        self.video = video
        self.trace = trace
        self.exit_model = exit_model
        self.rng = rng
        self.start = start
        self.player = PlayerEnvironment(
            video=video,
            rtt=config.rtt,
            initial_buffer=config.initial_buffer,
            base_buffer_cap=config.base_buffer_cap,
        )
        self.limit = video.num_segments
        if config.max_segments is not None:
            self.limit = min(self.limit, config.max_segments)
        self.playback = PlaybackTrace(
            user_id=user_id,
            video_duration=video.duration,
            segment_duration=video.segment_duration,
            trace_name=trace.name,
        )
        self.throughput_history: list[float] = []
        self.last_level: int | None = None
        self.cumulative_stall = 0.0
        self.stall_count = 0
        self.segments_since_stall = 0

    @classmethod
    def from_spec(
        cls, spec, rng: np.random.Generator, config: SessionConfig
    ) -> "LiveSession":
        """Build from a :class:`~repro.sim.backend.SessionSpec` (starts at its ``start_step``)."""
        return cls(
            spec.abr,
            spec.video,
            spec.trace,
            config,
            exit_model=spec.exit_model,
            rng=rng,
            user_id=spec.user_id,
            start=spec.start_step,
        )

    def demand_at(self, slot: int) -> float:
        """Access-link bandwidth for this slot's segment download."""
        return self.trace.bandwidth_at(slot - self.start)

    def step(self, slot: int, bandwidth_kbps: float) -> bool:  # contract: SIM-STEP-007
        """Download one segment at ``bandwidth_kbps``; False once the user exited."""
        video = self.video
        k = slot - self.start
        player = self.player
        bandwidth_model = player.bandwidth_model
        ladder = video.ladder
        context = ABRContext(
            segment_index=k,
            buffer=player.buffer,
            buffer_cap=player.buffer_cap,
            last_level=self.last_level,
            throughput_history_kbps=tuple(self.throughput_history[-8:]),
            next_segment_sizes_kbit=video.sizes_tuple(k),
            ladder=ladder,
            segment_duration=video.segment_duration,
            bandwidth_mean_kbps=bandwidth_model.mean,
            bandwidth_std_kbps=bandwidth_model.std,
        )
        level = int(self.abr.select_level(context))
        if not 0 <= level < ladder.num_levels:
            raise ValueError(
                f"ABR returned invalid level {level} for a "
                f"{ladder.num_levels}-level ladder"
            )
        result: SegmentResult = player.step(level, bandwidth_kbps)

        self.cumulative_stall += result.stall_time
        if result.stall_time > 1e-12:
            self.stall_count += 1
            self.segments_since_stall = 0
        else:
            self.segments_since_stall += 1
        self.throughput_history.append(result.throughput_kbps)

        watch_time = (k + 1) * video.segment_duration
        exit_probability = 0.0
        exited = False
        if self.exit_model is not None:
            observation = ExitObservation(
                segment_index=k,
                level=level,
                previous_level=self.last_level,
                bitrate_kbps=result.bitrate_kbps,
                stall_time=result.stall_time,
                cumulative_stall_time=self.cumulative_stall,
                stall_count=self.stall_count,
                watch_time=watch_time,
                buffer=result.buffer_after,
                segments_since_last_stall=self.segments_since_stall,
                throughput_kbps=result.throughput_kbps,
            )
            exit_probability = float(self.exit_model.exit_probability(observation))
            if not 0.0 <= exit_probability <= 1.0:
                raise ValueError("exit probability must be in [0, 1]")
            exited = bool(self.rng.random() < exit_probability)

        record = SegmentRecord(
            segment_index=k,
            level=level,
            bitrate_kbps=result.bitrate_kbps,
            size_kbit=result.size_kbit,
            bandwidth_kbps=result.bandwidth_kbps,
            download_time=result.download_time,
            stall_time=result.stall_time,
            wait_time=result.wait_time,
            buffer_before=result.buffer_before,
            buffer_after=result.buffer_after,
            watch_time=watch_time,
            cumulative_stall_time=self.cumulative_stall,
            stall_count=self.stall_count,
            exit_probability=exit_probability,
            exited=exited,
        )
        self.playback.records.append(record)
        observe = getattr(self.abr, "observe", None)
        if observe is not None:
            # Feedback hook used by LingXi-style wrappers that track
            # per-segment outcomes (stalls, exits) during live playback.
            observe(record)
        self.last_level = level
        if exited:
            self.playback.exited_early = True
            return False
        return True


class PlaybackSession:
    """Run ABR + player + (optional) user exit model over a bandwidth trace."""

    def __init__(self, config: SessionConfig | None = None) -> None:
        self.config = config or SessionConfig()

    def run(
        self,
        abr: ABRPolicy,
        video: Video,
        trace: BandwidthTrace,
        exit_model: ExitModel | None = None,
        rng: np.random.Generator | None = None,
        user_id: str = "user",
    ) -> PlaybackTrace:
        """Play ``video`` over ``trace`` with ``abr`` deciding quality levels.

        When ``exit_model`` is given, the session may terminate early with an
        exit event; exit decisions are drawn with ``rng`` (a fresh default RNG
        is created when omitted, which makes deterministic rule-based exit
        models reproducible regardless).
        """
        rng = rng or np.random.default_rng(0)
        abr.reset()
        if exit_model is not None:
            exit_model.reset()
        session = LiveSession(
            abr, video, trace, self.config, exit_model, rng, user_id
        )
        for k in range(session.limit):
            if not session.step(k, trace.bandwidth_at(k)):
                break
        return session.playback

    def run_many(
        self,
        abr: ABRPolicy,
        videos: Sequence[Video],
        traces: Sequence[BandwidthTrace],
        exit_model: ExitModel | None = None,
        rng: np.random.Generator | None = None,
        user_id: str = "user",
    ) -> list[PlaybackTrace]:
        """Run one session per (video, trace) pair, zipped and cycled."""
        rng = rng or np.random.default_rng(0)
        n = max(len(videos), len(traces))
        results = []
        for i in range(n):
            results.append(
                self.run(
                    abr,
                    videos[i % len(videos)],
                    traces[i % len(traces)],
                    exit_model=exit_model,
                    rng=rng,
                    user_id=user_id,
                )
            )
        return results
