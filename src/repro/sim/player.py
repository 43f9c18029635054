"""Player environment: the buffer / stall / waiting dynamics of Equation 3.

The environment models a client video player downloading one segment at a
time.  For the ``k``-th segment downloaded at bandwidth ``C_k`` and quality
``Q_k`` with size ``d_k(Q_k)``:

* download time is ``d_k(Q_k) / C_k``;
* if the buffer runs dry during the download the playback stalls for
  ``max(download_time - B_k, 0)`` seconds;
* the buffer is then credited with the segment duration ``L`` and clipped to
  the dynamic maximum ``B_max``; any excess plus the request RTT becomes
  waiting time ``delta_t_k`` before the next download starts;
* ``B_max`` is adjusted online as a function of the recent bandwidth
  distribution (larger buffers are kept when bandwidth is low and volatile).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.bandwidth import BandwidthModel
from repro.sim.video import Video


@dataclass(frozen=True)
class SegmentResult:
    """Outcome of downloading and buffering a single segment."""

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

    @property
    def throughput_kbps(self) -> float:
        """Observed throughput for the download (equals the link bandwidth here)."""
        return self.bandwidth_kbps


def dynamic_buffer_cap(
    mean_bandwidth_kbps,
    std_bandwidth_kbps,
    base_cap: float = 12.0,
    min_cap: float = 8.0,
    max_cap: float = 30.0,
):
    """Online adjustment of ``B_max`` as a function of the bandwidth model.

    The paper states that ``B_max`` is a function of
    ``N(mu_Cpast, sigma_Cpast)`` without giving the exact form; production
    players keep a larger buffer when the connection is slow or volatile (to
    ride out fades) and a smaller one when it is fast and stable (to limit
    wasted downloads when the user exits).  We use a smooth rule with those
    properties: the cap grows with the coefficient of variation and shrinks
    with the mean bandwidth, clipped to ``[min_cap, max_cap]`` seconds.

    Accepts scalars (returning ``float``) or same-shape arrays (returning an
    array); the elementwise operation order is identical in both modes, so
    the vector backend's caps match the scalar player's bit-for-bit.
    """
    if np.ndim(mean_bandwidth_kbps) == 0:
        if mean_bandwidth_kbps <= 0:
            raise ValueError("mean bandwidth must be positive")
        coefficient_of_variation = max(std_bandwidth_kbps, 0.0) / mean_bandwidth_kbps
        scarcity = 4000.0 / (mean_bandwidth_kbps + 1000.0)
        cap = base_cap * (0.6 + 0.8 * coefficient_of_variation + 0.6 * scarcity)
        return float(min(max(cap, min_cap), max_cap))
    if np.count_nonzero(np.asarray(mean_bandwidth_kbps) <= 0):
        raise ValueError("mean bandwidth must be positive")
    coefficient_of_variation = np.maximum(std_bandwidth_kbps, 0.0) / mean_bandwidth_kbps
    scarcity = 4000.0 / (mean_bandwidth_kbps + 1000.0)
    cap = base_cap * (0.6 + 0.8 * coefficient_of_variation + 0.6 * scarcity)
    return np.minimum(np.maximum(cap, min_cap), max_cap)


class PlayerEnvironment:
    """Mutable player state evolving according to Equation 3."""

    def __init__(
        self,
        video: Video,
        rtt: float = 0.08,
        initial_buffer: float = 0.0,
        base_buffer_cap: float = 12.0,
        bandwidth_model: BandwidthModel | None = None,
    ) -> None:
        if rtt < 0:
            raise ValueError("rtt must be non-negative")
        if initial_buffer < 0:
            raise ValueError("initial buffer must be non-negative")
        self.video = video
        self.rtt = rtt
        self.base_buffer_cap = base_buffer_cap
        self.bandwidth_model = bandwidth_model or BandwidthModel()
        self.buffer = float(initial_buffer)
        self.segment_index = 0
        self.last_level: int | None = None
        self.total_stall_time = 0.0
        self.total_wait_time = 0.0
        self.total_play_time = 0.0
        self.stall_count = 0
        self.startup_delay = 0.0

    @property
    def buffer_cap(self) -> float:
        """Current dynamic ``B_max`` (seconds)."""
        return dynamic_buffer_cap(
            self.bandwidth_model.mean,
            self.bandwidth_model.std,
            base_cap=self.base_buffer_cap,
        )

    def step(
        self, level: int, bandwidth_kbps: float, buffer_cap: float | None = None
    ) -> SegmentResult:
        """Download the next segment at ``level`` over ``bandwidth_kbps``.

        Returns the :class:`SegmentResult` and advances the player state.
        ``buffer_cap`` lets a caller that already read :attr:`buffer_cap`
        this step (to build an ABR context) pass it back in instead of
        recomputing the bandwidth statistics — the value is identical
        because the model only changes at the end of this method.
        """
        if bandwidth_kbps <= 0:
            raise ValueError("bandwidth must be positive")
        index = self.segment_index
        size_kbit = self.video.segment_size(index, level)
        download_time = size_kbit / bandwidth_kbps

        buffer_before = self.buffer
        if index == 0 and buffer_before == 0.0:
            # The very first download is startup delay, not a rebuffering
            # stall: playback has not begun yet, so nothing can stall.
            stall_time = 0.0
            self.startup_delay = download_time
        else:
            stall_time = max(download_time - self.buffer, 0.0)
        if stall_time > 1e-12:
            self.stall_count += 1

        drained = max(self.buffer - download_time, 0.0)
        if buffer_cap is None:
            buffer_cap = self.buffer_cap
        unclipped = drained + self.video.segment_duration
        wait_time = max(unclipped - buffer_cap, 0.0) + self.rtt
        buffer_after = max(unclipped - max(unclipped - buffer_cap, 0.0), 0.0)
        buffer_after = min(buffer_after, buffer_cap)

        self.buffer = buffer_after
        self.segment_index += 1
        self.last_level = level
        self.total_stall_time += stall_time
        self.total_wait_time += wait_time
        self.total_play_time += self.video.segment_duration
        self.bandwidth_model.update(bandwidth_kbps)

        return SegmentResult(
            segment_index=index,
            level=level,
            bitrate_kbps=self.video.ladder.bitrate(level),
            size_kbit=size_kbit,
            bandwidth_kbps=float(bandwidth_kbps),
            download_time=download_time,
            stall_time=stall_time,
            wait_time=wait_time,
            buffer_before=buffer_before,
            buffer_after=buffer_after,
        )

    def fork(self) -> "PlayerEnvironment":
        """Deep-enough copy used to seed a virtual (Monte-Carlo) playback.

        The fork shares the immutable :class:`~repro.sim.video.Video` but gets
        independent buffer, counters and bandwidth model so virtual playback
        never perturbs the live player.
        """
        clone = PlayerEnvironment(
            video=self.video,
            rtt=self.rtt,
            initial_buffer=self.buffer,
            base_buffer_cap=self.base_buffer_cap,
            bandwidth_model=self.bandwidth_model.copy(),
        )
        clone.segment_index = self.segment_index
        clone.last_level = self.last_level
        clone.total_stall_time = self.total_stall_time
        clone.total_wait_time = self.total_wait_time
        clone.total_play_time = self.total_play_time
        clone.stall_count = self.stall_count
        clone.startup_delay = self.startup_delay
        return clone
