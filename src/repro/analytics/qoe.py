"""Linear QoE model (Equation 1) and per-session QoS summaries."""

from __future__ import annotations

import numpy as np

from repro.sim.session import PlaybackTrace


def qoe_lin_components(
    qualities: np.ndarray, stall_times: np.ndarray
) -> tuple[float, float, float]:
    """Return the three raw components of ``QoE_lin``.

    ``(sum quality, sum stall time, sum |quality switches|)`` — the caller
    applies the weights.  ``qualities`` are the per-segment quality values
    ``q(Q_k)`` and ``stall_times`` the per-segment stall durations.
    """
    qualities = np.asarray(qualities, dtype=float)
    stall_times = np.asarray(stall_times, dtype=float)
    if qualities.shape != stall_times.shape:
        raise ValueError("qualities and stall_times must have the same length")
    if qualities.size == 0:
        return 0.0, 0.0, 0.0
    quality_sum = float(qualities.sum())
    stall_sum = float(stall_times.sum())
    switch_sum = float(np.abs(np.diff(qualities)).sum())
    return quality_sum, stall_sum, switch_sum


def qoe_lin(
    qualities: np.ndarray,
    stall_times: np.ndarray,
    stall_penalty: float,
    switch_penalty: float = 1.0,
) -> float:
    """``QoE_lin = sum q(Q_k) - mu * sum T_k - w * sum |q(Q_{k+1}) - q(Q_k)|``.

    Equation 1 uses a unit switch weight; the generalised ``switch_penalty``
    is what the simulation study (§5.2) sweeps between 0 and 4.
    """
    if stall_penalty < 0 or switch_penalty < 0:
        raise ValueError("penalties must be non-negative")
    quality_sum, stall_sum, switch_sum = qoe_lin_components(qualities, stall_times)
    return quality_sum - stall_penalty * stall_sum - switch_penalty * switch_sum


def session_qoe_lin(
    trace: PlaybackTrace, stall_penalty: float | None = None, switch_penalty: float = 1.0
) -> float:
    """``QoE_lin`` of a playback trace.

    When ``stall_penalty`` is omitted the paper's choice is used: the maximum
    video quality value (the top rung's bitrate in Mbps).
    """
    if not len(trace):
        return 0.0
    qualities = trace.bitrates_kbps / 1000.0
    if stall_penalty is None:
        stall_penalty = float(np.max(qualities))
    return qoe_lin(qualities, trace.stall_times, stall_penalty, switch_penalty)
