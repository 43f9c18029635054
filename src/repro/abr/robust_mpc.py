"""RobustMPC: model-predictive control of ``QoE_lin`` (Yin et al., SIGCOMM'15).

RobustMPC predicts throughput for the next ``horizon`` segments with a
discounted harmonic mean (the "robust" correction: divide by one plus the
maximum recent relative prediction error), enumerates every level sequence
over the horizon, simulates the buffer evolution for each sequence, scores it
with ``QoE_lin`` under the *current* :class:`~repro.abr.base.QoEParameters`
(so LingXi can re-weight stall and switch penalties at runtime), and commits
only the first decision.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.abr.base import (
    ABRAlgorithm,
    QoEParameters,
    distinct_policies,
    row_parameters,
)
from repro.sim.session import ABRContext
from repro.sim.vector import row_columns


class RobustMPC(ABRAlgorithm):
    """Exhaustive-search MPC over a short look-ahead horizon."""

    def __init__(
        self,
        parameters: QoEParameters | None = None,
        horizon: int = 4,
        throughput_window: int = 5,
    ) -> None:
        super().__init__(parameters)
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if throughput_window <= 0:
            raise ValueError("throughput_window must be positive")
        self.horizon = horizon
        self.throughput_window = throughput_window
        self._past_errors: list[float] = []
        self._last_prediction: float | None = None

    def reset(self) -> None:
        """Clear the prediction-error history."""
        self._past_errors = []
        self._last_prediction = None

    def _robust_throughput(self, context: ABRContext) -> float:
        history = context.throughput_history_kbps
        if history and self._last_prediction is not None:
            actual = history[-1]
            error = abs(self._last_prediction - actual) / max(actual, 1e-9)
            self._past_errors.append(error)
            if len(self._past_errors) > self.throughput_window:
                del self._past_errors[: len(self._past_errors) - self.throughput_window]
        estimate = self.estimate_throughput(context, self.throughput_window)
        max_error = max(self._past_errors) if self._past_errors else 0.0
        robust = estimate / (1.0 + max_error)
        self._last_prediction = estimate
        return max(robust, 1e-6)

    def select_level(self, context: ABRContext) -> int:
        """Enumerate level sequences over the horizon and pick the best first step."""
        ladder = context.ladder
        num_levels = ladder.num_levels
        if not context.throughput_history_kbps:
            return 0
        throughput = self._robust_throughput(context)
        qualities = ladder.qualities()
        mu = self.parameters.stall_penalty
        switch_weight = self.parameters.switch_penalty
        segment_duration = context.segment_duration
        sizes = np.asarray(context.next_segment_sizes_kbit, dtype=float)

        last_quality = (
            qualities[context.last_level] if context.last_level is not None else qualities[0]
        )
        best_score = -np.inf
        best_first = 0
        for sequence in itertools.product(range(num_levels), repeat=self.horizon):
            buffer = context.buffer
            previous_quality = last_quality
            score = 0.0
            for level in sequence:
                # Future segment sizes are approximated by the next segment's
                # ladder sizes (the standard MPC simplification).
                download_time = sizes[level] / throughput
                stall = max(download_time - buffer, 0.0)
                buffer = max(buffer - download_time, 0.0) + segment_duration
                buffer = min(buffer, context.buffer_cap)
                quality = qualities[level]
                score += quality - mu * stall - switch_weight * abs(quality - previous_quality)
                previous_quality = quality
            if score > best_score:
                best_score = score
                best_first = sequence[0]
        return best_first

    @classmethod
    def vector_kernel(cls, policies: Sequence["RobustMPC"]):
        """Batched :meth:`select_level` over a struct-of-arrays step context.

        RobustMPC is stateful (rolling prediction errors, last prediction);
        the kernel owns that state as per-row arrays, initialised to the
        post-:meth:`reset` state, so every row behaves exactly like a freshly
        reset scalar instance advanced call by call — including when several
        rows share one policy object (the scalar engine resets it before each
        sequential session anyway).  A row's state moves only on calls that
        cover it and where it has throughput history (``context.k > 0``), so
        rows at different segment indices keep their own count of errors; a
        call on a row set (``context.rows``) scatters the state it moved
        back to those rows.

        The horizon enumeration is evaluated as a prefix tree: level
        sequences in ``itertools.product`` order share their prefix sums, so
        each leaf's score accumulates through the identical sequence of
        float additions the scalar loop performs, and the first-maximum
        ``argmax`` over leaves reproduces the scalar strict ``>`` tie break.
        Memory is ``O(num_levels ** horizon * N)`` per step.

        ``stall_penalty`` / ``switch_penalty`` are read from each policy's
        live :class:`~repro.abr.base.QoEParameters` at every call, once per
        distinct policy object, so runtime objective adjustments (LingXi)
        take effect mid-batch.
        """
        horizons = np.asarray([p.horizon for p in policies], dtype=int)
        windows = np.asarray([p.throughput_window for p in policies], dtype=int)
        max_window = int(windows.max()) if policies else 0
        # Each row's last ``max_window`` prediction errors, oldest first and
        # right-aligned, and how many it has recorded: row i's scalar
        # ``_past_errors`` is its last ``min(window_i, count_i)`` entries.
        errors = np.zeros((len(policies), max_window))
        error_counts = np.zeros(len(policies), dtype=int)
        columns = np.arange(max_window)
        last_prediction = np.full(len(policies), np.nan)
        distinct, owner = distinct_policies(policies)
        at = row_columns(
            horizons, windows, last_prediction, errors, error_counts, owner
        )

        def kernel(context) -> np.ndarray:
            num_rows = context.buffer.size
            started = context.k > 0
            if not started.any():
                return np.zeros(num_rows, dtype=int)
            rows = context.rows
            row_horizons, row_windows, predicted, row_errors, counts, row_owner = at(
                rows, num_rows
            )
            # --- _robust_throughput, batched ---------------------------------
            # A row records an error on each call after its first with
            # history (a previous prediction exists).
            recording = started & ~np.isnan(predicted)
            if recording.any():
                actual = context.throughput_window[:, -1]
                error = np.abs(predicted - actual) / np.maximum(actual, 1e-9)
                shifted = np.concatenate((row_errors[:, 1:], error[:, None]), axis=1)
                np.copyto(row_errors, shifted, where=recording[:, None])
                counts += recording
            estimate = context.harmonic_throughput(row_windows)
            held = np.minimum(row_windows, counts)
            max_error = np.where(
                columns >= max_window - held[:, None], row_errors, -np.inf
            ).max(axis=1)
            max_error = np.where(held > 0, max_error, 0.0)
            robust = estimate / (1.0 + max_error)
            np.copyto(predicted, estimate, where=started)
            if rows is not None:
                last_prediction[rows] = predicted
                errors[rows] = row_errors
                error_counts[rows] = counts
            throughput = np.maximum(robust, 1e-6)

            # --- horizon enumeration as a prefix tree ------------------------
            qualities = context.bitrates / 1000.0  # == ladder.qualities()
            mu = row_parameters(distinct, row_owner, "stall_penalty")
            switch = row_parameters(distinct, row_owner, "switch_penalty")
            sizes = context.segment_sizes  # (N, L)
            num_levels = qualities.size
            download = sizes / throughput[:, None]  # (N, L)
            last_quality = np.where(
                context.last_level >= 0,
                qualities[np.maximum(context.last_level, 0)],
                qualities[0],
            )

            result = np.zeros(num_rows, dtype=int)
            for horizon in np.unique(row_horizons):
                group = np.flatnonzero(row_horizons == horizon)
                buffer = context.buffer[group][None, :]  # (P, n)
                previous_quality = last_quality[group][None, :]
                score = np.zeros((1, group.size))
                down = download[group].T[None, :, :]  # (1, L, n)
                cap = context.buffer_cap[group]
                q = qualities[None, :, None]  # (1, L, 1)
                for _depth in range(int(horizon)):
                    stall = np.maximum(down - buffer[:, None, :], 0.0)
                    new_buffer = (
                        np.maximum(buffer[:, None, :] - down, 0.0)
                        + context.segment_duration
                    )
                    new_buffer = np.minimum(new_buffer, cap)
                    increment = (q - mu[group] * stall) - switch[group] * np.abs(
                        q - previous_quality[:, None, :]
                    )
                    score = score[:, None, :] + increment
                    paths = score.shape[0] * num_levels
                    score = score.reshape(paths, group.size)
                    buffer = new_buffer.reshape(paths, group.size)
                    previous_quality = np.broadcast_to(
                        q, (new_buffer.shape[0], num_levels, group.size)
                    ).reshape(paths, group.size)
                best_leaf = np.argmax(score, axis=0)
                result[group] = best_leaf // num_levels ** (int(horizon) - 1)
            return result if started.all() else np.where(started, result, 0)

        return kernel
