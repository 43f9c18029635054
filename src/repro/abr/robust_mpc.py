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

from repro.abr.base import ABRAlgorithm, QoEParameters
from repro.sim.session import ABRContext
from repro.sim.vector import row_prefixes


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
        sequential session anyway).

        The horizon enumeration is evaluated as a prefix tree: level
        sequences in ``itertools.product`` order share their prefix sums, so
        each leaf's score accumulates through the identical sequence of
        float additions the scalar loop performs, and the first-maximum
        ``argmax`` over leaves reproduces the scalar strict ``>`` tie break.
        Memory is ``O(num_levels ** horizon * N)`` per step.

        ``stall_penalty`` / ``switch_penalty`` are read from each policy's
        live :class:`~repro.abr.base.QoEParameters` at every call, so runtime
        objective adjustments (LingXi) take effect mid-batch.
        """
        horizons = np.asarray([p.horizon for p in policies], dtype=int)
        windows = np.asarray([p.throughput_window for p in policies], dtype=int)
        max_window = int(windows.max()) if policies else 0
        # Rolling per-row error history: one column appended per step from
        # k=2 on, trimmed to the longest policy window.  A context of the
        # first m rows appends an (m,) column; m never grows, so every
        # stored column covers the current rows.
        error_columns: list[np.ndarray] = []
        last_prediction = np.full(len(policies), np.nan)
        prefix = row_prefixes(horizons, windows, last_prediction)

        def kernel(context) -> np.ndarray:
            num_rows = context.buffer.size
            if context.k == 0:
                return np.zeros(num_rows, dtype=int)
            row_horizons, row_windows, predicted = prefix(num_rows)
            # --- _robust_throughput, batched ---------------------------------
            # Every row records its first error at the same step (the first
            # call with a previous prediction, k == 2), so the shared column
            # list is uniform: row i's scalar ``_past_errors`` is exactly the
            # last ``min(window_i, len(error_columns))`` column entries.
            actual = context.throughput_window[:, -1]
            if num_rows and not np.isnan(predicted[0]):
                error = np.abs(predicted - actual) / np.maximum(actual, 1e-9)
                error_columns.append(error)
                if len(error_columns) > max_window:
                    del error_columns[: len(error_columns) - max_window]
            estimate = context.harmonic_throughput(row_windows)
            max_error = np.zeros(num_rows)
            if error_columns:
                stacked = np.stack(
                    [column[:num_rows] for column in error_columns], axis=1
                )  # (m, history)
                history = stacked.shape[1]
                for window in np.unique(row_windows):
                    rows = row_windows == window
                    effective = min(int(window), history)
                    max_error[rows] = stacked[rows][:, history - effective :].max(
                        axis=1
                    )
            robust = estimate / (1.0 + max_error)
            predicted[:] = estimate
            throughput = np.maximum(robust, 1e-6)

            # --- horizon enumeration as a prefix tree ------------------------
            qualities = context.bitrates / 1000.0  # == ladder.qualities()
            mu = np.asarray(
                [p.parameters.stall_penalty for p in policies[:num_rows]]
            )
            switch = np.asarray(
                [p.parameters.switch_penalty for p in policies[:num_rows]]
            )
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
                rows = np.flatnonzero(row_horizons == horizon)
                buffer = context.buffer[rows][None, :]  # (P, n)
                previous_quality = last_quality[rows][None, :]
                score = np.zeros((1, rows.size))
                down = download[rows].T[None, :, :]  # (1, L, n)
                cap = context.buffer_cap[rows]
                q = qualities[None, :, None]  # (1, L, 1)
                for _depth in range(int(horizon)):
                    stall = np.maximum(down - buffer[:, None, :], 0.0)
                    new_buffer = (
                        np.maximum(buffer[:, None, :] - down, 0.0)
                        + context.segment_duration
                    )
                    new_buffer = np.minimum(new_buffer, cap)
                    increment = (q - mu[rows] * stall) - switch[rows] * np.abs(
                        q - previous_quality[:, None, :]
                    )
                    score = score[:, None, :] + increment
                    paths = score.shape[0] * num_levels
                    score = score.reshape(paths, rows.size)
                    buffer = new_buffer.reshape(paths, rows.size)
                    previous_quality = np.broadcast_to(
                        q, (new_buffer.shape[0], num_levels, rows.size)
                    ).reshape(paths, rows.size)
                best_leaf = np.argmax(score, axis=0)
                result[rows] = best_leaf // num_levels ** (int(horizon) - 1)
            return result

        return kernel
