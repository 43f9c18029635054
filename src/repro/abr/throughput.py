"""Throughput-based rate matching (FESTIVE/PANDA-style baseline).

Picks the highest rung whose nominal bitrate stays below a safety fraction of
the harmonic-mean throughput estimate, with an optional one-level-per-segment
switch limiter for smoothness (the "gradual switching" idea of FESTIVE).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.abr.base import ABRAlgorithm, QoEParameters
from repro.sim.session import ABRContext
from repro.sim.vector import row_columns


class ThroughputRule(ABRAlgorithm):
    """Rate-matching rule with a safety margin and gradual switching."""

    def __init__(
        self,
        parameters: QoEParameters | None = None,
        safety: float = 0.85,
        window: int = 5,
        gradual: bool = True,
    ) -> None:
        super().__init__(parameters)
        if not 0 < safety <= 1:
            raise ValueError("safety must be in (0, 1]")
        if window <= 0:
            raise ValueError("window must be positive")
        self.safety = safety
        self.window = window
        self.gradual = gradual

    def select_level(self, context: ABRContext) -> int:
        """Match the sustainable bitrate, moving at most one rung when gradual."""
        if not context.throughput_history_kbps:
            return 0
        estimate = self.safety * self.estimate_throughput(context, self.window)
        target = context.ladder.level_for_bitrate(estimate)
        if not self.gradual or context.last_level is None:
            return target
        if target > context.last_level:
            return context.last_level + 1
        if target < context.last_level:
            return context.last_level - 1
        return target

    @classmethod
    def vector_kernel(cls, policies: Sequence["ThroughputRule"]):
        """Batched :meth:`select_level` over a struct-of-arrays step context.

        Returns ``kernel(context) -> levels`` where ``context`` is a
        :class:`repro.sim.vector.VectorStepContext` covering the policy
        rows it names (``context.rows``, ``None`` for the first ``len``).
        The kernel reproduces the scalar decision bit-for-bit: the same
        harmonic-mean estimate, the same ``level_for_bitrate`` threshold
        semantics (via ``searchsorted(side="right")``), the same one-rung
        gradual switching, and level 0 on rows that have observed no
        throughput yet (``context.k == 0``).
        """
        safety = np.asarray([p.safety for p in policies], dtype=float)
        window = np.asarray([p.window for p in policies], dtype=int)
        gradual = np.asarray([p.gradual for p in policies], dtype=bool)

        at = row_columns(safety, window, gradual)

        def kernel(context) -> np.ndarray:
            rows = context.buffer.size
            startup = context.k == 0
            if startup.all():
                return np.zeros(rows, dtype=int)
            row_safety, row_window, row_gradual = at(context.rows, rows)
            estimate = row_safety * context.harmonic_throughput(row_window)
            target = np.maximum(
                np.searchsorted(context.bitrates, estimate, side="right") - 1, 0
            )
            stepped = context.last_level + np.sign(target - context.last_level)
            # No previous level (-1): the scalar rule jumps to the target.
            levels = np.where(row_gradual & (context.last_level >= 0), stepped, target)
            if startup.any():
                levels = np.where(startup, 0, levels)
            return levels

        return kernel
