"""BBA: buffer-based rate adaptation (Huang et al., SIGCOMM'14).

The classic reservoir/cushion rule: below the reservoir play the lowest
bitrate, above reservoir+cushion play the highest, and map linearly in
between.  BBA ignores throughput entirely, which makes it a useful implicit
QoE baseline.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.abr.base import ABRAlgorithm, QoEParameters
from repro.sim.session import ABRContext
from repro.sim.vector import row_columns


class BBA(ABRAlgorithm):
    """Buffer-based adaptation with a linear reservoir→cushion ramp."""

    def __init__(
        self,
        parameters: QoEParameters | None = None,
        reservoir_s: float = 4.0,
        cushion_s: float = 8.0,
    ) -> None:
        super().__init__(parameters)
        if reservoir_s <= 0 or cushion_s <= 0:
            raise ValueError("reservoir and cushion must be positive")
        self.reservoir_s = reservoir_s
        self.cushion_s = cushion_s

    def select_level(self, context: ABRContext) -> int:
        """Map the current buffer level onto the ladder."""
        buffer = context.buffer
        num_levels = context.ladder.num_levels
        if buffer <= self.reservoir_s:
            return 0
        if buffer >= self.reservoir_s + self.cushion_s:
            return num_levels - 1
        fraction = (buffer - self.reservoir_s) / self.cushion_s
        return int(np.clip(int(fraction * num_levels), 0, num_levels - 1))

    @classmethod
    def vector_kernel(cls, policies: Sequence["BBA"]):
        """Batched :meth:`select_level` over a struct-of-arrays step context.

        Returns ``kernel(context) -> levels`` reproducing the scalar
        reservoir/cushion mapping exactly (BBA only looks at the buffer, so
        the kernel is a handful of array comparisons).
        """
        reservoir = np.asarray([p.reservoir_s for p in policies], dtype=float)
        cushion = np.asarray([p.cushion_s for p in policies], dtype=float)
        at = row_columns(reservoir, cushion)

        def kernel(context) -> np.ndarray:
            num_levels = context.bitrates.size
            buffer = context.buffer
            low, span = at(context.rows, buffer.size)
            fraction = (buffer - low) / span
            levels = np.clip((fraction * num_levels).astype(int), 0, num_levels - 1)
            levels = np.where(buffer <= low, 0, levels)
            return np.where(buffer >= low + span, num_levels - 1, levels)

        return kernel
