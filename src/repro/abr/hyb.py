"""HYB: hybrid throughput/buffer rule with tunable aggressiveness ``beta``.

HYB (Akhtar et al., SIGCOMM'18 baseline; §5.3 of the LingXi paper) has no
explicit QoE objective: it picks the highest bitrate whose expected download
time stays within a fraction ``beta`` of the current buffer,
``d_k(Q)/C < beta * B``.  ``beta`` trades bandwidth-estimate confidence
against stall risk, which is exactly the knob LingXi tunes per user in the
production A/B test.
"""

from __future__ import annotations

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


class HYB(ABRAlgorithm):
    """Highest bitrate satisfying ``segment_size / throughput < beta * buffer``."""

    def __init__(
        self,
        parameters: QoEParameters | None = None,
        throughput_window: int = 5,
        startup_level: int = 0,
    ) -> None:
        super().__init__(parameters)
        if throughput_window <= 0:
            raise ValueError("throughput_window must be positive")
        if startup_level < 0:
            raise ValueError("startup_level must be non-negative")
        self.throughput_window = throughput_window
        self.startup_level = startup_level

    def select_level(self, context: ABRContext) -> int:
        """Apply the HYB rule to the current context."""
        if not context.throughput_history_kbps:
            return min(self.startup_level, context.ladder.num_levels - 1)
        throughput = self.estimate_throughput(context, self.throughput_window)
        budget = self.parameters.beta * max(context.buffer, 0.0)
        chosen = 0
        for level in range(context.ladder.num_levels):
            download_time = context.next_segment_sizes_kbit[level] / max(throughput, 1e-9)
            if download_time < budget:
                chosen = level
        return chosen

    @classmethod
    def vector_kernel(cls, policies: Sequence["HYB"]):
        """Batched :meth:`select_level` over a struct-of-arrays step context.

        Returns ``kernel(context) -> levels`` matching the scalar rule
        bit-for-bit: the highest rung whose expected download time stays
        strictly below ``beta * buffer`` (0 if none qualifies), with the
        startup level on rows that have observed no throughput yet
        (``context.k == 0``).  ``beta`` is read from each policy's live
        :class:`~repro.abr.base.QoEParameters` at every call, so runtime
        objective adjustments (LingXi) take effect mid-batch exactly as they
        would in the scalar loop; it is read once per distinct policy object
        among the rows the call covers (a user's sessions share one HYB) and
        indexed back to the rows.
        """
        window = np.asarray([p.throughput_window for p in policies], dtype=int)
        startup = np.asarray([p.startup_level for p in policies], dtype=int)
        distinct, owner = distinct_policies(policies)
        at = row_columns(startup, window, owner)

        def kernel(context) -> np.ndarray:
            num_levels = context.bitrates.size
            row_startup, row_window, row_owner = at(context.rows, context.buffer.size)
            startup = context.k == 0
            if startup.all():
                return np.minimum(row_startup, num_levels - 1)
            throughput = context.harmonic_throughput(row_window)
            budget = row_parameters(distinct, row_owner, "beta") * np.maximum(
                context.buffer, 0.0
            )
            download_times = context.segment_sizes / np.maximum(throughput, 1e-9)[:, None]
            feasible = download_times < budget[:, None]
            highest = num_levels - 1 - feasible[:, ::-1].argmax(axis=1)
            levels = np.where(np.logical_or.reduce(feasible, axis=1), highest, 0)
            if startup.any():
                first = np.minimum(row_startup, num_levels - 1)
                levels = np.where(startup, first, levels)
            return levels

        return kernel
