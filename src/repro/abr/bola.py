"""BOLA: Lyapunov-based bitrate adaptation (Spiteri et al., ToN'20).

For each candidate level the rule scores
``(V * (utility + gamma * p) - buffer) / segment_size`` and picks the level
with the highest non-negative score (falling back to the lowest level when
every score is negative, i.e. the buffer is critically low).  Utilities are
the logarithm of the size ratio to the lowest rung, the standard BOLA choice.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.abr.base import ABRAlgorithm, QoEParameters
from repro.sim.session import ABRContext
from repro.sim.vector import row_columns


class BOLA(ABRAlgorithm):
    """BOLA utility-maximising rule."""

    def __init__(
        self,
        parameters: QoEParameters | None = None,
        gamma_p: float = 5.0,
        buffer_target_fraction: float = 0.9,
    ) -> None:
        super().__init__(parameters)
        if gamma_p <= 0:
            raise ValueError("gamma_p must be positive")
        if not 0 < buffer_target_fraction <= 1:
            raise ValueError("buffer_target_fraction must be in (0, 1]")
        self.gamma_p = gamma_p
        self.buffer_target_fraction = buffer_target_fraction

    def select_level(self, context: ABRContext) -> int:
        """Maximise the BOLA objective for the next segment."""
        sizes = np.asarray(context.next_segment_sizes_kbit, dtype=float)
        utilities = np.log(sizes / sizes[0])
        # Control parameter V sized so the top rung is reachable at the buffer target.
        buffer_target = self.buffer_target_fraction * context.buffer_cap
        v = max(
            (buffer_target - context.segment_duration)
            / (utilities[-1] + self.gamma_p),
            1e-6,
        )
        scores = (v * (utilities + self.gamma_p) - context.buffer) / sizes
        best = int(np.argmax(scores))
        if scores[best] < 0:
            return 0
        return best

    @classmethod
    def vector_kernel(cls, policies: Sequence["BOLA"]):
        """Batched :meth:`select_level` over a struct-of-arrays step context.

        Returns ``kernel(context) -> levels`` reproducing the scalar rule
        bit-for-bit: utilities, the control parameter ``V`` and the per-level
        scores are all elementwise expressions in the scalar code's exact
        floating-point operation order, ``argmax`` keeps the scalar
        first-maximum tie break, and a negative best score falls back to the
        lowest rung exactly as the scalar rule does.
        """
        gamma_p = np.asarray([p.gamma_p for p in policies], dtype=float)
        target_fraction = np.asarray(
            [p.buffer_target_fraction for p in policies], dtype=float
        )

        at = row_columns(gamma_p, target_fraction)

        def kernel(context) -> np.ndarray:
            sizes = context.segment_sizes  # (N, L)
            gamma, fraction = at(context.rows, sizes.shape[0])
            utilities = np.log(sizes / sizes[:, :1])
            buffer_target = fraction * context.buffer_cap
            v = np.maximum(
                (buffer_target - context.segment_duration)
                / (utilities[:, -1] + gamma),
                1e-6,
            )
            scores = (
                v[:, None] * (utilities + gamma[:, None]) - context.buffer[:, None]
            ) / sizes
            best = np.argmax(scores, axis=1)
            return np.where(scores[np.arange(best.size), best] < 0, 0, best)

        return kernel
