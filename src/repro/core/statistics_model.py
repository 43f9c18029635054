"""Overall-statistics (OS) exit-rate model for quality and smoothness.

Takeaway 1: quality and smoothness influence exit rates at the 1e-3 and 1e-2
orders of magnitude — too small to model per user without being drowned by
content-driven noise, so LingXi models them with population-level statistics
(Equation 4's ``OS(Quality, Smoothness)`` term).  The model is two lookup
tables — baseline exit rate per quality level and an additive offset per
switch granularity — fitted from a production-log corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analytics.logs import LogCollection

#: Fallback per-level baseline exit rates (LD → FullHD), ~1e-3 spread.
_DEFAULT_LEVEL_RATES: tuple[float, ...] = (0.046, 0.044, 0.041, 0.040)
#: Fallback additive offsets per |switch granularity| (index 0 = no switch).
_DEFAULT_SWITCH_OFFSETS: tuple[float, ...] = (0.0, 0.009, 0.012, 0.015)
#: Extra offset for downward switches.
_DEFAULT_DOWNWARD_EXTRA: float = 0.004


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class OverallStatisticsModel:
    """Population-level exit-rate baseline indexed by quality and switch.

    Frozen, with read-only arrays: :attr:`table` is built once, at
    construction, and every prediction, scalar or batched, is a lookup in it.
    Row ``l`` is quality level ``l``; column ``s + S`` (``S`` =
    ``switch_offsets.size``) is signed switch ``s`` for ``s`` in ``[-S,
    S - 1]``, so the table has a downward column even when ``S == 1``.
    Levels past the last row read the last row, and switches past either
    end read the end column.
    """

    level_rates: np.ndarray = field(
        default_factory=lambda: np.asarray(_DEFAULT_LEVEL_RATES)
    )
    switch_offsets: np.ndarray = field(
        default_factory=lambda: np.asarray(_DEFAULT_SWITCH_OFFSETS)
    )
    downward_extra: float = _DEFAULT_DOWNWARD_EXTRA
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        level_rates = _read_only(self.level_rates)
        switch_offsets = _read_only(self.switch_offsets)
        if level_rates.ndim != 1 or level_rates.size == 0:
            raise ValueError("level_rates must be a non-empty vector")
        if switch_offsets.ndim != 1 or switch_offsets.size == 0:
            raise ValueError("switch_offsets must be a non-empty vector")
        if np.any(level_rates < 0) or np.any(level_rates > 1):
            raise ValueError("level_rates must be probabilities")
        # Equation 4's OS term: clip(level rate + switch offset, 0, 1), plus
        # ``downward_extra`` on a downward switch.
        switches = np.arange(-switch_offsets.size, switch_offsets.size)
        offsets = switch_offsets[
            np.minimum(np.abs(switches), switch_offsets.size - 1)
        ] + np.where(switches < 0, self.downward_extra, 0.0)
        table = np.clip(level_rates[:, None] + offsets[None, :], 0.0, 1.0)
        table.flags.writeable = False
        object.__setattr__(self, "level_rates", level_rates)
        object.__setattr__(self, "switch_offsets", switch_offsets)
        object.__setattr__(self, "table", table)

    def __reduce__(self):
        # Rebuild through ``__init__`` so a copy's arrays are read-only too.
        return type(self), (self.level_rates, self.switch_offsets, self.downward_extra)

    @classmethod
    def fit(cls, logs: LogCollection, num_levels: int) -> "OverallStatisticsModel":
        """Fit the lookup tables from a log corpus.

        Only non-stalled segments contribute, so the tables capture the
        quality/smoothness baseline rather than stall effects (those belong to
        the personalised neural model).
        """
        level_rates, overall = logs.non_stall_exit_rates(num_levels)
        # Fill gaps with the overall non-stall rate.
        if not np.isfinite(overall):
            overall = float(np.nanmean(_DEFAULT_LEVEL_RATES))
        level_rates = np.where(np.isfinite(level_rates), level_rates, overall)

        max_granularity = num_levels - 1
        by_switch = logs.exit_rate_by_switch(range(-max_granularity, max_granularity + 1))
        no_switch = by_switch.get(0, overall)
        if not np.isfinite(no_switch):
            no_switch = overall
        switch_offsets = np.zeros(max_granularity + 1)
        downward_deltas = []
        for granularity in range(1, max_granularity + 1):
            up = by_switch.get(granularity, np.nan)
            down = by_switch.get(-granularity, np.nan)
            offsets = [v - no_switch for v in (up, down) if np.isfinite(v)]
            switch_offsets[granularity] = float(np.mean(offsets)) if offsets else 0.0
            if np.isfinite(up) and np.isfinite(down):
                downward_deltas.append(max(down - up, 0.0))
        downward_extra = float(np.mean(downward_deltas)) if downward_deltas else 0.0
        return cls(
            level_rates=np.clip(level_rates, 0.0, 1.0),
            switch_offsets=np.clip(switch_offsets, 0.0, 1.0),
            downward_extra=max(downward_extra, 0.0),
        )

    def predict(self, level: int, switch_magnitude: int = 0) -> float:
        """Baseline exit probability for a segment at ``level`` after a switch."""
        if level < 0:
            raise ValueError("level must be non-negative")
        size = self.switch_offsets.size
        column = min(max(int(switch_magnitude), -size), size - 1) + size
        return float(self.table[min(level, self.level_rates.size - 1), column])

    def predict_many(
        self, levels: np.ndarray, switch_magnitudes: np.ndarray
    ) -> np.ndarray:
        """:meth:`predict` for ``n`` decision points at once."""
        levels = np.asarray(levels, dtype=int)
        if (levels < 0).any():
            raise ValueError("levels must be non-negative")
        size = self.switch_offsets.size
        # ``np.clip``'s wrapper costs several times these two ufunc calls.
        switches = np.asarray(switch_magnitudes, dtype=int)
        columns = np.minimum(np.maximum(switches, -size), size - 1) + size
        return self.table[np.minimum(levels, self.level_rates.size - 1), columns]

    @property
    def num_levels(self) -> int:
        """Number of quality levels the model covers."""
        return int(self.level_rates.size)
