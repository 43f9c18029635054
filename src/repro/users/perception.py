"""Per-user stall-sensitivity profiles.

Figure 5(b) of the paper shows three qualitative response shapes when users
face growing stall time: *sensitive* users whose exit probability ramps up
quickly, *threshold* users who tolerate stalls up to a personal limit and then
exit almost surely, and *insensitive* users whose exit probability grows
slowly.  Figure 5(a) shows the distribution of tolerable stall time across the
population and its day-to-day drift.  The profile object below captures both:
a response-curve shape plus a tolerance parameter that can drift over days.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np


class SensitivityArchetype(str, enum.Enum):
    """Qualitative stall-response shapes observed in Figure 5(b)."""

    SENSITIVE = "sensitive"
    THRESHOLD = "threshold"
    INSENSITIVE = "insensitive"


@dataclass(frozen=True)
class StallSensitivityProfile:
    """How one user's exit probability responds to stall events.

    Parameters
    ----------
    archetype:
        Response-curve shape (see :class:`SensitivityArchetype`).
    tolerance_s:
        Personal tolerable stall time in seconds.  For *threshold* users this
        is where the response jumps; for the other archetypes it scales the
        slope of the response.
    peak_exit_probability:
        Exit probability reached for very long stalls.
    daily_drift_s:
        Standard deviation of the day-to-day random walk of ``tolerance_s``
        (Figure 5a: most users drift little, ~20% drift 2–4 s).
    """

    archetype: SensitivityArchetype = SensitivityArchetype.THRESHOLD
    tolerance_s: float = 4.0
    peak_exit_probability: float = 0.8
    daily_drift_s: float = 0.5

    def __post_init__(self) -> None:
        if self.tolerance_s <= 0:
            raise ValueError("tolerance_s must be positive")
        if not 0 < self.peak_exit_probability <= 1:
            raise ValueError("peak_exit_probability must be in (0, 1]")
        if self.daily_drift_s < 0:
            raise ValueError("daily_drift_s must be non-negative")

    def stall_exit_probability(self, stall_time_s: float, stall_count: int = 1) -> float:
        """Exit probability contributed by a stall episode.

        ``stall_time_s`` is the cumulative stall time of the episode (seconds)
        and ``stall_count`` the number of stall events so far in the session;
        repeated stalls raise the exit probability beyond what a single stall
        of the same total length would (the compound effect of Figure 4d).
        """
        if stall_time_s < 0:
            raise ValueError("stall_time_s must be non-negative")
        if stall_time_s == 0:
            return 0.0
        peak = self.peak_exit_probability
        if self.archetype is SensitivityArchetype.SENSITIVE:
            base = peak * (1.0 - math.exp(-5.0 * stall_time_s / self.tolerance_s))
        elif self.archetype is SensitivityArchetype.THRESHOLD:
            # Logistic jump centred on the personal tolerance.
            steepness = 4.0 / max(self.tolerance_s * 0.15, 0.2)
            base = peak / (1.0 + math.exp(-steepness * (stall_time_s - self.tolerance_s)))
        else:  # INSENSITIVE
            base = peak * min(stall_time_s / (4.0 * self.tolerance_s), 1.0) * 0.5
        # Repeated stall events compound the annoyance (Figure 4d), but the
        # boost is capped so it cannot turn a tolerant user into a coin flip.
        multi_stall_boost = min(1.0 + 0.15 * max(stall_count - 1, 0), 1.5)
        return float(min(base * multi_stall_boost, 1.0))

    def drifted(self, rng: np.random.Generator) -> "StallSensitivityProfile":
        """Next-day profile after applying the random tolerance drift."""
        if self.daily_drift_s == 0:
            return self
        new_tolerance = max(self.tolerance_s + rng.normal(0.0, self.daily_drift_s), 0.25)
        return replace(self, tolerance_s=float(new_tolerance))


def sample_profile(rng: np.random.Generator) -> StallSensitivityProfile:
    """Draw one user's stall-sensitivity profile from the population mix.

    The mixture follows Figure 5(a): roughly 20% of users have minimal
    tolerance, 20% tolerate more than 5 s, ~10% more than 10 s, the rest sit
    in between; ~20% of users drift 2–4 s day-to-day, most drift little.
    """
    u = rng.random()
    if u < 0.20:
        archetype = SensitivityArchetype.SENSITIVE
        tolerance = float(rng.uniform(0.5, 2.0))
        peak = float(rng.uniform(0.93, 0.99))
    elif u < 0.70:
        archetype = SensitivityArchetype.THRESHOLD
        tolerance = float(rng.uniform(2.0, 6.0))
        peak = float(rng.uniform(0.9, 0.98))
    elif u < 0.90:
        archetype = SensitivityArchetype.THRESHOLD
        tolerance = float(rng.uniform(5.0, 10.0))
        peak = float(rng.uniform(0.85, 0.96))
    else:
        archetype = SensitivityArchetype.INSENSITIVE
        tolerance = float(rng.uniform(8.0, 16.0))
        peak = float(rng.uniform(0.2, 0.35))
    drift = float(rng.uniform(2.0, 4.0)) if rng.random() < 0.2 else float(abs(rng.normal(0.0, 0.5)))
    return StallSensitivityProfile(
        archetype=archetype,
        tolerance_s=tolerance,
        peak_exit_probability=peak,
        daily_drift_s=drift,
    )
