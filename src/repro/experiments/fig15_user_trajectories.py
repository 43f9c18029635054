"""Figure 15 — per-user parameter-adjustment trajectories.

Four representative users from the AB phase: two with high stall tolerance
and two stall-sensitive ones.  For each, the driver collects the sequence of
stall events (duration + whether the user exited) interleaved with the
parameter values LingXi deployed, so the classification / stability /
adaptation behaviour described in §5.5.2 can be inspected directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.controller import LingXiABR
from repro.experiments import fig12_ab_test
from repro.experiments.common import Substrate, SubstrateConfig, build_substrate


@dataclass
class StallEvent:
    """One stall event in a user's trajectory."""

    index: int
    stall_time: float
    exited: bool
    parameter_after: float


@dataclass
class UserTrajectory:
    """A user's stall events, parameter trajectory and tolerance label."""

    user_id: str
    tolerance_s: float
    archetype: str
    events: list[StallEvent] = field(default_factory=list)
    final_parameter: float = float("nan")

    @property
    def mean_parameter(self) -> float:
        """Mean deployed parameter over the user's stall events."""
        if not self.events:
            return self.final_parameter
        return float(np.mean([e.parameter_after for e in self.events]))


@dataclass
class Fig15Result:
    """Trajectories for the selected high-tolerance and stall-sensitive users."""

    high_tolerance: list[UserTrajectory]
    stall_sensitive: list[UserTrajectory]

    @property
    def separation(self) -> float:
        """Mean parameter of tolerant users minus mean parameter of sensitive users."""
        tolerant = [t.mean_parameter for t in self.high_tolerance if t.events]
        sensitive = [t.mean_parameter for t in self.stall_sensitive if t.events]
        if not tolerant or not sensitive:
            return float("nan")
        return float(np.mean(tolerant) - np.mean(sensitive))


def _trajectory(user_id: str, profile, abr, logs) -> UserTrajectory:
    trajectory = UserTrajectory(
        user_id=user_id,
        tolerance_s=profile.sensitivity.tolerance_s,
        archetype=profile.sensitivity.archetype.value,
    )
    history = []
    if isinstance(abr, LingXiABR):
        history = abr.controller.history
        trajectory.final_parameter = abr.controller.best_parameters.beta
    # Walk the user's sessions in order and pair stall events with the most
    # recently deployed parameter (activations happen inside sessions, so the
    # deployed value after event k is the latest optimization result).
    activation_cursor = 0
    current_parameter = trajectory.final_parameter
    if history:
        current_parameter = history[0].chosen_parameters.beta
    event_index = 0
    user_sessions = [s for s in logs if s.user_id == user_id]
    total_stalls_seen = 0
    for session in sorted(user_sessions, key=lambda s: (s.day, s.session_index)):
        segments = session.trace.segments
        stalled = segments[segments["stall_time"] > 0]
        for stall_time, exited in zip(
            stalled["stall_time"].tolist(), stalled["exited"].tolist()
        ):
            total_stalls_seen += 1
            # Advance the activation cursor proportionally to observed stalls.
            while (
                activation_cursor < len(history)
                and history[activation_cursor].trigger_stall_count <= total_stalls_seen
            ):
                current_parameter = history[activation_cursor].chosen_parameters.beta
                activation_cursor += 1
            trajectory.events.append(
                StallEvent(
                    index=event_index,
                    stall_time=stall_time,
                    exited=exited,
                    parameter_after=float(current_parameter),
                )
            )
            event_index += 1
    return trajectory


def run(
    substrate: Substrate | None = None,
    ab_result: fig12_ab_test.Fig12Result | None = None,
    users_per_group: int = 2,
    **fig12_kwargs,
) -> Fig15Result:
    """Extract per-user trajectories from the AB-phase campaign."""
    substrate = substrate or build_substrate(SubstrateConfig())
    ab_result = ab_result or fig12_ab_test.run(substrate=substrate, **fig12_kwargs)
    treatment = ab_result.treatment_post
    profiles = {p.user_id: p for p in ab_result.treatment_population}

    # Rank users by their true tolerance, keeping only those who stalled at all.
    stalled_users = {
        user for (user, _day), count in treatment.logs.daily_stall_counts().items() if count > 0
    }
    candidates = [profiles[u] for u in stalled_users if u in profiles]
    if not candidates:
        candidates = list(profiles.values())
    ranked = sorted(candidates, key=lambda p: p.sensitivity.tolerance_s)

    sensitive_profiles = ranked[:users_per_group]
    tolerant_profiles = ranked[-users_per_group:]

    def build(profile_list) -> list[UserTrajectory]:
        return [
            _trajectory(p.user_id, p, treatment.abrs.get(p.user_id), treatment.logs)
            for p in profile_list
        ]

    return Fig15Result(
        high_tolerance=build(tolerant_profiles),
        stall_sensitive=build(sensitive_profiles),
    )
