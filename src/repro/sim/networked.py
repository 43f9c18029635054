"""Event-ordered scalar reference engine for networked session batches.

This is the ground truth for what a *networked* batch means.  Time is
slotted: during slot ``k`` every started, unfinished session downloads one
segment, and the sessions sharing an edge link split its capacity through
the weighted max-min allocator (:func:`repro.net.allocator.allocate_step`).
A session's **demand** is its pre-drawn trace value — the most its access
link could carry — so an uncongested topology reproduces the un-networked
traces exactly, and congestion emerges only when concurrent demand exceeds a
link's capacity.

Execution is event-ordered: the engine walks a queue of
``(slot, batch-index)`` download events in order and advances each session
through :meth:`repro.sim.session.LiveSession.step` — the same per-segment
step :class:`~repro.sim.session.PlaybackSession` runs, with the allocator's
answer in place of the trace value.  Each session keeps its own
:class:`~repro.sim.player.PlayerEnvironment`, ABR calls and `Philox` exit
stream.  The only cross-session computation is the per-slot allocation, and
that subroutine is shared verbatim with the vector engine, which is what
lets ``tests/test_network.py`` pin the two networked backends to
segment-for-segment identical traces.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.net.allocator import LinkUsageSample, allocate_step
from repro.obs import live as obs_live
from repro.net.topology import NetworkTopology
from repro.sim.backend import SessionSpec, resolve_session_seeds, session_rng
from repro.sim.session import LiveSession, PlaybackTrace, SessionConfig


def resolve_link_indices(
    network: NetworkTopology, specs: Sequence[SessionSpec]
) -> np.ndarray:
    """Per-spec link index: explicit ``spec.link`` wins, else attach by user id."""
    return np.asarray(
        [
            network.index_of(spec.link)
            if spec.link is not None
            else network.link_index_for(spec.user_id)
            for spec in specs
        ],
        dtype=int,
    )


def run_networked_scalar(
    specs: Sequence[SessionSpec],
    network: NetworkTopology,
    config: SessionConfig | None = None,
    link_usage: list[LinkUsageSample] | None = None,
) -> list[PlaybackTrace]:
    """Run a coupled batch through the event-ordered scalar reference engine."""
    config = config or SessionConfig()
    if not specs:
        return []
    seeds = resolve_session_seeds(specs)
    sessions = [
        LiveSession.from_spec(spec, session_rng(seed), config)
        for spec, seed in zip(specs, seeds)
    ]
    # Reset every distinct ABR / exit-model instance once, before any session
    # runs (the vector engine does the same per cohort).  Sessions of a batch
    # interleave, so a per-session reset at its first slot would wipe the
    # in-flight state of another session sharing the instance; with the
    # up-front reset, specs sharing a *stateful* ABR deterministically share
    # its state across their concurrent sessions (one user, one ABR brain) —
    # give each spec its own instance when that is not what you want.
    for policy in {id(spec.abr): spec.abr for spec in specs}.values():
        policy.reset()
    for model in {
        id(spec.exit_model): spec.exit_model
        for spec in specs
        if spec.exit_model is not None
    }.values():
        model.reset()
    link_index = resolve_link_indices(network, specs)
    weights = np.asarray([spec.weight for spec in specs], dtype=float)
    starts = np.asarray([session.start for session in sessions], dtype=int)
    limits = np.asarray([session.limit for session in sessions], dtype=int)
    ends = starts + limits

    num_sessions = len(specs)
    alive = np.ones(num_sessions, dtype=bool)
    demand = np.zeros(num_sessions)
    horizon = int(ends.max())

    # Multi-tier topologies: precompute each session's deterministic
    # per-segment cache-miss profile (identity-keyed, so both engines and
    # every shard agree).  No cache model on a tiered topology means every
    # download traverses the full path.
    tiered = network.has_tiers
    full_path: np.ndarray | None = None
    miss_profiles: list[np.ndarray] = []
    if tiered:
        full_path = np.zeros(num_sessions, dtype=bool)
        if network.cache is not None:
            miss_profiles = [
                network.cache.miss_profile(spec.user_id, session.limit)
                for spec, session in zip(specs, sessions)
            ]
        else:
            miss_profiles = [
                np.ones(session.limit, dtype=bool) for session in sessions
            ]

    with obs.span("networked.run_scalar"):
        for slot in range(horizon):
            obs_live.pulse()  # wall-clock heartbeat; no-op without a live run
            runnable = alive & (slot < ends)
            if not runnable.any():
                break
            active = runnable & (starts <= slot)
            obs.counter_add("networked.slots")
            demand[:] = 0.0
            if tiered:
                full_path[:] = False
            for index in np.flatnonzero(active):
                demand[index] = sessions[index].demand_at(slot)
                if tiered:
                    full_path[index] = miss_profiles[index][slot - starts[index]]
            allocations = allocate_step(
                network,
                slot,
                link_index,
                demand,
                active,
                weights,
                usage_out=link_usage,
                full_path=full_path,
            )
            # Event order: (slot, batch index) ascending.
            with obs.span("networked.session_step"):
                for index in np.flatnonzero(active):
                    if not sessions[index].step(slot, float(allocations[index])):
                        alive[index] = False

    return [session.playback for session in sessions]
