"""Batched LingXi control loop for the lockstep simulation backend.

:class:`VectorControllerHost` is what lets optimization-enabled sessions —
the paper's actual workload — run on the vector fast path.  One host drives
the N per-session :class:`~repro.core.controller.LingXiController`s of a
lockstep cohort: after every engine step it folds the cohort's struct-of-
arrays segment outcomes into per-row state arrays (bandwidth window, dual
layer user state, stall trigger counters), checks the activation trigger
vectorized, and hands every session that activates at the same step to
**one** :func:`~repro.core.controller.run_activations` call — a single NN
forward per virtual step across all concurrently-optimizing sessions'
candidates and samples.

The per-segment bookkeeping is pure array math: the scalar path's
``BandwidthModel.update`` + ``UserState.observe_segment`` calls become a
handful of ``(N,)`` array operations per step, and full
:class:`~repro.core.state.UserState` / :class:`~repro.sim.bandwidth.
BandwidthModel` objects are materialised lazily — only for the (rare) rows
whose trigger fires, and once at the end of the run so controller
persistence and cross-session (wave) carry-over see exactly the state the
scalar loop would have left behind.

Equivalence contract
--------------------
The host reproduces the scalar engine's LingXi behaviour bit for bit:
every array update mirrors the float operation order of
``UserState.observe_segment``, and the activations themselves run through
the same :func:`~repro.core.controller.run_activations` that
``LingXiController.optimize`` calls in the scalar engine — activation seeds
from each controller's private stream, one freshly seeded generator per
candidate evaluation, and the same OBO warm starts, activation history and
parameter deployment.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.controller import run_activations
from repro.core.state import PlayerSnapshot
from repro.datasets.stall_dataset import WINDOW_LENGTH
from repro.sim.bandwidth import BandwidthModel


class VectorControllerHost:
    """Drives the LingXi controllers of one lockstep cohort over SoA state."""

    def __init__(self, abrs: Sequence, ladder, segment_duration: float) -> None:
        for abr in abrs:
            if getattr(abr, "controller", None) is None or getattr(abr, "inner", None) is None:
                raise TypeError(
                    "VectorControllerHost requires controller-wrapped ABRs "
                    "(LingXiABR-style: .inner + .controller + observe hook)"
                )
        self.abrs = list(abrs)
        self.ladder = ladder
        self.max_bitrate = float(ladder.max_bitrate)
        self.segment_duration = float(segment_duration)
        #: Number of optimization activations the host has run (all sessions).
        self.activations = 0

        n = len(self.abrs)
        controllers = [abr.controller for abr in self.abrs]
        # --- trigger state (carries across sessions, like the controller's) --
        self.stalls_since = np.asarray(
            [c.stalls_since_optimization for c in controllers], dtype=int
        )
        self.thresholds = np.asarray(
            [c.trigger.stall_count_threshold for c in controllers], dtype=int
        )
        # --- bandwidth window (LingXiABR.bandwidth_model spans sessions) -----
        self.initial_samples = [list(abr.bandwidth_model._samples) for abr in self.abrs]
        # --- short-term user-state layer (fresh per session/cohort) ----------
        self.count = np.zeros(n, dtype=int)  # observed segments per row
        # History column of each row's first observed segment: rows of a
        # staggered cohort start at different steps, and a row's segments
        # fill consecutive columns from there.  Every column is ``n`` wide,
        # so row ``i`` of a column is row ``i``'s value whatever rows the
        # step covered.
        self.first = np.zeros(n, dtype=int)
        self.session_stall_time = np.zeros(n)
        self.session_stall_count = np.zeros(n, dtype=int)
        self.session_watch_time = np.zeros(n)
        self.since_stall = np.full(n, float(WINDOW_LENGTH))
        self.bitrate_cols: list[np.ndarray] = []
        self.throughput_cols: list[np.ndarray] = []
        self.stall_cols: list[np.ndarray] = []
        self.cumulative_cols: list[np.ndarray] = []
        self.since_stall_cols: list[np.ndarray] = []
        # --- long-term layer (seeded from each controller's restored state) --
        # float arrays: ``observe_step`` writes their rows in place.
        self.since_stall_exit = np.asarray(
            [c.user_state.segments_since_stall_exit for c in controllers], dtype=float
        )
        self.lifetime_stall_events = np.asarray(
            [c.user_state.lifetime_stall_events for c in controllers], dtype=int
        )
        self.lifetime_stall_exits = np.asarray(
            [c.user_state.lifetime_stall_exits for c in controllers], dtype=int
        )
        self.lifetime_segments = np.asarray(
            [c.user_state.lifetime_segments for c in controllers], dtype=int
        )
        self.stall_exit_time_sum = np.asarray(
            [c.user_state.stall_exit_time_sum for c in controllers], dtype=float
        )
        self.max_survived_stall_time = np.asarray(
            [c.user_state.max_survived_stall_time for c in controllers], dtype=float
        )

    def observe_step(
        self,
        rows: np.ndarray,
        levels: np.ndarray,
        stall: np.ndarray,
        throughput: np.ndarray,
        buffer_after: np.ndarray,
        exits: np.ndarray,
        bitrates: np.ndarray,
    ) -> None:
        """Fold one lockstep step into the SoA state of the rows it covers.

        Mirrors :meth:`repro.core.controller.LingXiABR.observe` — bandwidth
        window, ``UserState.observe_segment`` (same float operation order),
        trigger counter — as array updates, then batches all triggered
        sessions' optimizations.  ``rows`` is the ascending index array of
        the rows that played this step (the cohort's playing rows), and the
        other arguments hold one entry per covered row; every other row
        keeps its state.
        """
        fresh = rows[self.count[rows] == 0]
        self.first[fresh] = len(self.bitrate_cols)
        # ``UserState.observe_segment`` distinguishes stall > 0 (user-state
        # bookkeeping) from the trigger counter's stall > 1e-12.
        stalled = stall > 0.0
        stall_exit = exits & stalled

        self.session_stall_count[rows] += stalled
        session_stall_time = self.session_stall_time[rows]
        session_stall_time = np.where(
            stalled, session_stall_time + stall, session_stall_time
        )
        self.session_stall_time[rows] = session_stall_time
        self.since_stall[rows] = np.where(stalled, 0.0, self.since_stall[rows] + 1.0)
        self.session_watch_time[rows] += self.segment_duration
        self.lifetime_segments[rows] += 1
        self.lifetime_stall_events[rows] += stalled
        self.since_stall_exit[rows] = np.where(
            stall_exit, 0.0, self.since_stall_exit[rows] + 1.0
        )
        self.lifetime_stall_exits[rows] += stall_exit
        stall_exit_time_sum = self.stall_exit_time_sum[rows]
        self.stall_exit_time_sum[rows] = np.where(
            stall_exit, stall_exit_time_sum + session_stall_time, stall_exit_time_sum
        )
        max_survived = self.max_survived_stall_time[rows]
        self.max_survived_stall_time[rows] = np.where(
            exits, max_survived, np.maximum(max_survived, session_stall_time)
        )
        self.stalls_since[rows] += stall > 1e-12
        self.count[rows] += 1

        n = self.count.size
        for columns, values in (
            (self.bitrate_cols, bitrates[levels]),
            (self.throughput_cols, throughput),
            (self.stall_cols, stall),
        ):
            column = np.zeros(n)
            column[rows] = values
            columns.append(column)
        self.cumulative_cols.append(self.session_stall_time.copy())
        self.since_stall_cols.append(self.since_stall.copy())

        candidates = np.flatnonzero(self.stalls_since[rows] > self.thresholds[rows])
        if not candidates.size:
            return
        triggered: list[tuple[int, int]] = []
        for local, i in zip(candidates.tolist(), rows[candidates].tolist()):
            abr = self.abrs[i]
            controller = abr.controller
            self._sync_bandwidth_model(i)
            if controller.pruning.skip_optimization(
                abr.bandwidth_model, self.max_bitrate
            ):
                continue
            self._sync_row(i)
            triggered.append((i, local))
        if triggered:
            self._optimize(triggered, levels, buffer_after)
            self.stalls_since[[i for i, _ in triggered]] = 0

    # ------------------------------------------------------------------ #
    # Lazy materialisation of per-row scalar state
    # ------------------------------------------------------------------ #
    def _sync_bandwidth_model(self, i: int) -> None:
        """Rebuild row ``i``'s ``LingXiABR.bandwidth_model`` sample window.

        Only the trailing ``model.window`` observations can survive the
        model's trim, so only those columns are materialised — this runs for
        every trigger-candidate row every step, and a row whose trigger
        keeps firing into the pruning rule must not pay for its whole
        history each time.
        """
        first, count = int(self.first[i]), int(self.count[i])
        model = self.abrs[i].bandwidth_model
        observed = [
            float(col[i])
            for col in self.throughput_cols[
                first + max(0, count - model.window) : first + count
            ]
        ]
        model._samples = (self.initial_samples[i] + observed)[-model.window :]
        model._cached_mean = None
        model._cached_std = None

    def _sync_row(self, i: int) -> None:
        """Materialise row ``i``'s full ``UserState`` into its controller."""
        controller = self.abrs[i].controller
        state = controller.user_state
        played = slice(int(self.first[i]), int(self.first[i] + self.count[i]))
        state.bitrates_kbps = [float(col[i]) for col in self.bitrate_cols[played]]
        state.throughputs_kbps = [
            float(col[i]) for col in self.throughput_cols[played]
        ]
        state.stall_times = [float(col[i]) for col in self.stall_cols[played]]
        state.cumulative_stall_history = [
            float(col[i]) for col in self.cumulative_cols[played]
        ]
        state.segments_since_stall_history = [
            float(col[i]) for col in self.since_stall_cols[played]
        ]
        state.session_stall_count = int(self.session_stall_count[i])
        state.session_stall_time = float(self.session_stall_time[i])
        state.session_watch_time = float(self.session_watch_time[i])
        state.segments_since_stall_exit = float(self.since_stall_exit[i])
        state.lifetime_stall_events = int(self.lifetime_stall_events[i])
        state.lifetime_stall_exits = int(self.lifetime_stall_exits[i])
        state.lifetime_segments = int(self.lifetime_segments[i])
        state.stall_exit_time_sum = float(self.stall_exit_time_sum[i])
        state.max_survived_stall_time = float(self.max_survived_stall_time[i])
        controller.stalls_since_optimization = int(self.stalls_since[i])

    def finalize(self) -> None:
        """Write every row's final state back into its controller.

        Called once after the lockstep loop so controller persistence
        (checkpoints) and the next wave of a user's sessions see exactly the
        state the scalar loop would have left behind.
        """
        for i in range(len(self.abrs)):
            self._sync_bandwidth_model(i)
            self._sync_row(i)

    # ------------------------------------------------------------------ #
    # Batched optimization
    # ------------------------------------------------------------------ #
    def _optimize(
        self,
        triggered: list[tuple[int, int]],
        levels: np.ndarray,
        buffer_after: np.ndarray,
    ) -> None:
        """Run one activation for every triggered session, batched.

        ``triggered`` pairs each row with its position in the step's
        ``levels`` and ``buffer_after``.
        """
        jobs = [
            (
                self.abrs[i].controller,
                self.abrs[i].inner,
                PlayerSnapshot(
                    ladder=self.ladder,
                    segment_duration=self.segment_duration,
                    buffer=float(buffer_after[local]),
                    last_level=int(levels[local]),
                    bandwidth_model=self.abrs[i].bandwidth_model.copy(),
                ),
            )
            for i, local in triggered
        ]
        self.activations += len(jobs)
        for (i, _), parameters in zip(triggered, run_activations(jobs)):
            self.abrs[i].set_parameters(parameters)
