"""Batched LingXi control loop for the lockstep simulation backend.

:class:`VectorControllerHost` is what lets optimization-enabled sessions —
the paper's actual workload — run on the vector fast path.  One host drives
the N per-session :class:`~repro.core.controller.LingXiController`s of a
lockstep cohort: after every engine step it folds the cohort's struct-of-
arrays segment outcomes into per-row state arrays (bandwidth window, dual
layer user state, stall trigger counters), checks the activation trigger
vectorized, and launches every triggered session's activation on the
host's one :class:`~repro.core.controller.ActivationDriver`.  The row is
then **held**: it plays no segment until its activation deploys.  Once per
slot the engine calls :meth:`VectorControllerHost.advance`, which runs one
round of every activation in flight as one ``evaluate_requests`` call per
predictor — a single NN forward per virtual step across all optimizing
sessions' candidates and samples, whichever slot triggered them.  An
activation of ``R`` rounds triggered at slot ``t`` deploys at slot
``t + R - 1``, and its row plays its next segment at slot ``t + R``; a
fixed sweep (one round) deploys in the slot that triggered it.

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
the same :class:`~repro.core.controller.ActivationDriver` that
``LingXiController.optimize`` drives to completion in the scalar engine —
activation seeds from each controller's private stream, one freshly seeded
generator per candidate evaluation, and the same OBO warm starts,
activation history and parameter deployment.  A request's scores do not
depend on the requests that share its call, and a held row's next segment
waits for its deployment exactly as the scalar engine's next segment
waits for ``optimize`` to return.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.controller import ActivationDriver
from repro.core.state import PlayerSnapshot
from repro.datasets.stall_dataset import WINDOW_LENGTH
from repro.sim.bandwidth import BandwidthModel


class ActivationInFlightError(RuntimeError):
    """A host was finalized while an activation it launched had not deployed."""


class VectorControllerHost:
    """Drives the LingXi controllers of one lockstep cohort over SoA state.

    ``max_steps`` bounds the segments any row plays: each row keeps its
    segment history in its own row of a ``(n, max_steps, 5)`` array, indexed
    by its own segment count.
    """

    _THROUGHPUT = 1  # the throughput's column of ``history``

    def __init__(
        self, abrs: Sequence, ladder, segment_duration: float, max_steps: int
    ) -> None:
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
        #: Number of optimization activations the host has launched.
        self.activations = 0
        self.driver = ActivationDriver()
        self._rows: dict[object, int] = {}  # activation in flight -> its row

        n = len(self.abrs)
        #: Rows whose activation is in flight: they play no segment.
        self.held = np.zeros(n, dtype=bool)
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
        self.session_stall_time = np.zeros(n)
        self.session_stall_count = np.zeros(n, dtype=int)
        self.session_watch_time = np.zeros(n)
        self.since_stall = np.full(n, float(WINDOW_LENGTH))
        # history[i, j]: row i's j-th segment's bitrate, throughput, stall,
        # session stall time and segments since stall.  A row's own segment
        # count indexes it, whatever slots the row played or was held at.
        self.history = np.zeros((n, max_steps, 5))
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
        trigger counter — as array updates, then launches every triggered
        session's activation and holds its row until :meth:`advance`
        deploys it.  ``rows`` is the ascending index array of the rows that
        played this step (the cohort's playing rows, never a held one), and
        the other arguments hold one entry per covered row; every other row
        keeps its state.
        """
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
        count = self.count[rows]
        self.history[rows, count] = np.column_stack(
            (
                bitrates[levels],
                throughput,
                stall,
                session_stall_time,
                self.since_stall[rows],
            )
        )
        self.count[rows] = count + 1

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
            self._launch(triggered, levels, buffer_after)

    # ------------------------------------------------------------------ #
    # Lazy materialisation of per-row scalar state
    # ------------------------------------------------------------------ #
    def _sync_bandwidth_model(self, i: int) -> None:
        """Rebuild row ``i``'s ``LingXiABR.bandwidth_model`` sample window.

        Only the trailing ``model.window`` observations can survive the
        model's trim, so only those are materialised — this runs for every
        trigger-candidate row every step, and a row whose trigger keeps
        firing into the pruning rule must not pay for its whole history
        each time.
        """
        count = int(self.count[i])
        model = self.abrs[i].bandwidth_model
        observed = self.history[
            i, max(0, count - model.window) : count, self._THROUGHPUT
        ].tolist()
        model._samples = (self.initial_samples[i] + observed)[-model.window :]
        model._cached_mean = None
        model._cached_std = None

    def _sync_row(self, i: int) -> None:
        """Materialise row ``i``'s full ``UserState`` into its controller."""
        controller = self.abrs[i].controller
        state = controller.user_state
        (
            state.bitrates_kbps,
            state.throughputs_kbps,
            state.stall_times,
            state.cumulative_stall_history,
            state.segments_since_stall_history,
        ) = self.history[i, : int(self.count[i])].T.tolist()
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
        state the scalar loop would have left behind.  Raises
        :class:`ActivationInFlightError` while an activation has not
        deployed: its row's controller would be resynced mid-activation.
        """
        if self.in_flight:
            raise ActivationInFlightError(
                f"{self.in_flight} activations still in flight at finalize"
            )
        for i in range(len(self.abrs)):
            self._sync_bandwidth_model(i)
            self._sync_row(i)

    # ------------------------------------------------------------------ #
    # Pipelined optimization
    # ------------------------------------------------------------------ #
    @property
    def in_flight(self) -> int:
        """Number of launched activations that have not deployed."""
        return len(self._rows)

    def _launch(
        self,
        triggered: list[tuple[int, int]],
        levels: np.ndarray,
        buffer_after: np.ndarray,
    ) -> None:
        """Launch one activation per triggered session and hold its row.

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
        for (i, _), activation in zip(triggered, self.driver.launch(jobs)):
            self._rows[activation] = i
            self.held[i] = True

    def advance(self) -> None:
        """Run one round of every activation in flight, then deploy the ones
        that finished (``set_parameters``, trigger counter reset) and
        release their rows."""
        for activation in self.driver.advance():
            i = self._rows.pop(activation)
            self.abrs[i].set_parameters(activation.best_parameters)
            self.stalls_since[i] = 0
            self.held[i] = False
