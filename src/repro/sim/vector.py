"""Struct-of-arrays vectorized simulation backend.

:class:`VectorBackend` advances N playback sessions in lockstep, one segment
per step, with all per-session state held in NumPy arrays: buffers, selected
levels, throughput windows, stall counters, and per-session `Philox` RNG
substreams (pre-generated uniform draws).  Equation 3 — download time, stall,
dynamic ``B_max``, waiting time — becomes pure array math over the whole
batch, ABR decisions come from the policies' ``vector_kernel`` classmethods
(throughput rule, HYB, BBA), and exit decisions from the engagement models'
``vector_exit_kernel`` classmethods.

Equivalence gate
----------------
For the same :class:`~repro.sim.backend.SessionSpec` batch, this backend
reproduces :class:`~repro.sim.backend.ScalarBackend` traces **segment for
segment** (exact segment-array equality, enforced by
``tests/test_vector_backend.py``).  Three design rules make that possible:

* every session draws exit uniforms from its own `Philox` substream
  (:func:`~repro.sim.backend.session_rng`), so lockstep reordering cannot
  shift anyone's randomness — a pre-generated ``rng.random(n)`` row equals
  ``n`` sequential ``rng.random()`` calls on the same stream;
* all array expressions mirror the scalar code's floating-point operation
  order (including the bandwidth-window mean/std reductions, which NumPy
  evaluates with the same pairwise summation row-wise as it does for the
  scalar model's 1-D window).  The window statistics
  (:func:`window_stats`) and Equation 3 (:func:`playback_step`) are module
  functions: the Monte-Carlo rollouts of :mod:`repro.core.monte_carlo`
  run the same array code;
* the rare, profile-specific stall response of
  :class:`~repro.users.engagement.QoSAwareExitModel` is evaluated by calling
  the *scalar* profile method on the masked stalled rows, not by a parallel
  reimplementation.

ABR decisions come from the policies' ``vector_kernel`` classmethods
(throughput rule, HYB, BBA, BOLA, and RobustMPC with per-row prediction-error
state), and LingXi-wrapped sessions run their whole per-user control loop
through a :class:`~repro.core.vector_host.VectorControllerHost` — trigger
checks over struct-of-arrays controller state, Monte-Carlo optimization
batched across every activation in flight, one round per slot.  Sessions whose ABR or
exit model still has no vector kernel (Pensieve, custom classes) fall back
to the scalar engine behind the same ``run_batch`` interface, in spec order;
the backend counts them (``last_fallback_sessions`` /
``total_fallback_sessions``) so fleets can assert they stayed on the fast
path.  A networked batch couples every session at every slot, so it cannot
split that way: it runs lockstep when every spec is vectorizable and no
stateful ABR instance is shared, and otherwise runs whole on the
event-ordered reference engine (:mod:`repro.sim.networked`), every session
counted as a fallback.  Both kinds of batch take one path: one grouping
rule and one slot loop, which feeds each cohort's playing rows their trace
samples, or on a network the shared allocator's answer.  A networked batch
holds one cohort per kernel key whatever its sessions' start slots: every row
plays its own local segment, and a cohort steps exactly the rows that play at
the slot — started, before their end, alive and not held for an activation
in flight (:class:`_Cohort`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random.bit_generator import ISeedSequence

from repro import obs
from repro.net.allocator import allocate_step
from repro.obs import live as obs_live
from repro.sim.backend import (
    ScalarBackend,
    SessionSpec,
    SimBackend,
    register_backend,
    resolve_session_seeds,
    session_rng,
)
from repro.sim.bandwidth import BandwidthModel
from repro.sim.networked import resolve_link_indices, run_networked_scalar
from repro.sim.player import dynamic_buffer_cap
from repro.sim.session import SEGMENT_DTYPE, PlaybackTrace, SessionConfig

#: Sliding-window length of the player's bandwidth model (and of the
#: throughput history handed to ABR contexts) — both are 8 in the scalar
#: engine, which is what lets one window array serve both consumers.
_WINDOW = BandwidthModel().window
_PRIOR_MEAN = BandwidthModel().prior_mean_kbps
_PRIOR_STD = BandwidthModel().prior_std_kbps


@dataclass
class VectorStepContext:
    """Struct-of-arrays ABR context for one lockstep step (one row per session).

    The vector twin of :class:`~repro.sim.session.ABRContext`: same
    quantities, arrays instead of scalars.  ``last_level`` uses ``-1`` where
    the scalar context would carry ``None`` (before the first segment).
    ``k`` holds each row's own segment index: ``0`` means the row has no
    throughput history yet.

    ``rows`` names the rows of the ``n`` a kernel was built over that the
    context covers: an ascending index array (the rows a cohort plays at
    the slot, see :class:`_Cohort`), or ``None`` for the first ``len`` rows
    (Monte-Carlo rollouts pass every row).  Every array has one entry per
    covered row, and the kernel reads and updates only those rows' per-row
    parameters and state (:func:`row_columns`) and returns one level each.
    """

    k: np.ndarray
    buffer: np.ndarray
    buffer_cap: np.ndarray
    last_level: np.ndarray
    segment_sizes: np.ndarray  # (N, num_levels) sizes of this step's segment
    throughput_window: np.ndarray  # (N, W) recent throughputs, oldest first
    bandwidth_mean: np.ndarray
    bandwidth_std: np.ndarray
    bitrates: np.ndarray  # (num_levels,) shared ladder
    segment_duration: float
    #: Per-row number of valid samples at the right end of
    #: ``throughput_window``; ``None`` when every row holds all ``W`` columns
    #: (rows at one segment index).  Rows at different segment indices, in
    #: a staggered cohort or a Monte-Carlo rollout, hold histories of
    #: different lengths.
    history: np.ndarray | None = None
    rows: np.ndarray | None = None

    def harmonic_throughput(self, windows: np.ndarray) -> np.ndarray:
        """Per-session harmonic-mean throughput over the last ``windows[i]`` samples.

        Mirrors :meth:`repro.abr.base.ABRAlgorithm.estimate_throughput`
        (falling back to the bandwidth-model mean when no history exists yet).
        Sessions are grouped by effective window length so each group reduces
        over the same slice shape the scalar estimator sees.
        """
        available = self.throughput_window.shape[1]
        if self.history is not None:
            available_rows = np.minimum(self.history, available)
        else:
            available_rows = available
        effective = np.minimum(windows, available_rows)
        first = int(effective[0]) if effective.size else 0
        if not np.count_nonzero(effective != first):
            if first == 0:
                return self.bandwidth_mean.copy()
            values = self.throughput_window[:, available - first :]
            return first / np.add.reduce(1.0 / values, axis=1)
        out = np.empty(effective.shape[0])
        for width in np.unique(effective).tolist():
            rows = effective == width
            if width == 0:
                out[rows] = self.bandwidth_mean[rows]
            else:
                values = self.throughput_window[rows][:, available - width :]
                out[rows] = width / np.add.reduce(1.0 / values, axis=1)
        return out


def row_columns(*columns: np.ndarray):
    """``at(rows, count)``: the tuple of each column's entries at a call's rows.

    A vector kernel keeps per-row parameters and state for the ``n`` rows it
    was built over, and each call covers the rows its context or view names
    (``rows``): an ascending index array gathers those rows (copies, so a
    stateful kernel scatters its updates back), and ``None`` gives the first
    ``count`` rows in place (the columns themselves when they hold ``count``
    rows, as on every Monte-Carlo rollout call).
    """
    size = len(columns[0]) if columns else 0

    def at(rows: np.ndarray | None, count: int) -> tuple:
        if rows is None:
            if count == size:
                return columns
            return tuple(column[:count] for column in columns)
        return tuple(column[rows] for column in columns)

    return at


def has_vector_kernel(abr) -> bool:
    """True when ``abr``'s *exact* class defines a ``vector_kernel``.

    A ``__dict__`` lookup, not inheritance: a subclass that overrides
    ``select_level`` without its own kernel must not silently run the
    parent's vectorized decision rule.
    """
    return "vector_kernel" in type(abr).__dict__


def window_stats(
    window: np.ndarray, prior_mean=_PRIOR_MEAN, prior_std=_PRIOR_STD
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :class:`~repro.sim.bandwidth.BandwidthModel` ``mean``/``std``.

    ``window`` is ``(n, c)``: every row holds exactly ``c`` samples, oldest
    first.  Bit for bit what the model computes for each row's samples:
    the prior mean with no samples, the prior std with fewer than two, and
    otherwise ``np.mean`` and ``max(np.std(ddof=1), 1e-6)`` rebuilt from
    ``np.add.reduce`` in numpy's own ``_mean``/``_var`` operation order (a
    row-wise reduction sums each row exactly as the 1-D call does), at a
    fraction of their dispatch cost.  The priors may be scalars or ``(n,)``.
    """
    n, count = window.shape
    if count == 0:
        return np.full(n, prior_mean, dtype=float), np.full(n, prior_std, dtype=float)
    mean = np.add.reduce(window, axis=1) / count
    if count < 2:
        return mean, np.full(n, prior_std, dtype=float)
    deviation = window - mean[:, None]
    np.multiply(deviation, deviation, out=deviation)
    variance = np.add.reduce(deviation, axis=1) / (count - 1)
    return mean, np.maximum(np.sqrt(variance), 1e-6)


def window_stats_by_count(
    window: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`window_stats` where row ``i`` holds only its last ``counts[i]``
    columns of ``window`` (``0 <= counts[i] <= W``).

    Rows are grouped by sample count and each group reduces its own
    ``(rows, count)`` slice, the shape the one-count call sees, so every row
    gets the model's bits; a zero-padded sum over all ``W`` columns would
    add in another order.
    """
    width = window.shape[1]
    first = int(counts[0]) if counts.size else width
    if not np.count_nonzero(counts != first):
        return window_stats(window[:, width - first :])
    mean = np.empty(counts.size)
    std = np.empty(counts.size)
    for count in np.unique(counts).tolist():
        rows = counts == count
        mean[rows], std[rows] = window_stats(window[rows][:, width - count :])
    return mean, std


def playback_step(
    buffer: np.ndarray,
    download: np.ndarray,
    buffer_cap: np.ndarray,
    segment_duration,
    startup,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equation 3 over arrays: ``(stall, overflow, buffer_after)``.

    The scalar player's operation order, elementwise.  ``startup`` marks a
    session's first download, which stalls nothing while the buffer is still
    empty (it is startup delay): one bool for every row, or a per-row mask.
    ``overflow + rtt`` is the waiting time.
    """
    stall = np.maximum(download - buffer, 0.0)
    if startup is not False:
        stall = np.where((buffer == 0.0) & startup, 0.0, stall)
    drained = np.maximum(buffer - download, 0.0)
    unclipped = drained + segment_duration
    overflow = np.maximum(unclipped - buffer_cap, 0.0)
    buffer_after = np.maximum(unclipped - overflow, 0.0)
    return stall, overflow, np.minimum(buffer_after, buffer_cap)


@dataclass
class ExitStepView:
    """Struct-of-arrays exit-model view for one lockstep step.

    The vector twin of :class:`~repro.sim.session.ExitObservation` (plus the
    ``stalled`` mask kernels need for masked scalar fallbacks).  ``k`` and
    ``watch_time`` are per row: rows of a staggered cohort sit at different
    segment indices.  ``previous_level`` uses ``-1`` for ``None``.  Like
    :class:`VectorStepContext`, a view names the kernel rows it covers in
    ``rows`` (``None``: the first ``len`` rows), and the kernel returns one
    probability per covered row from those rows' parameters.  ``active``
    masks the covered rows that play; ``None`` means all of them, which is
    what the lockstep engine passes, since it covers only rows that play.
    """

    k: np.ndarray
    level: np.ndarray
    previous_level: np.ndarray
    stall_time: np.ndarray
    cumulative_stall_time: np.ndarray
    stall_count: np.ndarray
    watch_time: np.ndarray
    buffer: np.ndarray
    throughput: np.ndarray
    stalled: np.ndarray
    active: np.ndarray | None = None
    rows: np.ndarray | None = None


class _Slot(NamedTuple):
    """The rows a cohort plays at cohort slot ``t``.

    ``rows`` is the ascending index array of the rows that have started,
    are before their end, are alive and are not held; ``j`` is each one's
    local segment index and ``cell`` its entry in the flattened
    ``(n, max_steps)`` arrays.
    """

    t: int
    rows: np.ndarray
    j: np.ndarray
    cell: np.ndarray


@dataclass
class _Cohort:
    """One internally-lockstep cohort of a batch.

    Sessions are grouped by ABR type, inner type, exit type, ladder and
    segment duration, so the vector kernels and window reductions apply to
    every row.  :meth:`step` is the vector engine's only per-segment rule,
    fed by the one slot loop (:meth:`VectorBackend._play`) each row's trace
    sample, or on a network the shared allocator's answer.  Inputs are
    tables the rows share, each distinct trace and video entered once;
    outputs keep per-row, local-step storage: column ``j`` of a row is its
    ``j``-th segment.

    In a networked batch the rows start at their own slots, ``offset``
    slots after the cohort's first (``start``); an independent batch's rows
    all start at slot 0.  A row's local segment ``j`` is its own segment
    count (``steps_taken``).  :meth:`step` advances exactly the rows that
    play at the slot (:meth:`slot`): started, before their end, alive and
    not held by the controller host.  It reaches every per-row output
    through their cells, and the kernels it calls read and update only
    those rows.  A row plays at every slot from its start, so its ``j`` is
    ``t - offset`` at cohort slot ``t``, unless the host held it: a row
    whose LingXi activation is in flight skips slots until its parameters
    deploy.
    """

    indices: np.ndarray  # batch positions of the cohort's sessions
    specs: list
    start: int  # batch slot of the cohort's slot 0
    offset: np.ndarray  # per-row start slot relative to ``start``
    max_seg: np.ndarray  # per-row segment limit
    max_steps: int
    segment_duration: float
    bitrates: np.ndarray
    bandwidth: np.ndarray  # distinct traces' samples, concatenated
    trace_start: np.ndarray  # per-row start of its trace in ``bandwidth``
    trace_len: np.ndarray  # per-row trace length
    sizes: np.ndarray  # (segments, L) distinct videos' sizes, concatenated
    video_start: np.ndarray  # per-row start of its video in ``sizes``
    # The recorded segments, zeroed: step j writes column j, never reads it.
    segments: np.ndarray
    abr_kernel: object
    exit_kernel: object | None
    uniforms: np.ndarray | None
    host: object | None = None
    # Tiered topologies: the rows' cache-miss masks, concatenated, each
    # ``max_seg`` long; row i's starts at ``miss_start[i]``.
    miss: np.ndarray | None = None
    miss_start: np.ndarray | None = None
    # mutable lockstep state
    buffer: np.ndarray = field(init=False)
    last_level: np.ndarray = field(init=False)
    cumulative_stall: np.ndarray = field(init=False)
    stall_count: np.ndarray = field(init=False)
    alive: np.ndarray = field(init=False)
    exited_early: np.ndarray = field(init=False)
    steps_taken: np.ndarray = field(init=False)
    # Throughput seen per local step: column ``_WINDOW + j`` holds step j,
    # behind ``_WINDOW`` zero columns, so every row's window is one
    # ``_WINDOW``-wide read.
    observed: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.specs)
        self.buffer = np.empty(n)  # filled by the engine (initial_buffer)
        self.last_level = np.full(n, -1, dtype=int)
        self.cumulative_stall = np.zeros(n)
        self.stall_count = np.zeros(n, dtype=int)
        self.alive = np.ones(n, dtype=bool)
        self.exited_early = np.zeros(n, dtype=bool)
        self.steps_taken = np.zeros(n, dtype=int)
        self.observed = np.zeros((n, _WINDOW + self.max_steps))
        self.cell_base = np.arange(n) * self.max_steps
        # windows[i, j]: row i's throughput window before its step j.
        self.windows = sliding_window_view(self.observed, _WINDOW, axis=1)

    def slot(self, t: int) -> _Slot:
        """The rows that play at cohort slot ``t`` and their local steps.

        Held rows are skipped and counted (``vector.held_slots``).
        """
        playable = self.alive & (self.offset <= t) & (self.steps_taken < self.max_seg)
        if self.host is not None:
            held = playable & self.host.held
            skipped = int(np.count_nonzero(held))
            if skipped:
                obs.counter_add("vector.held_slots", skipped)
                playable ^= held
        rows = np.flatnonzero(playable)
        j = self.steps_taken[rows]
        return _Slot(t, rows, j, self.cell_base[rows] + j)

    def pending(self) -> bool:
        """True while a row has segments left to play (not yet started, or
        held) or the controller host has an activation in flight."""
        if self.host is not None and self.host.in_flight:
            return True
        return bool(np.any(self.alive & (self.steps_taken < self.max_seg)))

    def demand(self, slot: _Slot) -> np.ndarray:
        """Each playing row's trace sample at its local step, wrapping as
        :meth:`~repro.sim.bandwidth.BandwidthTrace.bandwidth_at` does."""
        rows = slot.rows
        return self.bandwidth[self.trace_start[rows] + slot.j % self.trace_len[rows]]

    def step(  # contract: SIM-STEP-007
        self, slot: _Slot, allocated: np.ndarray, config: SessionConfig
    ) -> None:
        """Advance the slot's playing rows one segment at throughputs ``allocated``.

        ``allocated`` holds one throughput per row of ``slot.rows``.
        Equation 3 as array math in the scalar player's operation order,
        then the exit draw, then the controller host's ``observe`` step.
        The bandwidth-window statistics read from each row's *observed*
        throughput history — exactly what the scalar player's
        :class:`~repro.sim.bandwidth.BandwidthModel` accumulates.
        """
        rows, j, cell = slot.rows, slot.j, slot.cell
        obs.counter_add("vector.rows_stepped", rows.size)
        buffer = self.buffer[rows]
        last_level = self.last_level[rows]
        # j < max_seg <= the video's segment count: every read is in the video.
        sizes = self.sizes[self.video_start[rows] + j]
        history = np.minimum(j, _WINDOW)
        window = self.windows[rows, j]
        mean, std = window_stats_by_count(window, history)
        buffer_cap = dynamic_buffer_cap(mean, std, base_cap=config.base_buffer_cap)

        context = VectorStepContext(
            k=j,
            buffer=buffer,
            buffer_cap=buffer_cap,
            last_level=last_level,
            segment_sizes=sizes,
            throughput_window=window,
            bandwidth_mean=mean,
            bandwidth_std=std,
            bitrates=self.bitrates,
            segment_duration=self.segment_duration,
            history=history,
            rows=rows,
        )
        levels = np.asarray(self.abr_kernel(context), dtype=int)
        num_levels = self.bitrates.size
        if np.any((levels < 0) | (levels >= num_levels)):
            raise ValueError(
                f"vector ABR kernel returned levels outside "
                f"[0, {num_levels}) at slot {slot.t}"
            )

        size = sizes[np.arange(rows.size), levels]
        download = size / allocated
        stall, overflow, buffer_after = playback_step(
            buffer, download, buffer_cap, self.segment_duration, startup=j == 0
        )
        wait = overflow + config.rtt
        stalled = stall > 1e-12
        cumulative_stall = self.cumulative_stall[rows] + stall
        stall_count = self.stall_count[rows] + stalled
        fields = self.segments.reshape(-1)

        if self.exit_kernel is not None:
            view = ExitStepView(
                k=j,
                level=levels,
                previous_level=last_level,
                stall_time=stall,
                cumulative_stall_time=cumulative_stall,
                stall_count=stall_count,
                watch_time=(j + 1) * self.segment_duration,
                buffer=buffer_after,
                throughput=allocated,
                stalled=stalled,
                rows=rows,
            )
            probabilities = np.asarray(self.exit_kernel(view), dtype=float)
            # NaN must fail this check too (the scalar engine's
            # `not 0.0 <= p <= 1.0` rejects it), hence the negated form.
            if not np.all((probabilities >= 0.0) & (probabilities <= 1.0)):
                raise ValueError("exit probability must be in [0, 1]")
            exits = self.uniforms.reshape(-1)[cell] < probabilities
            fields["exit_probability"][cell] = probabilities
        else:
            exits = np.zeros(rows.size, dtype=bool)

        fields["level"][cell] = levels
        fields["size_kbit"][cell] = size
        fields["download_time"][cell] = download
        fields["stall_time"][cell] = stall
        fields["wait_time"][cell] = wait
        fields["buffer_before"][cell] = buffer
        fields["buffer_after"][cell] = buffer_after
        fields["cumulative_stall_time"][cell] = cumulative_stall
        fields["stall_count"][cell] = stall_count
        self.observed[rows, _WINDOW + j] = allocated

        if self.host is not None:
            # Same point in the segment lifecycle as the scalar engine's
            # ``observe`` hook: after the exit draw, before the next
            # segment's decision — parameter adjustments land on j+1.
            self.host.observe_step(
                rows=rows,
                levels=levels,
                stall=stall,
                throughput=allocated,
                buffer_after=buffer_after,
                exits=exits,
                bitrates=self.bitrates,
            )

        self.cumulative_stall[rows] = cumulative_stall
        self.stall_count[rows] = stall_count
        self.steps_taken[rows] = j + 1
        self.buffer[rows] = buffer_after
        self.last_level[rows] = levels
        exited = rows[exits]
        self.exited_early[exited] = True
        self.alive[exited] = False

    def traces(self) -> list[PlaybackTrace]:
        """Finalize the controller host; fill the columns :meth:`step` leaves
        out and hand each session a view of its row's played prefix."""
        if self.host is not None:
            self.host.finalize()
        segments = self.segments
        steps = np.arange(self.max_steps)
        segments["segment_index"] = steps
        segments["bitrate_kbps"] = self.bitrates[segments["level"]]
        segments["bandwidth_kbps"] = self.observed[:, _WINDOW:]
        segments["watch_time"] = (steps + 1) * self.segment_duration
        exited = np.flatnonzero(self.exited_early & (self.steps_taken > 0))
        segments["exited"][exited, self.steps_taken[exited] - 1] = True
        return [
            PlaybackTrace(
                user_id=spec.user_id,
                video_duration=spec.video.duration,
                segment_duration=spec.video.segment_duration,
                trace_name=spec.trace.name,
                exited_early=exited_early,
                segments=segments[i, :n],
            )
            for i, (spec, n, exited_early) in enumerate(
                zip(self.specs, self.steps_taken.tolist(), self.exited_early.tolist())
            )
        ]


class VectorBackend(SimBackend):
    """Lockstep struct-of-arrays execution of a batch of session specs.

    Fallback accounting
    -------------------
    Every ``run_batch`` call reports how many of its sessions were routed to
    the scalar engine instead of the lockstep fast path:
    ``last_fallback_sessions`` / ``last_batch_sessions`` describe the most
    recent call, ``total_fallback_sessions`` accumulates across the
    backend's lifetime.  The test sweeps assert these stay at zero for every
    ABR family that ships a vector kernel.
    """

    name = "vector"

    def __init__(self) -> None:
        self.last_fallback_sessions = 0
        self.last_batch_sessions = 0
        self.total_fallback_sessions = 0

    def _record_fallback(self, fallback_sessions: int, batch_sessions: int) -> None:
        self.last_fallback_sessions = fallback_sessions
        self.last_batch_sessions = batch_sessions
        self.total_fallback_sessions += fallback_sessions
        obs.counter_add("vector.fallback_sessions", fallback_sessions)
        obs.counter_add("vector.batch_sessions", batch_sessions)

    def run_batch(
        self,
        specs,
        config: SessionConfig | None = None,
        *,
        network=None,
        link_usage=None,
    ) -> list[PlaybackTrace]:
        config = config or SessionConfig()
        # Pin every spec's seed against the *original* batch order before
        # regrouping, so unseeded specs get the same position-derived
        # substream the scalar backend would assign them.
        specs = [
            spec if isinstance(spec.seed, ISeedSequence) else replace(spec, seed=seed)
            for spec, seed in zip(specs, resolve_session_seeds(specs))
        ]
        vectorizable = [self._vectorizable(spec) for spec in specs]
        fallback = [index for index, ok in enumerate(vectorizable) if not ok]
        if network is not None and (
            fallback or not specs or self._shared_stateful_abr_ids(specs)
        ):
            # Allocation couples every session at every slot, so a networked
            # batch cannot split into per-session fallbacks the way an
            # independent batch can: it runs lockstep whole, or whole on the
            # event-ordered reference engine.
            self._record_fallback(len(specs), len(specs))
            return run_networked_scalar(specs, network, config, link_usage=link_usage)
        self._record_fallback(len(fallback), len(specs))
        waves = self._cohort_waves(
            specs, [index for index, ok in enumerate(vectorizable) if ok]
        )
        # A lockstep networked batch shares no stateful ABR instance, so
        # every controller-wrapped instance plays once: it is one wave.
        assert network is None or len(waves) == 1, "networked batch split into waves"

        results: list[PlaybackTrace | None] = [None] * len(specs)
        for wave in waves:  # contract: DET-ITER-003
            with obs.span("vector.play"):
                cohorts = [
                    self._build_cohort(indices, specs, config, staggered=network is not None)
                    for indices in wave
                ]
                self._play(cohorts, specs, config, network, link_usage)
            for cohort in cohorts:
                for index, trace in zip(cohort.indices.tolist(), cohort.traces()):
                    results[index] = trace
                if network is None:
                    # Networked batches are counted when their shard finishes.
                    obs_live.add_sessions(len(cohort.specs))

        if fallback:
            fallback_traces = ScalarBackend().run_batch(
                [specs[index] for index in fallback], config
            )
            for index, trace in zip(fallback, fallback_traces):
                results[index] = trace
        return results

    @classmethod
    def _cohort_waves(cls, specs, indices: list[int]) -> list[list[list[int]]]:
        """The batch positions ``indices`` as waves of cohorts, one cohort per
        kernel key (ABR, inner and exit types, ladder, segment duration).

        A controller-wrapped ABR instance shared by several specs (one user,
        several sessions) carries controller state across sessions, which the
        scalar loop plays in order: its ``w``-th session goes in wave ``w``,
        and the waves run in order, so each session starts from the state
        the user's earlier ones left.
        """
        waves: list[dict[tuple, list[int]]] = []
        occurrence: dict[int, int] = {}
        for index in indices:
            spec = specs[index]
            abr = spec.abr
            wave, inner = 0, None
            if cls._controller_wrapped(abr):
                wave = occurrence.get(id(abr), 0)
                occurrence[id(abr)] = wave + 1
                inner = type(abr.inner)
            key = (
                type(abr),
                inner,
                None if spec.exit_model is None else type(spec.exit_model),
                spec.video.ladder.bitrates_kbps,
                spec.video.segment_duration,
            )
            if wave == len(waves):
                waves.append({})
            waves[wave].setdefault(key, []).append(index)
        return [list(cohorts.values()) for cohorts in waves]

    @staticmethod
    def _shared_stateful_abr_ids(specs) -> set[int]:
        """Ids of stateful ABR instances shared by several specs of a batch.

        In the event-ordered reference engine concurrent sessions sharing one
        *stateful* ABR instance deterministically share its internal state
        ("one user, one ABR brain"); lockstep cohorts keep per-row state and
        cannot reproduce that interleaving, so a networked batch holding such
        specs runs on the reference engine.  A class is stateful when it
        overrides :meth:`~repro.abr.base.ABRAlgorithm.reset` (detected by the
        resolved method's qualname to avoid importing :mod:`repro.abr` from
        this lower layer; duck-typed policies outside the base hierarchy are
        conservatively treated as stateful).
        """
        counts: dict[int, int] = {}
        for spec in specs:
            reset = getattr(type(spec.abr), "reset", None)
            qualname = getattr(reset, "__qualname__", "")
            if qualname != "ABRAlgorithm.reset":
                counts[id(spec.abr)] = counts.get(id(spec.abr), 0) + 1
        return {abr_id for abr_id, count in counts.items() if count > 1}

    @staticmethod
    def _controller_wrapped(abr) -> bool:
        """True for LingXi-style wrappers (``.inner`` + ``.controller``)."""
        return (
            getattr(abr, "controller", None) is not None
            and getattr(abr, "inner", None) is not None
        )

    @staticmethod
    def _vectorizable(spec: SessionSpec) -> bool:
        """True when both the ABR and the exit model ship vector kernels.

        The kernel must be defined by the spec's *exact* class
        (:func:`has_vector_kernel`): a subclass without its own kernel falls
        back to the scalar engine.

        LingXi-style wrappers (``.inner`` + ``.controller`` + ``observe``
        hook) are vectorizable when their *inner* algorithm ships a kernel:
        the per-segment feedback loop then runs through a
        :class:`~repro.core.vector_host.VectorControllerHost` instead of the
        scalar engine.  Other ABRs with an ``observe`` hook stay on the
        scalar path.
        """
        abr = spec.abr
        if VectorBackend._controller_wrapped(abr):
            inner = abr.inner
            if not has_vector_kernel(inner):
                return False
            if getattr(inner, "observe", None) is not None:
                return False
        else:
            if not has_vector_kernel(abr):
                return False
            if getattr(abr, "observe", None) is not None:
                return False
        if spec.exit_model is not None:
            if "vector_exit_kernel" not in type(spec.exit_model).__dict__:
                return False
        return True

    @classmethod
    def _build_abr_kernel(cls, specs, ladder, max_steps: int):
        """ABR kernel + optional controller host for one homogeneous group.

        Plain policies supply their own ``vector_kernel``; controller-wrapped
        policies (LingXi) build the kernel over their *inner* algorithms and
        attach a :class:`~repro.core.vector_host.VectorControllerHost` that
        replays the per-segment feedback loop after every lockstep step.
        Either way every spec's ABR is reset exactly like the scalar engine
        would at session start.
        """
        first = specs[0].abr
        if cls._controller_wrapped(first):
            from repro.core.vector_host import VectorControllerHost

            policies = [spec.abr.inner for spec in specs]
            host = VectorControllerHost(
                [spec.abr for spec in specs],
                ladder=ladder,
                segment_duration=float(specs[0].video.segment_duration),
                max_steps=max_steps,
            )
        else:
            policies = [spec.abr for spec in specs]
            host = None
        kernel = type(policies[0]).vector_kernel(policies)
        for spec in specs:
            spec.abr.reset()
        return kernel, host

    @staticmethod
    def _play(
        cohorts: list[_Cohort], specs, config: SessionConfig, network, link_usage
    ) -> None:
        """The one slot loop: advance a wave's cohorts together to their end.

        At every slot each cohort steps its playing rows at one throughput
        each: without a network, a row's trace sample.  With one, the slot
        gathers all cohorts' access-link demands into one batch-order vector,
        fair-shares each link through the same
        :func:`~repro.net.allocator.allocate_step` the scalar reference engine
        calls, and feeds the allocations back as the observed throughput, so
        Equation 3, the ABR windows and the exit kernels all see congestion.

        After the steps, each LingXi cohort's controller host runs one round
        of every activation in flight (:meth:`~repro.core.vector_host.
        VectorControllerHost.advance`), and the loop runs while any row can
        still play or any activation is in flight.  Without a network the
        rows never interact, so a row waits in the host's hold for its
        activation while the others play on.  On a network allocation
        couples the rows through the slot, so the hosts advance until
        nothing is in flight within the slot and no row is ever held.
        """
        if network is not None:
            num_sessions = len(specs)
            link_index = resolve_link_indices(network, specs)
            weights = np.asarray([spec.weight for spec in specs], dtype=float)
            demand = np.zeros(num_sessions)
            active = np.zeros(num_sessions, dtype=bool)
            full_path: np.ndarray | None = None
            if network.has_tiers:
                # Per-segment cache-miss masks from the same
                # ``NetworkTopology.miss_rows`` as the scalar reference, one
                # call for the batch so each user's profile is drawn once.
                full_path = np.zeros(num_sessions, dtype=bool)
                masks = iter(
                    network.miss_rows(
                        [spec.user_id for cohort in cohorts for spec in cohort.specs],
                        [limit for cohort in cohorts for limit in cohort.max_seg.tolist()],
                    )
                )
                for cohort in cohorts:
                    cohort.miss = np.concatenate([next(masks) for _ in cohort.specs])
                    cohort.miss_start = np.cumsum(cohort.max_seg) - cohort.max_seg

        hosts = [cohort.host for cohort in cohorts if cohort.host is not None]
        k = 0
        while True:
            obs_live.pulse()  # wall-clock heartbeat; no-op without a live run
            stepping: list[tuple[_Cohort, _Slot]] = []
            runnable = False
            for cohort in cohorts:
                t = k - cohort.start
                if t < 0:
                    # Not started: the cohort still counts as runnable (the
                    # scalar engine keeps emitting idle-slot usage samples
                    # while any future session exists), but takes no capacity.
                    runnable = True
                    continue
                slot = cohort.slot(t)
                if slot.rows.size:
                    runnable = True
                    stepping.append((cohort, slot))
                elif not runnable:
                    # Rows yet to start or held count as runnable too.
                    runnable = cohort.pending()
            if not runnable:
                break
            throughputs = [cohort.demand(slot) for cohort, slot in stepping]
            if network is not None:
                demand[:] = 0.0
                active[:] = False
                if full_path is not None:
                    full_path[:] = False
                positions = [cohort.indices[slot.rows] for cohort, slot in stepping]
                for (cohort, slot), rows, wanted in zip(stepping, positions, throughputs):
                    demand[rows] = wanted
                    active[rows] = True
                    if full_path is not None:
                        full_path[rows] = cohort.miss[cohort.miss_start[slot.rows] + slot.j]
                obs.counter_add("vector.net_slots")
                allocations = allocate_step(
                    network,
                    k,
                    link_index,
                    demand,
                    active,
                    weights,
                    usage_out=link_usage,
                    full_path=full_path,
                )
                throughputs = [allocations[rows] for rows in positions]
            if stepping:
                with obs.span("vector.step"):
                    for (cohort, slot), throughput in zip(stepping, throughputs):
                        cohort.step(slot, throughput, config)
            for host in hosts:
                host.advance()
                while network is not None and host.in_flight:
                    host.advance()
            k += 1

    def _build_cohort(
        self, indices: list[int], specs, config: SessionConfig, staggered: bool
    ) -> _Cohort:
        """Input tables and fresh lockstep state for the specs at batch ``indices``.

        With ``staggered`` (networked batches) each row starts at its spec's
        ``start_step``; otherwise every row starts at slot 0.  Every distinct
        trace and video enters its table once (a user's sessions repeat
        them); no input is copied per row.
        """
        obs.counter_add("vector.cohorts")
        obs.observe("vector.cohort_sessions", len(indices))
        limits = [specs[i].video.num_segments for i in indices]
        if config.max_segments is not None:
            limits = [min(limit, config.max_segments) for limit in limits]
        starts = np.asarray(
            [specs[i].start_step for i in indices] if staggered else [0] * len(indices),
            dtype=int,
        )
        start = int(starts.min())
        max_seg = np.asarray(limits, dtype=int)
        members = [specs[i] for i in indices]
        first_video = members[0].video
        bitrates = np.asarray(first_video.ladder.bitrates_kbps, dtype=float)
        n = len(members)
        max_steps = int(max_seg.max())
        # The largest array first, so that it takes the heap's largest free
        # block before the smaller ones below split it: allocated last, it
        # grew a fleet day's peak RSS by its whole size (24 MB on
        # ``fleet_plain``) once freed blocks of earlier days were reused.
        segments = np.zeros((n, max_steps), dtype=SEGMENT_DTYPE)
        bandwidth, trace_start, trace_len = _input_table(
            [spec.trace for spec in members],
            lambda trace: np.asarray(trace.values_kbps, dtype=float),
        )
        sizes, video_start, _ = _input_table(
            [spec.video for spec in members],
            lambda video: np.asarray(video.segment_sizes_kbit, dtype=float),
        )

        abr_kernel, host = self._build_abr_kernel(members, first_video.ladder, max_steps)
        if members[0].exit_model is not None:
            models = [spec.exit_model for spec in members]
            exit_kernel = type(models[0]).vector_exit_kernel(models)
            for model in models:
                model.reset()
            # One Philox substream per session, pre-drawn: row i's uniforms
            # equal the sequence the scalar engine would draw step by step.
            uniforms = np.empty((n, max_steps))
            for i, spec in enumerate(members):
                uniforms[i] = session_rng(spec.seed).random(max_steps)
        else:
            exit_kernel = None
            uniforms = None

        cohort = _Cohort(
            indices=np.asarray(indices, dtype=int),
            specs=members,
            start=start,
            offset=starts - start,
            max_seg=max_seg,
            max_steps=max_steps,
            segment_duration=float(first_video.segment_duration),
            bitrates=bitrates,
            bandwidth=bandwidth,
            trace_start=trace_start,
            trace_len=trace_len,
            sizes=sizes,
            video_start=video_start,
            segments=segments,
            abr_kernel=abr_kernel,
            exit_kernel=exit_kernel,
            uniforms=uniforms,
            host=host,
        )
        cohort.buffer[:] = float(config.initial_buffer)
        return cohort


def _input_table(objects: list, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(table, start, length)``: each distinct object's ``values(obj)`` once,
    concatenated along the first axis, and per row the start and length of
    its object's entry (objects are told apart by identity)."""
    entries: dict[int, tuple[int, int]] = {}
    parts: list[np.ndarray] = []
    size = 0
    start = np.empty(len(objects), dtype=int)
    length = np.empty(len(objects), dtype=int)
    for row, obj in enumerate(objects):
        entry = entries.get(id(obj))
        if entry is None:
            part = values(obj)
            entry = entries[id(obj)] = (size, len(part))
            parts.append(part)
            size += len(part)
        start[row], length[row] = entry
    return np.concatenate(parts), start, length


register_backend("vector", VectorBackend)
