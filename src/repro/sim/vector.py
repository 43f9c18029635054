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
batched across every concurrently-optimizing session.  Sessions whose ABR or
exit model still has no vector kernel (Pensieve, custom classes) fall back
to the scalar engine behind the same ``run_batch`` interface, in spec order;
the backend counts them (``last_fallback_sessions`` /
``total_fallback_sessions``) so fleets can assert they stayed on the fast
path.  A networked batch couples every session at every slot, so it cannot
split that way: it runs lockstep when every spec is vectorizable and no
stateful ABR instance is shared, and otherwise runs whole on the
event-ordered reference engine (:mod:`repro.sim.networked`), every session
counted as a fallback.  A networked batch holds one cohort per kernel key
whatever its sessions' start slots: every row plays its own local segment,
and a cohort steps exactly the rows that play at the slot — started, before
their end and alive (:class:`_Cohort`).
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
    are before their end and are alive; ``j`` is each one's local segment
    index and ``cell`` its entry in the flattened ``(n, max_steps)`` arrays.
    """

    t: int
    rows: np.ndarray
    j: np.ndarray
    cell: np.ndarray


@dataclass
class _Cohort:
    """One internally-lockstep cohort of a batch.

    Sessions are grouped by ABR type, exit type, ladder and segment
    duration, so the vector kernels and window reductions apply to every
    row.  :meth:`step` is the vector engine's only per-segment rule;
    independent batches feed it the trace column, networked batches the
    shared allocator's answer.  Rows keep per-row, local-step storage:
    column ``j`` of a row is its ``j``-th segment.

    In a networked batch the rows start at their own slots: a row that
    starts ``offset`` slots after the cohort's first (``start``) plays local
    segment ``j = t - offset`` at cohort slot ``t``; an independent batch's
    rows all start at slot 0.  :meth:`step` advances exactly the rows that
    play at the slot (:meth:`slot`): started, before their end and alive.
    It reaches every per-row input and output through their cells, and the
    kernels it calls read and update only those rows.  Rows are sorted
    stably by descending end slot ``offset + max_seg`` (``indices`` maps
    them back to batch positions), so the rows whose end slot is after
    ``t`` form the prefix ``[:live[t]]`` that :meth:`slot` searches.
    """

    indices: np.ndarray  # batch positions of the cohort's sessions
    specs: list
    start: int  # batch slot of the cohort's slot 0
    offset: np.ndarray  # per-row start slot relative to ``start``
    max_seg: np.ndarray  # per-row segment limit
    max_steps: int
    segment_duration: float
    bitrates: np.ndarray
    bandwidth: np.ndarray  # (n, max_steps) trace rows (access-link demand)
    sizes: np.ndarray  # (n, max_steps, L)
    # The recorded segments, zeroed: step j writes column j, never reads it.
    segments: np.ndarray
    abr_kernel: object
    exit_kernel: object | None
    uniforms: np.ndarray | None
    host: object | None = None
    miss: np.ndarray | None = None  # (n, max_steps) cache-miss mask (tiered)
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
        # live[t]: rows whose end slot is after t, a prefix because the end
        # slots descend.
        ends = self.offset + self.max_seg
        self.horizon = int(ends[0])
        self.live = np.searchsorted(-ends, -np.arange(self.horizon), side="left").tolist()
        self.cell_base = np.arange(n) * self.max_steps
        # windows[i, j]: row i's throughput window before its step j.
        self.windows = sliding_window_view(self.observed, _WINDOW, axis=1)

    def slot(self, t: int) -> _Slot:
        """The rows that play at cohort slot ``t`` and their local steps."""
        m = self.live[t]
        offset = self.offset[:m]
        rows = np.flatnonzero(self.alive[:m] & (offset <= t))
        j = t - offset[rows]
        return _Slot(t, rows, j, self.cell_base[rows] + j)

    @staticmethod
    def column(values: np.ndarray, slot: _Slot) -> np.ndarray:
        """Each playing row's entry of an ``(n, max_steps)`` array at the slot."""
        return values.reshape(-1)[slot.cell]

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
        sizes = self.sizes.reshape(-1, self.bitrates.size)[cell]
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
            exits = self.column(self.uniforms, slot) < probabilities
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
        if network is not None:
            # Allocation couples every session at every slot, so a networked
            # batch cannot split into per-session fallbacks the way an
            # independent batch can: it runs lockstep whole, or whole on the
            # event-ordered reference engine.
            shared_stateful = self._shared_stateful_abr_ids(specs)
            lockstep = bool(specs) and not shared_stateful and all(
                self._vectorizable(spec) for spec in specs
            )
            self._record_fallback(0 if lockstep else len(specs), len(specs))
            if lockstep:
                return self._run_networked(specs, config, network, link_usage)
            return run_networked_scalar(specs, network, config, link_usage=link_usage)
        results: list[PlaybackTrace | None] = [None] * len(specs)

        groups: dict[tuple, list[int]] = {}
        fallback: list[int] = []
        # Controller-wrapped specs sharing one ABR instance (one user, several
        # sessions) carry controller state *across* sessions, which the scalar
        # loop plays out sequentially.  Splitting them into waves by
        # occurrence index — every instance's first session in wave 0, its
        # second in wave 1, ... — and running the waves in order preserves
        # that sequencing exactly: un-networked sessions are independent
        # across users, so a user's n-th session only needs their first n-1
        # sessions (earlier waves) to have completed.
        occurrence: dict[int, int] = {}
        for index, spec in enumerate(specs):
            if self._vectorizable(spec):
                if self._controller_wrapped(spec.abr):
                    wave = occurrence.get(id(spec.abr), 0)
                    occurrence[id(spec.abr)] = wave + 1
                    abr_key: tuple = (type(spec.abr), type(spec.abr.inner))
                else:
                    wave = 0
                    abr_key = (type(spec.abr), None)
                key = (
                    wave,
                    abr_key,
                    None if spec.exit_model is None else type(spec.exit_model),
                    spec.video.ladder.bitrates_kbps,
                    spec.video.segment_duration,
                )
                groups.setdefault(key, []).append(index)
            else:
                fallback.append(index)
        self._record_fallback(len(fallback), len(specs))

        for key, indices in sorted(groups.items(), key=lambda item: item[0][0]):  # contract: DET-ITER-003
            cohort = self._run_group(indices, specs, config)
            for index, trace in zip(cohort.indices.tolist(), cohort.traces()):
                results[index] = trace
            obs_live.add_sessions(len(indices))

        if fallback:
            fallback_traces = ScalarBackend().run_batch(
                [specs[index] for index in fallback], config
            )
            for index, trace in zip(fallback, fallback_traces):
                results[index] = trace
        return results

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
    def _build_abr_kernel(cls, specs, ladder):
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
            )
        else:
            policies = [spec.abr for spec in specs]
            host = None
        kernel = type(policies[0]).vector_kernel(policies)
        for spec in specs:
            spec.abr.reset()
        return kernel, host

    def _run_group(self, indices: list[int], specs, config: SessionConfig) -> _Cohort:
        """Advance one independent cohort, feeding its trace column to each
        step; returns the finished cohort, whose rows are in its own order."""
        obs.counter_add("vector.cohorts")
        obs.observe("vector.cohort_sessions", len(indices))
        with obs.span("vector.run_group"):
            cohort = self._build_cohort(indices, specs, config)
            for k in range(cohort.horizon):
                slot = cohort.slot(k)
                if not slot.rows.size:
                    break
                obs_live.pulse()  # wall-clock heartbeat; no-op without a live run
                with obs.span("vector.step"):
                    cohort.step(slot, cohort.column(cohort.bandwidth, slot), config)
            return cohort

    def _run_networked(
        self, specs, config: SessionConfig, network, link_usage
    ) -> list[PlaybackTrace]:
        """Coupled lockstep execution: cohorts advance, links fair-share.

        Every spec is vectorizable and no stateful ABR instance is shared
        (``run_batch`` sends any other networked batch whole to
        :func:`~repro.sim.networked.run_networked_scalar`).  The batch is
        partitioned into one :class:`_Cohort` per kernel key (ABR / exit
        types, ladder, segment duration) whatever the sessions' start slots:
        at every slot each cohort's started rows play their own local
        segment.  Every slot gathers all cohorts' access-link demands into
        one batch-order vector, fair-shares each link through the same
        :func:`~repro.net.allocator.allocate_step` the scalar reference
        engine calls, and feeds the allocations back as the step's observed
        throughput — Equation 3, the ABR kernels' windows and the exit
        kernels all see congestion, which is what closes the feedback loop
        between load and quality.
        """
        num_sessions = len(specs)
        link_index = resolve_link_indices(network, specs)
        weights = np.asarray([spec.weight for spec in specs], dtype=float)
        grouped: dict[tuple, list[int]] = {}
        for index, spec in enumerate(specs):
            key = (
                type(spec.abr),
                type(spec.abr.inner) if self._controller_wrapped(spec.abr) else None,
                None if spec.exit_model is None else type(spec.exit_model),
                spec.video.ladder.bitrates_kbps,
                spec.video.segment_duration,
            )
            grouped.setdefault(key, []).append(index)
        groups = [
            self._build_cohort(indices, specs, config, staggered=True)
            for indices in grouped.values()
        ]

        horizon = max(group.start + group.horizon for group in groups)
        demand = np.zeros(num_sessions)
        active_global = np.zeros(num_sessions, dtype=bool)

        # Multi-tier topologies: identity-keyed per-segment cache-miss masks
        # from the same ``NetworkTopology.miss_rows`` as the scalar reference
        # (``CacheModel`` draws keyed by (user_id, local segment index)), each
        # row drawn up to its own segment limit and padded with ``False``.
        tiered = network.has_tiers
        full_path: np.ndarray | None = None
        if tiered:
            full_path = np.zeros(num_sessions, dtype=bool)
            miss_rows = iter(
                network.miss_rows(
                    [spec.user_id for group in groups for spec in group.specs],
                    [limit for group in groups for limit in group.max_seg.tolist()],
                )
            )
            for group in groups:
                group.miss = np.zeros((len(group.specs), group.max_steps), dtype=bool)
                for row, limit in zip(group.miss, group.max_seg.tolist()):
                    row[:limit] = next(miss_rows)

        for k in range(horizon):
            obs_live.pulse()  # wall-clock heartbeat; no-op without a live run
            demand[:] = 0.0
            active_global[:] = False
            if tiered:
                full_path[:] = False
            stepping: list[tuple[_Cohort, _Slot, np.ndarray]] = []
            runnable_any = False
            for group in groups:
                t = k - group.start
                if t < 0:
                    # Not started: the cohort still counts as runnable (the
                    # scalar engine keeps emitting idle-slot usage samples
                    # while any future session exists), but takes no capacity.
                    runnable_any = True
                    continue
                if t >= group.horizon:
                    continue
                slot = group.slot(t)
                if slot.rows.size:
                    runnable_any = True
                    positions = group.indices[slot.rows]
                    stepping.append((group, slot, positions))
                    demand[positions] = group.column(group.bandwidth, slot)
                    active_global[positions] = True
                    if tiered:
                        full_path[positions] = group.column(group.miss, slot)
                elif not runnable_any:
                    # Rows yet to start count as runnable too.
                    runnable_any = bool(group.alive[: group.live[t]].any())
            if not runnable_any:
                break
            obs.counter_add("vector.net_slots")
            allocations = allocate_step(
                network,
                k,
                link_index,
                demand,
                active_global,
                weights,
                usage_out=link_usage,
                full_path=full_path,
            )
            if stepping:
                with obs.span("vector.step"):
                    for group, slot, positions in stepping:
                        group.step(slot, allocations[positions], config)

        results: list[PlaybackTrace | None] = [None] * num_sessions
        for group in groups:
            for index, trace in zip(group.indices, group.traces()):
                results[int(index)] = trace
        return results

    def _build_cohort(
        self, indices: list[int], specs, config: SessionConfig, staggered: bool = False
    ) -> _Cohort:
        """Inputs and fresh lockstep state for the specs at batch ``indices``.

        With ``staggered`` (networked batches) each row starts at its spec's
        ``start_step``; otherwise every row starts at slot 0.  Rows are
        sorted stably by descending end slot, so the rows still before their
        end at any slot form a prefix.
        """
        limits = [specs[i].video.num_segments for i in indices]
        if config.max_segments is not None:
            limits = [min(limit, config.max_segments) for limit in limits]
        starts = np.asarray(
            [specs[i].start_step for i in indices] if staggered else [0] * len(indices),
            dtype=int,
        )
        start = int(starts.min())
        order = np.argsort(-(starts + limits), kind="stable")
        indices = [indices[i] for i in order.tolist()]
        max_seg = np.asarray(limits, dtype=int)[order]
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

        # Cyclic bandwidth rows and the (n, max_steps, L) segment-size tensor
        # (videos and traces repeat across sessions of the same user, so a
        # repeat copies the first row built from the same object).
        bandwidth = np.empty((n, max_steps))
        trace_rows: dict[int, int] = {}
        for i, spec in enumerate(members):
            first = trace_rows.setdefault(id(spec.trace), i)
            if first == i:
                bandwidth[i] = np.resize(
                    np.asarray(spec.trace.values_kbps, dtype=float), max_steps
                )
            else:
                bandwidth[i] = bandwidth[first]
        sizes = np.empty((n, max_steps, bitrates.size))
        video_rows: dict[int, int] = {}
        step_index = np.arange(max_steps)
        for i, spec in enumerate(members):
            first = video_rows.setdefault(id(spec.video), i)
            if first == i:
                sizes[i] = spec.video.segment_sizes_kbit[
                    step_index % spec.video.num_segments
                ]
            else:
                sizes[i] = sizes[first]

        abr_kernel, host = self._build_abr_kernel(members, first_video.ladder)
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
            offset=starts[order] - start,
            max_seg=max_seg,
            max_steps=max_steps,
            segment_duration=float(first_video.segment_duration),
            bitrates=bitrates,
            bandwidth=bandwidth,
            sizes=sizes,
            segments=segments,
            abr_kernel=abr_kernel,
            exit_kernel=exit_kernel,
            uniforms=uniforms,
            host=host,
        )
        cohort.buffer[:] = float(config.initial_buffer)
        return cohort


register_backend("vector", VectorBackend)
