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
segment** (exact `SegmentRecord` equality, enforced by
``tests/test_vector_backend.py``).  Three design rules make that possible:

* every session draws exit uniforms from its own `Philox` substream
  (:func:`~repro.sim.backend.session_rng`), so lockstep reordering cannot
  shift anyone's randomness — a pre-generated ``rng.random(n)`` row equals
  ``n`` sequential ``rng.random()`` calls on the same stream;
* all array expressions mirror the scalar code's floating-point operation
  order (including the bandwidth-window mean/std reductions, which NumPy
  evaluates with the same pairwise summation row-wise as it does for the
  scalar model's 1-D window);
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
path.  In networked mode the same split is cohort-level: lockstep cohorts
and event-ordered reference sessions share one ``allocate_step`` per slot.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

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
from repro.sim.session import LiveSession, PlaybackTrace, SegmentRecord, SessionConfig

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
    """

    k: int
    buffer: np.ndarray
    buffer_cap: np.ndarray
    last_level: np.ndarray
    segment_sizes: np.ndarray  # (N, num_levels) sizes of this step's segment
    throughput_window: np.ndarray  # (N, min(k, 8)) recent throughputs, oldest first
    bandwidth_mean: np.ndarray
    bandwidth_std: np.ndarray
    bitrates: np.ndarray  # (num_levels,) shared ladder
    segment_duration: float

    def harmonic_throughput(self, windows: np.ndarray) -> np.ndarray:
        """Per-session harmonic-mean throughput over the last ``windows[i]`` samples.

        Mirrors :meth:`repro.abr.base.ABRAlgorithm.estimate_throughput`
        (falling back to the bandwidth-model mean when no history exists yet).
        Sessions are grouped by window length so each group reduces over the
        same slice shape the scalar estimator sees.
        """
        available = self.throughput_window.shape[1]
        unique = np.unique(windows)
        if unique.size == 1:
            effective = min(int(unique[0]), available)
            if effective == 0:
                return self.bandwidth_mean.copy()
            values = self.throughput_window[:, available - effective :]
            return effective / np.sum(1.0 / values, axis=1)
        out = np.empty(windows.shape[0])
        for window in unique:
            rows = windows == window
            effective = min(int(window), available)
            if effective == 0:
                out[rows] = self.bandwidth_mean[rows]
            else:
                values = self.throughput_window[rows][:, available - effective :]
                out[rows] = effective / np.sum(1.0 / values, axis=1)
        return out


@dataclass
class ExitStepView:
    """Struct-of-arrays exit-model view for one lockstep step.

    The vector twin of :class:`~repro.sim.session.ExitObservation` (plus the
    ``active``/``stalled`` masks kernels need for masked scalar fallbacks).
    ``watch_time`` is a scalar: in lockstep every session is at the same
    segment index.  ``previous_level`` uses ``-1`` for ``None``.
    """

    k: int
    level: np.ndarray
    previous_level: np.ndarray
    stall_time: np.ndarray
    cumulative_stall_time: np.ndarray
    stall_count: np.ndarray
    watch_time: float
    buffer: np.ndarray
    throughput: np.ndarray
    active: np.ndarray
    stalled: np.ndarray


@dataclass
class _Cohort:
    """One internally-lockstep cohort of a batch.

    Sessions are grouped by (ABR type, exit type, ladder, segment duration,
    and ``start_step`` in networked batches): within a cohort every session
    sits at the same *local* segment index at every step, so the vector
    kernels and window reductions apply unchanged.  :meth:`step` is the
    vector engine's only per-segment rule; independent batches feed it the
    trace column, networked batches the shared allocator's answer.
    """

    indices: np.ndarray  # batch positions of the cohort's sessions
    specs: list
    start: int
    max_seg: np.ndarray
    max_steps: int
    segment_duration: float
    bitrates: np.ndarray
    bandwidth: np.ndarray  # (n, max_steps) trace rows (access-link demand)
    sizes: np.ndarray  # (n, max_steps, L)
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
    observed: np.ndarray = field(init=False)  # throughput seen per local step

    def __post_init__(self) -> None:
        n = len(self.specs)
        self.buffer = np.empty(n)  # filled by the engine (initial_buffer)
        self.last_level = np.full(n, -1, dtype=int)
        self.cumulative_stall = np.zeros(n)
        self.stall_count = np.zeros(n, dtype=int)
        self.alive = np.ones(n, dtype=bool)
        self.exited_early = np.zeros(n, dtype=bool)
        self.steps_taken = np.zeros(n, dtype=int)
        self.observed = np.zeros((n, self.max_steps))
        self.level_rec = np.zeros((n, self.max_steps), dtype=int)
        self.size_rec = np.empty((n, self.max_steps))
        self.download_rec = np.empty((n, self.max_steps))
        self.stall_rec = np.empty((n, self.max_steps))
        self.wait_rec = np.empty((n, self.max_steps))
        self.buffer_before_rec = np.empty((n, self.max_steps))
        self.buffer_after_rec = np.empty((n, self.max_steps))
        self.cumulative_rec = np.empty((n, self.max_steps))
        self.stall_count_rec = np.zeros((n, self.max_steps), dtype=int)
        self.probability_rec = np.zeros((n, self.max_steps))

    def step(  # contract: SIM-STEP-007
        self,
        j: int,
        active: np.ndarray,
        allocated: np.ndarray,
        config: SessionConfig,
    ) -> None:
        """Advance the cohort one local step at throughputs ``allocated``.

        Equation 3 as array math in the scalar player's operation order, then
        the exit draw, then the controller host's ``observe`` step.  The
        bandwidth-window statistics read from the cohort's *observed*
        throughput history — exactly what the scalar player's
        :class:`~repro.sim.bandwidth.BandwidthModel` accumulates.
        """
        n = len(self.specs)
        row_index = np.arange(n)
        # Rows that are done or exited must stay finite through the shared
        # array expressions; their values are never recorded.
        alloc = np.where(active, allocated, 1.0)

        if j == 0:
            window = self.observed[:, 0:0]
            mean = np.full(n, _PRIOR_MEAN)
        else:
            window = self.observed[:, max(0, j - _WINDOW) : j]
            mean = window.mean(axis=1)
        if j < 2:
            std = np.full(n, _PRIOR_STD)
        else:
            std = np.maximum(np.std(window, axis=1, ddof=1), 1e-6)
        buffer_cap = dynamic_buffer_cap(mean, std, base_cap=config.base_buffer_cap)

        context = VectorStepContext(
            k=j,
            buffer=self.buffer,
            buffer_cap=buffer_cap,
            last_level=self.last_level,
            segment_sizes=self.sizes[:, j, :],
            throughput_window=window,
            bandwidth_mean=mean,
            bandwidth_std=std,
            bitrates=self.bitrates,
            segment_duration=self.segment_duration,
        )
        levels = np.asarray(self.abr_kernel(context), dtype=int)
        num_levels = self.bitrates.size
        if np.any(active & ((levels < 0) | (levels >= num_levels))):
            raise ValueError(
                f"vector ABR kernel returned levels outside "
                f"[0, {num_levels}) at step {j}"
            )
        levels = np.where(active, levels, 0)

        size = self.sizes[:, j, :][row_index, levels]
        download = size / alloc
        if j == 0:
            stall = np.where(
                self.buffer == 0.0, 0.0, np.maximum(download - self.buffer, 0.0)
            )
        else:
            stall = np.maximum(download - self.buffer, 0.0)
        drained = np.maximum(self.buffer - download, 0.0)
        unclipped = drained + self.segment_duration
        overflow = np.maximum(unclipped - buffer_cap, 0.0)
        wait = overflow + config.rtt
        buffer_after = np.maximum(unclipped - overflow, 0.0)
        buffer_after = np.minimum(buffer_after, buffer_cap)

        stalled = stall > 1e-12
        self.cumulative_stall = np.where(
            active, self.cumulative_stall + stall, self.cumulative_stall
        )
        self.stall_count = self.stall_count + (active & stalled)

        if self.exit_kernel is not None:
            view = ExitStepView(
                k=j,
                level=levels,
                previous_level=self.last_level,
                stall_time=stall,
                cumulative_stall_time=self.cumulative_stall,
                stall_count=self.stall_count,
                watch_time=(j + 1) * self.segment_duration,
                buffer=buffer_after,
                throughput=alloc,
                active=active,
                stalled=stalled,
            )
            probabilities = np.asarray(self.exit_kernel(view), dtype=float)
            # NaN must fail this check too (the scalar engine's
            # `not 0.0 <= p <= 1.0` rejects it), hence the negated form.
            if np.any(
                active & ~((probabilities >= 0.0) & (probabilities <= 1.0))
            ):
                raise ValueError("exit probability must be in [0, 1]")
            exits = active & (self.uniforms[:, j] < probabilities)
            self.probability_rec[:, j] = probabilities
        else:
            exits = np.zeros(n, dtype=bool)

        self.level_rec[:, j] = levels
        self.size_rec[:, j] = size
        self.download_rec[:, j] = download
        self.stall_rec[:, j] = stall
        self.wait_rec[:, j] = wait
        self.buffer_before_rec[:, j] = self.buffer
        self.buffer_after_rec[:, j] = buffer_after
        self.cumulative_rec[:, j] = self.cumulative_stall
        self.stall_count_rec[:, j] = self.stall_count
        self.observed[:, j] = alloc

        if self.host is not None:
            # Same point in the segment lifecycle as the scalar engine's
            # ``observe`` hook: after the exit draw, before the next
            # segment's decision — parameter adjustments land on j+1.
            self.host.observe_step(
                active=active,
                levels=levels,
                stall=stall,
                throughput=alloc,
                buffer_after=buffer_after,
                exits=exits,
                bitrates=self.bitrates,
            )

        self.steps_taken[active] = j + 1
        self.exited_early |= exits
        self.alive &= ~exits
        self.buffer = np.where(active, buffer_after, self.buffer)
        self.last_level = np.where(active, levels, self.last_level)

    def traces(self) -> list[PlaybackTrace]:
        """Finalize the controller host; materialise one trace per session."""
        if self.host is not None:
            self.host.finalize()
        traces = []
        for i, spec in enumerate(self.specs):
            n = int(self.steps_taken[i])
            exited_early = bool(self.exited_early[i])
            levels = self.level_rec[i, :n]
            exited_flags = [False] * n
            if n and exited_early:
                exited_flags[-1] = True
            records = [
                SegmentRecord(*row)
                for row in zip(
                    range(n),
                    levels.tolist(),
                    self.bitrates[levels].tolist(),
                    self.size_rec[i, :n].tolist(),
                    self.observed[i, :n].tolist(),
                    self.download_rec[i, :n].tolist(),
                    self.stall_rec[i, :n].tolist(),
                    self.wait_rec[i, :n].tolist(),
                    self.buffer_before_rec[i, :n].tolist(),
                    self.buffer_after_rec[i, :n].tolist(),
                    ((np.arange(n) + 1) * self.segment_duration).tolist(),
                    self.cumulative_rec[i, :n].tolist(),
                    self.stall_count_rec[i, :n].tolist(),
                    self.probability_rec[i, :n].tolist(),
                    exited_flags,
                )
            ]
            traces.append(
                PlaybackTrace(
                    user_id=spec.user_id,
                    video_duration=spec.video.duration,
                    segment_duration=spec.video.segment_duration,
                    trace_name=spec.trace.name,
                    records=records,
                    exited_early=exited_early,
                )
            )
        return traces


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
            spec if isinstance(spec.seed, np.random.SeedSequence) else replace(spec, seed=seed)
            for spec, seed in zip(specs, resolve_session_seeds(specs))
        ]
        if network is not None:
            # Allocation couples every session at every slot, so a networked
            # batch cannot split into per-session fallbacks the way an
            # independent batch can — but it *can* split into cohorts:
            # vectorizable cohorts stay lockstep, truly scalar cohorts run as
            # event-ordered reference sessions, and both sides meet at the
            # same shared per-slot ``allocate_step`` call.
            shared_stateful = self._shared_stateful_abr_ids(specs)
            scalar_indices = [
                index
                for index, spec in enumerate(specs)
                if not self._vectorizable(spec) or id(spec.abr) in shared_stateful
            ]
            self._record_fallback(len(scalar_indices), len(specs))
            if len(scalar_indices) == len(specs):
                return run_networked_scalar(
                    specs, network, config, link_usage=link_usage
                )
            return self._run_networked(
                specs, config, network, link_usage, scalar_indices
            )
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
            for index, trace in zip(indices, self._run_group(indices, specs, config)):
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
        cannot reproduce that interleaving, so those specs must route to the
        scalar side of a networked batch.  A class is stateful when it
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

        The kernel must be defined by the spec's *exact* class (``__dict__``
        lookup, not inheritance): a subclass that overrides ``select_level``
        without providing its own kernel must fall back to the scalar engine
        rather than silently run the parent's vectorized decision rule.

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
            if "vector_kernel" not in type(inner).__dict__:
                return False
            if getattr(inner, "observe", None) is not None:
                return False
        else:
            if "vector_kernel" not in type(abr).__dict__:
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

    def _run_group(
        self, indices: list[int], specs, config: SessionConfig
    ) -> list[PlaybackTrace]:
        """Advance one independent cohort, feeding its trace column to each step."""
        obs.counter_add("vector.cohorts")
        obs.observe("vector.cohort_sessions", len(indices))
        with obs.span("vector.run_group"):
            cohort = self._build_cohort(indices, specs, config)
            for k in range(cohort.max_steps):
                active = cohort.alive & (k < cohort.max_seg)
                if not active.any():
                    break
                obs_live.pulse()  # wall-clock heartbeat; no-op without a live run
                with obs.span("vector.step"):
                    cohort.step(k, active, cohort.bandwidth[:, k], config)
            return cohort.traces()

    def _run_networked(
        self, specs, config: SessionConfig, network, link_usage, scalar_indices=()
    ) -> list[PlaybackTrace]:
        """Coupled lockstep execution: cohorts advance, links fair-share.

        The batch is partitioned into :class:`_Cohort` cohorts (same ABR /
        exit types, ladder, segment duration and ``start_step``) that each
        stay internally lockstep; every slot gathers all cohorts' access-link
        demands into one batch-order vector, fair-shares each link through
        the same :func:`~repro.net.allocator.allocate_step` the scalar
        reference engine calls, and feeds the allocations back as the step's
        observed throughput — Equation 3, the ABR kernels' windows and the
        exit kernels all see congestion, which is what closes the feedback
        loop between load and quality.

        ``scalar_indices`` names the batch positions whose specs cannot run
        lockstep (no vector kernels, or a stateful ABR instance shared across
        concurrent sessions).  Those run as event-ordered
        :class:`~repro.sim.session.LiveSession` reference sessions *inside
        the same slot loop*: their demands join the cohort demands in the one
        ``allocate_step`` call per slot, so coupling between the fast and
        slow cohorts still flows solely through the shared allocator and the
        combined result is identical to the all-scalar reference engine.
        """
        num_sessions = len(specs)
        link_index = resolve_link_indices(network, specs)
        weights = np.asarray([spec.weight for spec in specs], dtype=float)
        scalar_set = set(scalar_indices)
        vector_indices = [i for i in range(num_sessions) if i not in scalar_set]
        grouped: dict[tuple, list[int]] = {}
        for index in vector_indices:
            spec = specs[index]
            key = (
                type(spec.abr),
                type(spec.abr.inner) if self._controller_wrapped(spec.abr) else None,
                None if spec.exit_model is None else type(spec.exit_model),
                spec.video.ladder.bitrates_kbps,
                spec.video.segment_duration,
                spec.start_step,
            )
            grouped.setdefault(key, []).append(index)
        groups = [
            self._build_cohort(indices, specs, config) for indices in grouped.values()
        ]

        # Scalar cohort: reference sessions, reset up front exactly like
        # run_networked_scalar (shared instances keep "one brain" semantics).
        scalar_order = sorted(scalar_set)  # contract: DET-ITER-003
        live: dict[int, LiveSession] = {
            index: LiveSession.from_spec(
                specs[index], session_rng(specs[index].seed), config
            )
            for index in scalar_order
        }
        for policy in {id(specs[i].abr): specs[i].abr for i in scalar_order}.values():
            policy.reset()
        for model in {
            id(specs[i].exit_model): specs[i].exit_model
            for i in scalar_order
            if specs[i].exit_model is not None
        }.values():
            model.reset()
        live_alive = {index: True for index in scalar_order}
        live_ends = {
            index: live[index].start + live[index].limit for index in scalar_order
        }

        horizon = max(
            [group.start + group.max_steps for group in groups]
            + [live_ends[index] for index in scalar_order],
        )
        demand = np.zeros(num_sessions)
        active_global = np.zeros(num_sessions, dtype=bool)

        # Multi-tier topologies: identity-keyed per-segment cache-miss masks,
        # computed exactly like the scalar reference (same ``CacheModel``
        # draws, keyed by (user_id, local segment index)).
        tiered = network.has_tiers
        full_path: np.ndarray | None = None
        live_miss: dict[int, np.ndarray] = {}
        if tiered:
            full_path = np.zeros(num_sessions, dtype=bool)
            profile_rows: dict[tuple[str, int], np.ndarray] = {}

            def _miss_row(user_id: str, length: int) -> np.ndarray:
                if network.cache is None:
                    return np.ones(length, dtype=bool)
                row = profile_rows.get((user_id, length))
                if row is None:
                    row = network.cache.miss_profile(user_id, length)
                    profile_rows[(user_id, length)] = row
                return row

            for group in groups:
                group.miss = np.stack(
                    [
                        _miss_row(spec.user_id, group.max_steps)
                        for spec in group.specs
                    ]
                )
            live_miss = {
                index: _miss_row(specs[index].user_id, live[index].limit)
                for index in scalar_order
            }

        for k in range(horizon):
            obs_live.pulse()  # wall-clock heartbeat; no-op without a live run
            demand[:] = 0.0
            active_global[:] = False
            if tiered:
                full_path[:] = False
            stepping: list[tuple[_Cohort, int, np.ndarray]] = []
            runnable_any = False
            for group in groups:
                j = k - group.start
                if j < 0:
                    # Not started: the cohort still counts as runnable (the
                    # scalar engine keeps emitting idle-slot usage samples
                    # while any future session exists), but takes no capacity.
                    runnable_any = runnable_any or bool(group.alive.any())
                    continue
                if j >= group.max_steps:
                    continue
                active = group.alive & (j < group.max_seg)
                if active.any():
                    runnable_any = True
                    stepping.append((group, j, active))
                    demand[group.indices] = np.where(
                        active, group.bandwidth[:, j], 0.0
                    )
                    active_global[group.indices] = active
                    if tiered:
                        full_path[group.indices] = active & group.miss[:, j]
            live_stepping: list[int] = []
            for index in scalar_order:
                if not live_alive[index] or k >= live_ends[index]:
                    continue
                runnable_any = True
                if live[index].start <= k:
                    live_stepping.append(index)
                    demand[index] = live[index].demand_at(k)
                    active_global[index] = True
                    if tiered:
                        full_path[index] = live_miss[index][k - live[index].start]
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
                    for group, j, active in stepping:
                        group.step(j, active, allocations[group.indices], config)
            if live_stepping:
                with obs.span("networked.session_step"):
                    for index in live_stepping:
                        if not live[index].step(k, float(allocations[index])):
                            live_alive[index] = False

        results: list[PlaybackTrace | None] = [None] * num_sessions
        for index in scalar_order:
            results[index] = live[index].playback
        for group in groups:
            for index, trace in zip(group.indices, group.traces()):
                results[int(index)] = trace
        return results

    def _build_cohort(
        self, indices: list[int], specs, config: SessionConfig
    ) -> _Cohort:
        """Inputs and fresh lockstep state for the specs at batch ``indices``."""
        members = [specs[i] for i in indices]
        first_video = members[0].video
        bitrates = np.asarray(first_video.ladder.bitrates_kbps, dtype=float)
        n = len(members)

        max_seg = np.empty(n, dtype=int)
        for i, spec in enumerate(members):
            limit = spec.video.num_segments
            if config.max_segments is not None:
                limit = min(limit, config.max_segments)
            max_seg[i] = limit
        max_steps = int(max_seg.max())

        # Cyclic bandwidth rows and the (n, max_steps, L) segment-size tensor
        # (videos and traces repeat across sessions of the same user, so both
        # are cached by identity).
        bandwidth = np.empty((n, max_steps))
        trace_rows: dict[int, np.ndarray] = {}
        for i, spec in enumerate(members):
            row = trace_rows.get(id(spec.trace))
            if row is None:
                row = np.resize(
                    np.asarray(spec.trace.values_kbps, dtype=float), max_steps
                )
                trace_rows[id(spec.trace)] = row
            bandwidth[i] = row
        sizes = np.empty((n, max_steps, bitrates.size))
        video_rows: dict[int, np.ndarray] = {}
        step_index = np.arange(max_steps)
        for i, spec in enumerate(members):
            block = video_rows.get(id(spec.video))
            if block is None:
                block = spec.video.segment_sizes_kbit[
                    step_index % spec.video.num_segments
                ]
                video_rows[id(spec.video)] = block
            sizes[i] = block

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
            start=members[0].start_step,
            max_seg=max_seg,
            max_steps=max_steps,
            segment_duration=float(first_video.segment_duration),
            bitrates=bitrates,
            bandwidth=bandwidth,
            sizes=sizes,
            abr_kernel=abr_kernel,
            exit_kernel=exit_kernel,
            uniforms=uniforms,
            host=host,
        )
        cohort.buffer[:] = float(config.initial_buffer)
        return cohort


register_backend("vector", VectorBackend)


# --------------------------------------------------------------------------- #
# Columnar trace export/import into caller-provided buffers
# --------------------------------------------------------------------------- #
# The struct-of-arrays layout of the lockstep engine does not have to die at
# the process boundary: a batch of PlaybackTraces flattens into a fixed set of
# per-field columns (one array per SegmentRecord field, plus four per-trace
# header arrays) that a shard worker writes straight into a caller-provided
# buffer — in practice a ``multiprocessing.shared_memory`` arena owned by
# ``repro.fleet.pool`` — and the parent reads back through zero-copy numpy
# views.  Strings (user ids, trace names) are deliberately *not* part of the
# columnar format; the caller carries them out of band and hands them back to
# :func:`import_trace_columns`.
#
# Round-trip contract: ``import_trace_columns(export_trace_columns(traces))``
# is *value-identical* to ``traces`` — every int/float/bool survives exactly
# (int64/float64/bool columns, ``.tolist()`` back to Python scalars), which is
# what lets the pooled fleet path stay bit-identical to the inline one.

_TRACE_FIELD_DTYPES = {"int": np.int64, "float": np.float64, "bool": np.bool_}


def _trace_field_dtype(field_type) -> np.dtype:
    name = field_type if isinstance(field_type, str) else field_type.__name__
    return np.dtype(_TRACE_FIELD_DTYPES[name])


#: ``(field_name, dtype)`` per :class:`SegmentRecord` field, in declaration
#: order (which is also the record's positional-constructor order).
TRACE_RECORD_COLUMNS: tuple[tuple[str, np.dtype], ...] = tuple(
    (f.name, _trace_field_dtype(f.type)) for f in dataclasses.fields(SegmentRecord)
)

#: Per-trace header columns: record count, video geometry, early-exit flag.
TRACE_HEADER_COLUMNS: tuple[tuple[str, np.dtype], ...] = (
    ("num_records", np.dtype(np.int64)),
    ("video_duration", np.dtype(np.float64)),
    ("segment_duration", np.dtype(np.float64)),
    ("exited_early", np.dtype(np.bool_)),
)

TRACE_COLUMNS_VERSION = 1


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _trace_regions(
    num_traces: int, num_records: int
) -> list[tuple[str, np.dtype, int]]:
    """Ordered ``(name, dtype, count)`` region walk of the columnar format."""
    regions = [
        (f"header.{name}", dtype, num_traces)
        for name, dtype in TRACE_HEADER_COLUMNS
    ]
    regions += [
        (f"records.{name}", dtype, num_records)
        for name, dtype in TRACE_RECORD_COLUMNS
    ]
    return regions


def trace_columns_nbytes(num_traces: int, num_records: int, offset: int = 0) -> int:
    """Bytes :func:`export_trace_columns` needs from ``offset`` (incl. padding)."""
    end = offset
    for _, dtype, count in _trace_regions(num_traces, num_records):
        end = _align8(end) + dtype.itemsize * count
    return end - offset


def export_trace_columns(
    traces: Sequence[PlaybackTrace], buffer, offset: int = 0
) -> tuple[dict, int]:
    """Write ``traces`` as columns into ``buffer`` starting at ``offset``.

    ``buffer`` is anything :func:`numpy.frombuffer` accepts (a
    ``SharedMemory.buf`` memoryview, a ``bytearray``, …).  Returns
    ``(layout, end_offset)``; the layout dict is JSON-safe and is all a reader
    needs besides the buffer itself and the out-of-band string columns.
    """
    num_traces = len(traces)
    num_records = sum(len(trace.records) for trace in traces)
    values: dict[str, list] = {
        "header.num_records": [len(trace.records) for trace in traces],
        "header.video_duration": [trace.video_duration for trace in traces],
        "header.segment_duration": [trace.segment_duration for trace in traces],
        "header.exited_early": [trace.exited_early for trace in traces],
    }
    for name, _ in TRACE_RECORD_COLUMNS:
        values[f"records.{name}"] = [
            getattr(record, name) for trace in traces for record in trace.records
        ]
    layout = {
        "version": TRACE_COLUMNS_VERSION,
        "traces": num_traces,
        "records": num_records,
        "regions": {},
    }
    position = offset
    for name, dtype, count in _trace_regions(num_traces, num_records):
        position = _align8(position)
        view = np.frombuffer(buffer, dtype=dtype, count=count, offset=position)
        view[:] = np.asarray(values[name], dtype=dtype)
        layout["regions"][name] = position
        position += view.nbytes
    return layout, position


def import_trace_columns(
    buffer, layout: dict, *, user_ids: Sequence[str], trace_names: Sequence[str]
) -> list[PlaybackTrace]:
    """Inverse of :func:`export_trace_columns` (strings supplied out of band).

    Reads through transient numpy views over ``buffer`` and materialises
    plain-Python :class:`PlaybackTrace` objects, so nothing returned keeps a
    reference into the buffer — the caller may recycle it immediately.
    """
    if layout.get("version") != TRACE_COLUMNS_VERSION:
        raise ValueError(f"unsupported trace-columns layout: {layout.get('version')!r}")
    num_traces = int(layout["traces"])
    num_records = int(layout["records"])
    if len(user_ids) != num_traces or len(trace_names) != num_traces:
        raise ValueError("user_ids/trace_names must have one entry per trace")
    columns: dict[str, list] = {}
    for name, dtype, count in _trace_regions(num_traces, num_records):
        view = np.frombuffer(
            buffer, dtype=dtype, count=count, offset=int(layout["regions"][name])
        )
        columns[name] = view.tolist()
    record_rows = zip(
        *(columns[f"records.{name}"] for name, _ in TRACE_RECORD_COLUMNS)
    )
    traces: list[PlaybackTrace] = []
    for index in range(num_traces):
        records = [
            SegmentRecord(*row)
            for row in itertools.islice(
                record_rows, columns["header.num_records"][index]
            )
        ]
        traces.append(
            PlaybackTrace(
                user_id=user_ids[index],
                video_duration=columns["header.video_duration"][index],
                segment_duration=columns["header.segment_duration"][index],
                trace_name=trace_names[index],
                records=records,
                exited_early=columns["header.exited_early"][index],
            )
        )
    return traces
