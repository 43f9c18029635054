"""Monte-Carlo parameter evaluation (Algorithm 2).

Given candidate QoE parameters, the evaluator runs ``M`` virtual playback
samples from the live player snapshot: future bandwidth is drawn from the
frozen ``N(mu_Cpast, sigma_Cpast)`` model, the candidate-parameterised ABR
picks bitrates, the player environment evolves by Equation 3, and the hybrid
exit-rate predictor decides (stochastically) whether the simulated user exits
after each segment.  The estimate is
``R_exit = exited_count / watched_count`` over all samples.

:class:`BatchedMonteCarloEvaluator` is the one implementation a controller
runs.  It holds every rollout of every request — one row per (request ×
candidate × sample) — in one struct-of-arrays state and advances them in
lockstep.  Each virtual step draws bandwidths from every (request,
candidate) block's own generator, chooses levels with the inner ABR's
``vector_kernel``, applies Equation 3 and the user-state update as array
math shared with the vector engine (:mod:`repro.sim.vector`), and scores
every alive row with one batched predictor call, so several candidates —
and several sessions' activations — share one NN forward per step
(:func:`repro.core.controller.run_activations` builds those requests).

:class:`MonteCarloEvaluator` is the sequential reference: one sample after
another, one single-row predictor call per simulated segment.  The tests and
the inference benchmark compare the lockstep evaluator against it; nothing in
the package builds it.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.abr.base import ABRAlgorithm, QoEParameters
from repro.core.exit_predictor import BatchedExitPredictor, ExitRatePredictor
from repro.core.state import PlayerSnapshot, UserState
from repro.core.triggers import PruningPolicy
from repro.datasets.stall_dataset import (
    DEFAULT_TOLERANCE_PRIOR_S,
    NUM_FEATURES,
    WINDOW_LENGTH,
    _BITRATE_SCALE,
    _RECENCY_SCALE,
    _STALL_CUMULATIVE_SCALE,
    _THROUGHPUT_SCALE,
)
from repro.sim.bandwidth import BandwidthModel
from repro.sim.player import PlayerEnvironment, dynamic_buffer_cap
from repro.sim.session import ABRContext
from repro.sim.vector import (
    VectorStepContext,
    has_vector_kernel,
    playback_step,
    window_stats,
)
from repro.sim.video import BitrateLadder, Video

#: Width of a rollout row's history columns.  One width serves both the ABR
#: context's throughput history (the scalar rollout passes the last 8
#: throughputs) and the predictor's 8-wide feature windows.
_HISTORY = WINDOW_LENGTH

#: Scales of the four history rows of ``UserState.feature_matrix``, in
#: order: bitrate, throughput, cumulative stall, segments since stall.
_HISTORY_SCALES = np.asarray(
    [_BITRATE_SCALE, _THROUGHPUT_SCALE, _STALL_CUMULATIVE_SCALE, _RECENCY_SCALE]
)[:, None]


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sampling knobs of Algorithm 2."""

    num_samples: int = 8
    max_sample_duration_s: float = 60.0
    vbr_std: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError("num_samples must be at least 1")
        if self.max_sample_duration_s <= 0:
            raise ValueError("max_sample_duration_s must be positive")


def virtual_video(snapshot: PlayerSnapshot, config: MonteCarloConfig) -> Video:
    """Synthetic video used for virtual playback from a live-player snapshot.

    Shared by both evaluators of this module: ``T_sample`` seconds of segments
    on the snapshot's ladder, with the evaluator's own VBR jitter and seed so
    every candidate sees the same virtual segment sizes.  It depends only on
    the ladder, the segment duration and the frozen ``config``, so it is
    built once per distinct triple and shared: callers only read it.
    """
    return _virtual_video(snapshot.ladder, snapshot.segment_duration, config)


@functools.lru_cache(maxsize=64)
def _virtual_video(
    ladder: BitrateLadder, segment_duration: float, config: MonteCarloConfig
) -> Video:
    num_segments = max(
        2, int(np.ceil(config.max_sample_duration_s / segment_duration))
    )
    return Video(
        ladder=ladder,
        num_segments=num_segments,
        segment_duration=segment_duration,
        vbr_std=config.vbr_std,
        seed=config.seed,
    )


class MonteCarloEvaluator:
    """EvaluateParameters via virtual playback (Algorithm 2)."""

    def __init__(
        self,
        predictor: ExitRatePredictor,
        config: MonteCarloConfig | None = None,
        pruning: PruningPolicy | None = None,
    ) -> None:
        self.predictor = predictor
        self.config = config or MonteCarloConfig()
        self.pruning = pruning or PruningPolicy()

    def _virtual_video(self, snapshot: PlayerSnapshot) -> Video:
        return virtual_video(snapshot, self.config)

    def evaluate(
        self,
        parameters: QoEParameters,
        abr: ABRAlgorithm,
        snapshot: PlayerSnapshot,
        user_state: UserState,
        rng: np.random.Generator | None = None,
        best_exit_rate: float = float("inf"),
    ) -> float:
        """Estimated exit rate ``R_exit`` for ``parameters``.

        The ABR's live parameters are restored on return, so evaluation never
        leaks candidate settings into real playback.  ``best_exit_rate`` (the
        incumbent across candidates) enables the virtual-playback pruning rule
        of §4.
        """
        rng = rng or np.random.default_rng(self.config.seed)
        saved_parameters = abr.parameters
        abr.set_parameters(parameters)
        video = self._virtual_video(snapshot)
        frozen_bandwidth = snapshot.bandwidth_model
        exited_count = 0
        watched_count = 0
        try:
            for _sample in range(self.config.num_samples):
                abr.reset()
                environment = PlayerEnvironment(
                    video=video,
                    rtt=snapshot.rtt,
                    initial_buffer=snapshot.buffer,
                    base_buffer_cap=snapshot.base_buffer_cap,
                    bandwidth_model=frozen_bandwidth.copy(),
                )
                simulated_state = user_state.copy()
                throughputs = list(simulated_state.throughputs_kbps)
                last_level = snapshot.last_level
                simulated_time = 0.0
                while simulated_time < self.config.max_sample_duration_s:
                    buffer_cap = environment.buffer_cap
                    context = ABRContext(
                        segment_index=environment.segment_index,
                        buffer=environment.buffer,
                        buffer_cap=buffer_cap,
                        last_level=last_level,
                        throughput_history_kbps=tuple(throughputs[-8:]),
                        next_segment_sizes_kbit=video.sizes_tuple(
                            environment.segment_index
                        ),
                        ladder=snapshot.ladder,
                        segment_duration=snapshot.segment_duration,
                        bandwidth_mean_kbps=frozen_bandwidth.mean,
                        bandwidth_std_kbps=frozen_bandwidth.std,
                    )
                    level = int(abr.select_level(context))
                    bandwidth = float(frozen_bandwidth.sample(rng))
                    result = environment.step(level, bandwidth, buffer_cap=buffer_cap)

                    simulated_state.observe_segment(
                        bitrate_kbps=result.bitrate_kbps,
                        throughput_kbps=result.throughput_kbps,
                        stall_time=result.stall_time,
                        segment_duration=snapshot.segment_duration,
                    )
                    throughputs.append(result.throughput_kbps)
                    stalled = result.stall_time > 1e-12
                    switch = 0 if last_level is None else level - last_level
                    exit_probability = self.predictor.predict(
                        simulated_state.feature_matrix(),
                        level=level,
                        switch_magnitude=switch,
                        stalled=stalled,
                    )
                    watched_count += 1
                    simulated_time += snapshot.segment_duration
                    last_level = level
                    if rng.random() < exit_probability:
                        exited_count += 1
                        break
                    if self.pruning.abort_candidate(exited_count, watched_count, best_exit_rate):
                        return exited_count / watched_count
        finally:
            abr.set_parameters(saved_parameters)
        if watched_count == 0:
            return 1.0
        return exited_count / watched_count


@dataclass
class RolloutRequest:
    """One activation's share of a lockstep Monte-Carlo evaluation.

    A request bundles everything one session's evaluation needs — its
    candidates, ABR template, player snapshot, user state and one RNG per
    candidate — so that several sessions' evaluations can advance as one
    flattened lockstep rollout with a single NN forward per virtual step
    across all of them (:meth:`BatchedMonteCarloEvaluator.evaluate_requests`).

    ``config`` / ``pruning`` default to the evaluator's own; single-candidate
    requests apply the virtual-playback pruning rule against
    ``best_exit_rate``.
    """

    candidates: Sequence[QoEParameters]
    abr: ABRAlgorithm
    snapshot: PlayerSnapshot
    user_state: UserState
    rngs: Sequence[np.random.Generator]
    best_exit_rate: float = float("inf")
    config: MonteCarloConfig | None = None
    pruning: PruningPolicy | None = None


class BatchedMonteCarloEvaluator:
    """Algorithm 2 with all virtual-playback rollouts advanced in lockstep.

    Semantically this estimates the same quantity as the sequential evaluator
    (``R_exit = exited / watched`` over ``M`` samples of frozen-bandwidth
    virtual playback) but restructures the loop: every rollout is a row of
    one struct-of-arrays state, and each virtual segment step advances all
    still-alive rows as array code — the inner ABR's ``vector_kernel``
    picks their levels, Equation 3 and the user-state update run over the
    arrays — before *one* batched predictor call scores them all.  Stateful
    kernels (RobustMPC) keep per-row state, so every rollout behaves as a
    freshly reset policy would on its own.  An ABR without its own kernel
    (Pensieve, or a subclass that lacks one) chooses levels through per-row
    ``ABRContext``s over one reset deep copy per rollout; everything else
    stays array code.  The live ABR is never modified.

    :meth:`evaluate_requests` is the engine, and every controller activation
    runs through it (:func:`repro.core.controller.run_activations`).
    :meth:`evaluate` wraps it for one candidate with the signature of
    :meth:`MonteCarloEvaluator.evaluate`, so the two can be compared
    directly.
    """

    def __init__(
        self,
        predictor: BatchedExitPredictor | ExitRatePredictor,
        config: MonteCarloConfig | None = None,
        pruning: PruningPolicy | None = None,
    ) -> None:
        if not isinstance(predictor, BatchedExitPredictor):
            predictor = BatchedExitPredictor(predictor)
        self.predictor = predictor
        self.config = config or MonteCarloConfig()
        self.pruning = pruning or PruningPolicy()

    def evaluate(
        self,
        parameters: QoEParameters,
        abr: ABRAlgorithm,
        snapshot: PlayerSnapshot,
        user_state: UserState,
        rng: np.random.Generator | None = None,
        best_exit_rate: float = float("inf"),
    ) -> float:
        """Estimated exit rate ``R_exit`` for ``parameters`` (batched rollout)."""
        rng = rng or np.random.default_rng(self.config.seed)
        return self.evaluate_requests(
            [
                RolloutRequest(
                    candidates=[parameters],
                    abr=abr,
                    snapshot=snapshot,
                    user_state=user_state,
                    rngs=[rng],
                    best_exit_rate=best_exit_rate,
                )
            ]
        )[0][0]

    def evaluate_requests(
        self, requests: Sequence[RolloutRequest]
    ) -> list[list[float]]:
        """Advance *all* requests' rollouts in one flattened lockstep batch.

        This is the cross-session generalisation of the single-session
        rollout: each :class:`RolloutRequest` contributes ``C_r × M_r``
        virtual playbacks, every step draws each (request, candidate) block's
        bandwidths and exit uniforms from that block's own generator (in the
        same order a standalone single-request call would), and **one**
        batched predictor call scores every alive rollout of every request.
        Results come back per request, per candidate.

        Blocks never share randomness, so the flattening is exact: each
        request's values equal what its own single-request call would return
        (this is what lets the lockstep controller host batch all
        concurrently-optimizing sessions into one NN forward per step).
        Single-candidate requests apply the virtual-playback pruning rule
        against their ``best_exit_rate`` and drop out of the batch the moment
        they abort; a request with ``C`` candidates seeded identically equals
        ``C`` single-candidate requests without a pruning bound.
        """
        obs.counter_add("mc.rollout_requests", len(requests))
        with obs.span("mc.evaluate_requests"):
            return self._evaluate_requests_impl(requests)

    def _evaluate_requests_impl(
        self, requests: Sequence[RolloutRequest]
    ) -> list[list[float]]:
        if not requests:
            return []
        rollout = _Rollout(requests, self.config, self.pruning)
        steps = rows = 0
        for step in range(rollout.max_steps):
            alive = rollout.alive_rows.size
            if not rollout.step(step, self.predictor):
                break
            steps += 1
            rows += alive
        obs.counter_add("mc.virtual_steps", steps)
        obs.counter_add("mc.rollout_rows", rows)
        return rollout.results()


@dataclass
class _Block:
    """One (request, candidate) pair: ``size`` consecutive rows, one generator.

    ``alive`` counts the rows that have not exited.  A block steps while it
    has alive rows, has not been pruned and is inside its request's horizon.
    """

    request_index: int
    candidate_index: int
    start: int
    size: int
    rng: np.random.Generator
    frozen_bandwidth: BandwidthModel
    num_steps: int
    pruning: PruningPolicy
    prune: bool
    best_exit_rate: float
    alive: int = 0
    exited: int = 0
    watched: int = 0
    result: float | None = None


class _ContextAdapter:
    """Level choice for an ABR without its own ``vector_kernel``.

    The rollout's only per-row code: one :class:`ABRContext` per stepping
    row, handed to that row's own clone of the ABR, so stateful policies
    (Pensieve) see exactly the calls a standalone rollout makes.
    """

    def __init__(self, clones: list[ABRAlgorithm], ladder: BitrateLadder) -> None:
        self.clones = clones
        self.ladder = ladder

    def __call__(
        self, context: VectorStepContext, active: np.ndarray, step: int
    ) -> np.ndarray:
        levels = np.zeros(active.size, dtype=int)
        width = context.throughput_window.shape[1]
        for i in np.flatnonzero(active).tolist():
            count = width if context.history is None else int(context.history[i])
            last_level = int(context.last_level[i])
            levels[i] = self.clones[i].select_level(
                ABRContext(
                    segment_index=step,
                    buffer=float(context.buffer[i]),
                    buffer_cap=float(context.buffer_cap[i]),
                    last_level=None if last_level < 0 else last_level,
                    throughput_history_kbps=tuple(
                        context.throughput_window[i, width - count :].tolist()
                    ),
                    next_segment_sizes_kbit=tuple(
                        context.segment_sizes[i].tolist()
                    ),
                    ladder=self.ladder,
                    segment_duration=context.segment_duration,
                    bandwidth_mean_kbps=float(context.bandwidth_mean[i]),
                    bandwidth_std_kbps=float(context.bandwidth_std[i]),
                )
            )
        return levels


class _LevelGroup:
    """Rows that share one level chooser: same ABR class, ladder and segment
    duration.

    A row's segment index in the chooser's context is the number of
    throughput samples it holds, so rows that start with and without
    history share a group: the kernels act on each row's own index.
    """

    def __init__(
        self, rows, policies, ladder, segment_duration, sizes, mean, std, samples
    ) -> None:
        self.rows = rows  # slice(None) when the group holds every row
        self.bitrates = np.asarray(ladder.bitrates_kbps, dtype=float)
        self.segment_duration = segment_duration
        self.sizes = sizes  # (rows, steps, levels) virtual segment sizes
        self.arange = np.arange(len(policies))
        self.mean = mean
        self.std = std
        self.samples = samples  # throughput samples each row starts with
        self.fewest_samples = int(samples.min())
        if has_vector_kernel(policies[0]):
            kernel = type(policies[0]).vector_kernel(policies)
            self.choose = lambda context, active, step: kernel(context)
        else:
            self.choose = _ContextAdapter(policies, ladder)

    def context(
        self, step: int, buffer, buffer_cap, last_level, throughputs
    ) -> VectorStepContext:
        rows = self.rows
        history = None
        if self.fewest_samples + step < _HISTORY:
            history = np.minimum(self.samples + step, _HISTORY)
        return VectorStepContext(
            # ``k == 0`` means "no throughput history yet" to the kernels, and
            # a rollout starts with the session's history.
            k=self.samples + step,
            buffer=buffer[rows],
            buffer_cap=buffer_cap[rows],
            last_level=last_level[rows],
            segment_sizes=self.sizes[:, step],
            throughput_window=throughputs[rows],
            bandwidth_mean=self.mean,
            bandwidth_std=self.std,
            bitrates=self.bitrates,
            segment_duration=self.segment_duration,
            history=history,
        )


def _num_steps(request: RolloutRequest, config: MonteCarloConfig) -> int:
    duration = request.snapshot.segment_duration
    return int(np.ceil(config.max_sample_duration_s / duration))


def _right_aligned(values: list[float]) -> list[float]:
    """The last ``_HISTORY`` values, zero-padded on the left."""
    recent = values[-_HISTORY:]
    return [0.0] * (_HISTORY - len(recent)) + recent


def _partition(keys: list, counts: list[int]) -> list[tuple]:
    """Group requests by key: ``(key, member requests, rows)`` per group, in
    first-seen order, with ``rows`` a slice when one group holds them all."""
    members: dict = {}
    for index, key in enumerate(keys):
        members.setdefault(key, []).append(index)
    if len(members) == 1:
        return [(keys[0], list(range(len(keys))), slice(None))]
    starts = np.cumsum([0] + counts)
    return [
        (
            key,
            indices,
            np.concatenate([np.arange(starts[i], starts[i + 1]) for i in indices]),
        )
        for key, indices in members.items()
    ]


class _Rollout:  # contract: CORE-MC-010
    """Struct-of-arrays state of every (request × candidate × sample) row.

    Rows are laid out block by block, samples in order, so the stepping
    rows in ascending order are the order the predictor has always seen:
    block order, then sample order.  Per row the state holds the buffer and
    last level; the histories of bitrate, throughput, cumulative stall and
    segments-since-stall, whose last 8 columns are at once the ABR's
    throughput history and the predictor's feature windows; the player's
    bandwidth-model window; and the session stall time and segments since
    the last stall.  Histories and windows grow one column per step into
    preallocated arrays, so no step shifts them.

    Rows that stopped (exited, pruned, or past their request's horizon) keep
    flowing through the array expressions on their last bandwidth, the way
    the vector engine's cohorts carry finished sessions; nothing reads their
    values.  Every row takes one sample per step, so all rows of a request
    hold the same number of samples at every step.
    """

    def __init__(
        self,
        requests: Sequence[RolloutRequest],
        config: MonteCarloConfig,
        pruning: PruningPolicy,
    ) -> None:
        self.blocks: list[_Block] = []
        self.request_sizes = [len(request.candidates) for request in requests]
        configs = [request.config or config for request in requests]
        steps = [_num_steps(request, c) for request, c in zip(requests, configs)]
        counts: list[int] = []
        start = 0
        for r, request in enumerate(requests):
            if len(request.rngs) != len(request.candidates):
                raise ValueError("need exactly one RNG per candidate")
            samples = configs[r].num_samples
            for c in range(len(request.candidates)):
                self.blocks.append(
                    _Block(
                        request_index=r,
                        candidate_index=c,
                        start=start + c * samples,
                        size=samples,
                        rng=request.rngs[c],
                        frozen_bandwidth=request.snapshot.bandwidth_model,
                        num_steps=steps[r],
                        pruning=request.pruning or pruning,
                        prune=len(request.candidates) == 1,
                        best_exit_rate=request.best_exit_rate,
                        alive=samples,
                    )
                )
            counts.append(samples * len(request.candidates))
            start += counts[-1]
        self.num_rows = start
        self.max_steps = max(steps)
        self.stepping = list(self.blocks)
        self.alive = np.ones(self.num_rows, dtype=bool)
        self.alive_rows = np.arange(self.num_rows)

        snapshots = [request.snapshot for request in requests]
        states = [request.user_state for request in requests]
        models = [snapshot.bandwidth_model for snapshot in snapshots]
        scalars = np.repeat(
            [
                [
                    snapshot.buffer,
                    snapshot.segment_duration,
                    snapshot.base_buffer_cap,
                    state.session_stall_time,
                    state.segments_since_stall_history[-1]
                    if state.segments_since_stall_history
                    else float(WINDOW_LENGTH),
                    state.max_survived_stall_time,
                    # Virtual segments are all observed as survived, so a
                    # tolerance from past stall exits stays fixed (NaN: none).
                    (
                        state.tolerance_estimate_s
                        if state.lifetime_stall_exits
                        else np.nan
                    ),
                    model.mean,
                    model.std,
                    -1 if snapshot.last_level is None else snapshot.last_level,
                    len(state.throughputs_kbps),
                ]
                for snapshot, state, model in zip(snapshots, states, models)
            ],
            counts,
            axis=0,
        )
        (
            self.buffer,
            self.segment_duration,
            self.base_cap,
            self.session_stall,
            self.since_stall,
            self.max_survived,
            self.exit_tolerance,
            frozen_mean,
            frozen_std,
        ) = np.ascontiguousarray(scalars[:, :9].T)
        self.last_level = scalars[:, 9].astype(int)
        throughput_samples = scalars[:, 10].astype(int)
        self.bandwidth = np.ones(self.num_rows)
        # Column ``_HISTORY + step`` receives step ``step``'s values; the
        # right-aligned 8-wide window before step ``step`` is columns
        # ``step .. step + 7``.
        self.history = np.zeros((self.num_rows, 4, _HISTORY + self.max_steps))
        self.history[:, :, :_HISTORY] = np.repeat(
            [
                [
                    _right_aligned(state.bitrates_kbps),
                    _right_aligned(state.throughputs_kbps),
                    _right_aligned(state.cumulative_stall_history),
                    _right_aligned(state.segments_since_stall_history),
                ]
                for state in states
            ],
            counts,
            axis=0,
        )

        self.groups = []
        keys = [
            (
                type(request.abr),
                request.snapshot.ladder,
                float(request.snapshot.segment_duration),
            )
            for request in requests
        ]
        for (_abr, ladder, duration), members, rows in _partition(keys, counts):
            policies: list[ABRAlgorithm] = []
            tables = []
            group_steps = np.arange(max(steps[r] for r in members))
            for r in members:
                for parameters in requests[r].candidates:
                    policies.extend(
                        _policies(requests[r].abr, parameters, configs[r].num_samples)
                    )
                # ``Video.segment_size`` indexes segments modulo the length.
                video = virtual_video(snapshots[r], configs[r])
                tables.append(
                    video.segment_sizes_kbit[group_steps % video.num_segments]
                )
            self.groups.append(
                _LevelGroup(
                    rows,
                    policies,
                    ladder,
                    duration,
                    np.repeat(tables, [counts[r] for r in members], axis=0),
                    frozen_mean[rows],
                    frozen_std[rows],
                    throughput_samples[rows],
                )
            )

        # Bandwidth-model windows, oldest first, in classes of rows that hold
        # the same number of samples: (rows, samples at step 0, window
        # length, prior mean, prior std).  Column ``held + step`` receives
        # step ``step``'s bandwidth.
        held = max(model.num_observations for model in models)
        self.window = np.zeros((self.num_rows, held + self.max_steps))
        self.window[:, :held] = np.repeat(
            [
                model._samples + [0.0] * (held - model.num_observations)
                for model in models
            ],
            counts,
            axis=0,
        )
        keys = [
            (
                model.num_observations,
                model.window,
                model.prior_mean_kbps,
                model.prior_std_kbps,
            )
            for model in models
        ]
        self.window_classes = [
            (rows, *key) for key, _, rows in _partition(keys, counts)
        ]

    def step(self, step: int, predictor: BatchedExitPredictor) -> bool:
        """Advance every stepping block one virtual segment; False when none can."""
        stepping = self.stepping
        if not stepping:
            return False
        rows = self.alive_rows
        draws = [
            block.frozen_bandwidth.sample(block.rng, size=block.alive)
            for block in stepping
        ]
        bandwidth = self.bandwidth
        bandwidth[rows] = draws[0] if len(draws) == 1 else np.concatenate(draws)

        mean, std = self._window_stats(step)
        buffer_cap = dynamic_buffer_cap(mean, std, base_cap=self.base_cap)
        levels, size, bitrate = self._choose_levels(step, buffer_cap)

        stall, _overflow, self.buffer = playback_step(
            self.buffer,
            size / bandwidth,
            buffer_cap,
            self.segment_duration,
            startup=step == 0,
        )
        previous = self.last_level
        switches = levels - previous
        if step == 0:
            switches = np.where(previous < 0, 0, switches)
        self.last_level = levels

        # ``UserState.observe_segment`` (survived) for every row; stall >= 0,
        # so adding it unconditionally equals adding it only when positive.
        self.session_stall = self.session_stall + stall
        self.since_stall = np.where(stall > 0.0, 0.0, self.since_stall + 1.0)
        column = _HISTORY + step
        history = self.history
        history[:, 0, column] = bitrate
        history[:, 1, column] = bandwidth
        history[:, 2, column] = self.session_stall
        history[:, 3, column] = self.since_stall
        for class_rows, held, _length, _mean, _std in self.window_classes:
            self.window[class_rows, held + step] = bandwidth[class_rows]

        stalled = stall[rows] > 1e-12
        features = np.zeros((rows.size, NUM_FEATURES, WINDOW_LENGTH))
        hit = stalled.nonzero()[0]
        if hit.size:
            stalled_rows = rows[hit]
            features[hit, :4] = (
                history[stalled_rows, :, column - _HISTORY + 1 : column + 1]
                / _HISTORY_SCALES
            )
            # The session stall time only grows, so the longest survived
            # stall is the larger of the starting one and the current one.
            survived = np.maximum(
                self.max_survived[stalled_rows], self.session_stall[stalled_rows]
            )
            tolerance = self.exit_tolerance[stalled_rows]
            tolerance = np.where(
                np.isnan(tolerance),
                np.maximum(survived, DEFAULT_TOLERANCE_PRIOR_S),
                tolerance,
            )
            features[hit, 4] = (tolerance / _STALL_CUMULATIVE_SCALE)[:, None]
        probabilities = predictor.predict_many(
            features, levels[rows], switches[rows], stalled
        )

        uniforms = [block.rng.random(block.alive) for block in stepping]
        if len(uniforms) > 1:
            uniforms = [np.concatenate(uniforms)]
        exits = uniforms[0] < probabilities
        exited = int(np.count_nonzero(exits))
        changed = exited > 0
        if changed:
            self.alive[rows[exits]] = False
        if len(stepping) == 1:
            exit_counts = [exited]
        else:
            flags = exits.tolist()
            exit_counts = []
            offset = 0
            for block in stepping:
                exit_counts.append(sum(flags[offset : offset + block.alive]))
                offset += block.alive
        self.stepping = []
        for block, exited in zip(stepping, exit_counts):
            block.watched += block.alive
            block.exited += exited
            block.alive -= exited
            if block.prune and block.pruning.abort_candidate(
                block.exited, block.watched, block.best_exit_rate
            ):
                block.result = block.exited / block.watched
            elif block.alive and step + 1 < block.num_steps:
                self.stepping.append(block)
                continue
            if block.alive:
                self.alive[block.start : block.start + block.size] = False
                changed = True
        if changed:
            self.alive_rows = self.alive.nonzero()[0]
        return True

    def _window_stats(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        """Each row's bandwidth-model ``mean``/``std`` before this step."""
        if len(self.window_classes) == 1:
            [(_rows, held, length, prior_mean, prior_std)] = self.window_classes
            end = held + step
            return window_stats(
                self.window[:, max(0, end - length) : end], prior_mean, prior_std
            )
        mean = np.empty(self.num_rows)
        std = np.empty(self.num_rows)
        for rows, held, length, prior_mean, prior_std in self.window_classes:
            end = held + step
            mean[rows], std[rows] = window_stats(
                self.window[rows, max(0, end - length) : end], prior_mean, prior_std
            )
        return mean, std

    def _choose_levels(self, step: int, buffer_cap):
        """``(levels, segment sizes, bitrates)`` per row from each group's
        chooser.  Rows that do not step get level 0 where their group's
        chooser returned no valid level, or did not run at all."""
        active = self.alive
        throughputs = self.history[:, 1, step : step + _HISTORY]
        single = len(self.groups) == 1
        if not single:
            levels = np.zeros(self.num_rows, dtype=int)
            size = np.ones(self.num_rows)
            bitrate = np.ones(self.num_rows)
        for group in self.groups:
            rows = group.rows
            group_active = active[rows]
            if not single and not group_active.any():
                continue  # none of its rows steps again
            context = group.context(
                step, self.buffer, buffer_cap, self.last_level, throughputs
            )
            chosen = group.choose(context, group_active, step)
            num_levels = group.bitrates.size
            invalid = (chosen < 0) | (chosen >= num_levels)
            if np.count_nonzero(invalid):
                if np.count_nonzero(invalid & group_active):
                    raise ValueError(
                        f"ABR returned levels outside [0, {num_levels}) "
                        f"at virtual step {step}"
                    )
                chosen = np.where(invalid, 0, chosen)
            group_size = context.segment_sizes[group.arange, chosen]
            if single:
                return chosen, group_size, group.bitrates[chosen]
            levels[rows] = chosen
            size[rows] = group_size
            bitrate[rows] = group.bitrates[chosen]
        return levels, size, bitrate

    def results(self) -> list[list[float]]:
        """``exited / watched`` per request and candidate (1.0 if none watched)."""
        out: list[list[float]] = [[1.0] * size for size in self.request_sizes]
        for block in self.blocks:
            if block.result is not None:
                value = block.result
            else:
                value = block.exited / block.watched if block.watched else 1.0
            out[block.request_index][block.candidate_index] = value
        return out


def _policies(
    abr: ABRAlgorithm, parameters: QoEParameters, samples: int
) -> list[ABRAlgorithm]:
    """One candidate's per-row ABRs.

    A kernel reads only its policies' configuration and live parameters, so
    the candidate's rows share one shallow, parameter-pinned copy.  Without
    a kernel every sample gets its own reset deep copy, so stateful policies
    evolve per rollout as they would alone.  ``abr`` itself is not touched.
    """
    if has_vector_kernel(abr):
        pinned = copy.copy(abr)
        pinned.set_parameters(parameters)
        return [pinned] * samples
    clones = []
    for _ in range(samples):
        clone = copy.deepcopy(abr)
        clone.set_parameters(parameters)
        clone.reset()
        clones.append(clone)
    return clones
