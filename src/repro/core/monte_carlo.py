"""Monte-Carlo parameter evaluation (Algorithm 2).

Given candidate QoE parameters, the evaluator runs ``M`` virtual playback
samples from the live player snapshot: future bandwidth is drawn from the
frozen ``N(mu_Cpast, sigma_Cpast)`` model, the candidate-parameterised ABR
picks bitrates, the player environment evolves by Equation 3, and the hybrid
exit-rate predictor decides (stochastically) whether the simulated user exits
after each segment.  The estimate is
``R_exit = exited_count / watched_count`` over all samples.

:class:`BatchedMonteCarloEvaluator` is the one implementation a controller
runs.  It advances every rollout of every request in lockstep and scores
each virtual step with one batched predictor call, so several candidates —
and several sessions' activations — share one NN forward per step
(:func:`repro.core.controller.run_activations` builds those requests).

:class:`MonteCarloEvaluator` is the sequential reference: one sample after
another, one single-row predictor call per simulated segment.  The tests and
the inference benchmark compare the lockstep evaluator against it; nothing in
the package builds it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.abr.base import ABRAlgorithm, QoEParameters
from repro.core.exit_predictor import BatchedExitPredictor, ExitRatePredictor
from repro.core.state import PlayerSnapshot, UserState
from repro.core.triggers import PruningPolicy
from repro.datasets.stall_dataset import NUM_FEATURES, WINDOW_LENGTH
from repro.sim.player import PlayerEnvironment
from repro.sim.session import ABRContext
from repro.sim.video import Video


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
    every candidate sees the same virtual segment sizes.
    """
    num_segments = max(
        2, int(np.ceil(config.max_sample_duration_s / snapshot.segment_duration))
    )
    return Video(
        ladder=snapshot.ladder,
        num_segments=num_segments,
        segment_duration=snapshot.segment_duration,
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


@dataclass
class _RolloutBlock:
    """Mutable lockstep state of one (request, candidate) pair."""

    request_index: int
    candidate_index: int
    rng: np.random.Generator
    video: object
    frozen_bandwidth: object
    snapshot: PlayerSnapshot
    pruning: PruningPolicy
    prune: bool
    best_exit_rate: float
    num_steps: int
    abrs: list[ABRAlgorithm]
    environments: list[PlayerEnvironment]
    states: list[UserState]
    throughputs: list[list[float]]
    last_levels: list[int | None]
    alive: np.ndarray = field(init=False)
    exited: int = 0
    watched: int = 0
    done: bool = False

    def __post_init__(self) -> None:
        self.alive = np.ones(len(self.abrs), dtype=bool)


class BatchedMonteCarloEvaluator:
    """Algorithm 2 with all virtual-playback rollouts advanced in lockstep.

    Semantically this estimates the same quantity as the sequential evaluator
    (``R_exit = exited / watched`` over ``M`` samples of frozen-bandwidth
    virtual playback) but restructures the loop: at every virtual segment step
    the still-alive rollouts each pick a level and advance their private
    player environment, and then *one* batched predictor call scores all of
    them.  ABR state is kept per rollout via cheap deep copies, so stateful
    algorithms behave exactly as they do in per-sample rollouts.

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
        saved: dict[int, tuple[ABRAlgorithm, QoEParameters]] = {}
        results: list[list[float | None]] = [
            [None] * len(request.candidates) for request in requests
        ]
        blocks: list[_RolloutBlock] = []
        try:
            for r, request in enumerate(requests):
                config = request.config or self.config
                pruning = request.pruning or self.pruning
                if len(request.rngs) != len(request.candidates):
                    raise ValueError("need exactly one RNG per candidate")
                video = virtual_video(request.snapshot, config)
                frozen_bandwidth = request.snapshot.bandwidth_model
                num_steps = int(
                    np.ceil(
                        config.max_sample_duration_s
                        / request.snapshot.segment_duration
                    )
                )
                if id(request.abr) not in saved:
                    saved[id(request.abr)] = (request.abr, request.abr.parameters)
                # Stateless ABRs (no ``reset`` override — the same convention
                # the vector backend's cohort routing uses) are never mutated
                # during a rollout, so all M samples of a candidate can share
                # one parameter-pinned clone instead of M deep copies.
                reset = getattr(type(request.abr), "reset", None)
                stateless = (
                    getattr(reset, "__qualname__", "") == "ABRAlgorithm.reset"
                )
                for c, parameters in enumerate(request.candidates):
                    request.abr.set_parameters(parameters)
                    if stateless:
                        clone = copy.deepcopy(request.abr)
                        clone.reset()
                        clones = [clone] * config.num_samples
                    else:
                        clones = []
                        for _ in range(config.num_samples):
                            clone = copy.deepcopy(request.abr)
                            clone.reset()
                            clones.append(clone)
                    states = [
                        request.user_state.copy() for _ in range(config.num_samples)
                    ]
                    blocks.append(
                        _RolloutBlock(
                            request_index=r,
                            candidate_index=c,
                            rng=request.rngs[c],
                            video=video,
                            frozen_bandwidth=frozen_bandwidth,
                            snapshot=request.snapshot,
                            pruning=pruning,
                            prune=len(request.candidates) == 1,
                            best_exit_rate=request.best_exit_rate,
                            num_steps=num_steps,
                            abrs=clones,
                            environments=[
                                PlayerEnvironment(
                                    video=video,
                                    rtt=request.snapshot.rtt,
                                    initial_buffer=request.snapshot.buffer,
                                    base_buffer_cap=request.snapshot.base_buffer_cap,
                                    bandwidth_model=frozen_bandwidth.copy(),
                                )
                                for _ in range(config.num_samples)
                            ],
                            states=states,
                            throughputs=[
                                list(state.throughputs_kbps) for state in states
                            ],
                            last_levels=[request.snapshot.last_level]
                            * config.num_samples,
                        )
                    )

            max_steps = max((block.num_steps for block in blocks), default=0)
            for step in range(max_steps):
                stepping: list[tuple[_RolloutBlock, np.ndarray, int]] = []
                total_alive = 0
                for block in blocks:
                    if block.done or step >= block.num_steps:
                        continue
                    indices = np.flatnonzero(block.alive)
                    if indices.size == 0:
                        continue
                    stepping.append((block, indices, total_alive))
                    total_alive += int(indices.size)
                if total_alive == 0:
                    break
                levels = np.empty(total_alive, dtype=int)
                switches = np.empty(total_alive, dtype=int)
                stalled = np.empty(total_alive, dtype=bool)
                features = np.zeros((total_alive, NUM_FEATURES, WINDOW_LENGTH))
                for block, indices, offset in stepping:
                    snapshot = block.snapshot
                    frozen_bandwidth = block.frozen_bandwidth
                    video = block.video
                    bandwidths = np.atleast_1d(
                        frozen_bandwidth.sample(block.rng, size=indices.size)
                    )
                    for j, i in enumerate(indices):
                        row = offset + j
                        environment = block.environments[i]
                        buffer_cap = environment.buffer_cap
                        context = ABRContext(
                            segment_index=environment.segment_index,
                            buffer=environment.buffer,
                            buffer_cap=buffer_cap,
                            last_level=block.last_levels[i],
                            throughput_history_kbps=tuple(
                                block.throughputs[i][-8:]
                            ),
                            next_segment_sizes_kbit=video.sizes_tuple(
                                environment.segment_index
                            ),
                            ladder=snapshot.ladder,
                            segment_duration=snapshot.segment_duration,
                            bandwidth_mean_kbps=frozen_bandwidth.mean,
                            bandwidth_std_kbps=frozen_bandwidth.std,
                        )
                        level = int(block.abrs[i].select_level(context))
                        result = environment.step(
                            level, float(bandwidths[j]), buffer_cap=buffer_cap
                        )
                        block.states[i].observe_segment(
                            bitrate_kbps=result.bitrate_kbps,
                            throughput_kbps=result.throughput_kbps,
                            stall_time=result.stall_time,
                            segment_duration=snapshot.segment_duration,
                        )
                        block.throughputs[i].append(result.throughput_kbps)
                        levels[row] = level
                        switches[row] = (
                            0
                            if block.last_levels[i] is None
                            else level - block.last_levels[i]
                        )
                        stalled[row] = result.stall_time > 1e-12
                        if stalled[row]:
                            features[row] = block.states[i].feature_matrix()
                        block.last_levels[i] = level

                probabilities = self.predictor.predict_many(
                    features, levels, switches, stalled
                )
                for block, indices, start in stepping:
                    exits = (
                        block.rng.random(indices.size)
                        < probabilities[start : start + indices.size]
                    )
                    block.watched += int(indices.size)
                    block.exited += int(np.count_nonzero(exits))
                    block.alive[indices[exits]] = False
                    if block.prune and block.pruning.abort_candidate(
                        block.exited, block.watched, block.best_exit_rate
                    ):
                        block.done = True
                        results[block.request_index][block.candidate_index] = (
                            block.exited / block.watched
                        )
        finally:
            for abr, parameters in saved.values():
                abr.set_parameters(parameters)
        for block in blocks:
            if results[block.request_index][block.candidate_index] is None:
                results[block.request_index][block.candidate_index] = (
                    block.exited / block.watched if block.watched else 1.0
                )
        return [list(values) for values in results]
