"""Figure 10 — pre-deployment simulation evaluation.

Video completion rate of the baseline ABR under fixed ``QoE_lin`` parameters
(a sweep over stall and switch weights) versus LingXi with a fixed candidate
set (``L(F)``) and LingXi with online Bayesian optimization (``L(B)``), under
two user-engagement models: deterministic rule-based users (exit thresholds on
stall time and stall count) and data-driven per-user exit models fitted from
engagement histories.  The expected shape: fixed parameters barely move the
completion rate, ``L(F)`` beats the best fixed setting, ``L(B)`` beats
``L(F)``.

Every batch runs on :class:`~repro.sim.vector.VectorBackend`: RobustMPC and
HYB sessions (LingXi-wrapped ones included) advance in lockstep, and
Pensieve sessions, which have no vector kernel, play on the scalar
reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

import numpy as np

from repro.abr.base import ABRAlgorithm, QoEParameters
from repro.abr.hyb import HYB
from repro.abr.pensieve import Pensieve, PensieveTrainer
from repro.abr.robust_mpc import RobustMPC
from repro.core.controller import ControllerConfig, LingXiABR, LingXiController
from repro.core.monte_carlo import MonteCarloConfig
from repro.core.parameter_space import ParameterSpace
from repro.core.triggers import TriggerPolicy
from repro.experiments.common import Substrate, SubstrateConfig, build_substrate
from repro.net.topology import stable_user_key
from repro.sim.backend import SessionSpec
from repro.sim.bandwidth import BandwidthTrace
from repro.sim.session import ExitModel, SessionConfig
from repro.sim.traces import generate_trace_set
from repro.sim.vector import VectorBackend
from repro.sim.video import Video
from repro.users.engagement import (
    DataDrivenUser,
    QoSAwareExitModel,
    RuleBasedUser,
    features_from_segments,
    fit_data_driven_user,
)


@dataclass
class Fig10Result:
    """Completion rates for fixed parameters and the two LingXi variants."""

    baseline: str
    user_modeling: str
    completion_by_fixed: dict[tuple[float, float], float] = field(default_factory=dict)
    completion_lingxi_fixed: float | None = None
    completion_lingxi_bayesian: float | None = None
    #: Mean chosen stall parameter per user key (used by the Figure 11 heatmap).
    chosen_stall_parameter: dict[object, float] = field(default_factory=dict)

    @property
    def best_fixed(self) -> float:
        """Best completion rate over the fixed-parameter sweep."""
        if not self.completion_by_fixed:
            return float("nan")
        return max(self.completion_by_fixed.values())

    @property
    def mean_fixed(self) -> float:
        """Mean completion rate over the fixed-parameter sweep."""
        if not self.completion_by_fixed:
            return float("nan")
        return float(np.mean(list(self.completion_by_fixed.values())))


def _rule_based_users(
    thresholds: Sequence[float],
) -> dict[tuple[float, int], ExitModel]:
    users: dict[tuple[float, int], ExitModel] = {}
    for time_threshold, count_threshold in product(thresholds, thresholds):
        users[(float(time_threshold), int(count_threshold))] = RuleBasedUser(
            stall_time_threshold_s=float(time_threshold),
            stall_count_threshold=int(count_threshold),
        )
    return users


def _data_driven_users(
    substrate: Substrate,
    num_users: int,
    traces: Sequence[BandwidthTrace],
    video: Video,
    seed: int,
) -> dict[str, ExitModel]:
    """Fit per-user logistic exit models from two weeks of simulated engagement.

    Each user's six engagement sessions run as one batch whose per-session
    RNG substreams are keyed by ``(seed, md5(user_id))``.
    """
    engine = VectorBackend()
    users: dict[str, ExitModel] = {}
    # Active users: prefer those with moderate bandwidth so stalls occur.
    sorted_profiles = sorted(
        substrate.population, key=lambda p: p.mean_bandwidth_kbps
    )
    for profile in sorted_profiles[: num_users]:
        behavioural: QoSAwareExitModel = profile.exit_model()
        seeds = np.random.SeedSequence(
            seed, spawn_key=stable_user_key(profile.user_id)
        ).spawn(6)
        specs = [
            SessionSpec(
                abr=RobustMPC(),
                video=video,
                trace=traces[i % len(traces)],
                exit_model=behavioural,
                seed=seeds[i],
                user_id=profile.user_id,
            )
            for i in range(6)
        ]
        # One feature block per session, so no first segment takes its
        # switch from the previous session's last level.
        blocks = [
            features_from_segments(playback.segments)
            for playback in engine.run_batch(specs, SessionConfig())
        ]
        features = np.concatenate([block[0] for block in blocks])
        labels = np.concatenate([block[1] for block in blocks])
        if labels.sum() == 0:
            labels[-1] = 1  # avoid degenerate all-negative fits
        users[profile.user_id] = fit_data_driven_user(features, labels)
    return users


def _make_baseline(
    baseline: str,
    traces: Sequence[BandwidthTrace],
    video: Video,
    seed: int,
    pensieve_training_iterations: int,
) -> Callable[[QoEParameters], ABRAlgorithm]:
    """Return a factory producing a baseline ABR initialised with given parameters."""
    if baseline == "robust_mpc":
        return lambda parameters: RobustMPC(parameters=parameters, horizon=3)
    if baseline == "hyb":
        return lambda parameters: HYB(parameters=parameters)
    if baseline == "pensieve":
        agent = Pensieve(num_levels=video.ladder.num_levels, seed=seed)
        trainer = PensieveTrainer(
            agent, videos=[video], traces=list(traces), seed=seed
        )
        trainer.train(iterations=pensieve_training_iterations, episodes_per_iteration=3)

        def factory(parameters: QoEParameters) -> ABRAlgorithm:
            agent.set_parameters(parameters)
            agent.exploration = False
            return agent

        return factory
    raise ValueError("baseline must be 'robust_mpc', 'pensieve' or 'hyb'")


def _completion_rate(
    abr: ABRAlgorithm,
    video: Video,
    traces: Sequence[BandwidthTrace],
    exit_model: ExitModel,
    rng: np.random.Generator,
    repeats: int,
) -> float:
    """Completion rate of ``abr`` over ``repeats`` passes of ``traces``.

    The whole sweep runs as one batch; each (repeat, trace) session gets its
    own RNG substream derived from the driver RNG.
    """
    seeds = np.random.SeedSequence(int(rng.integers(2**31 - 1))).spawn(
        repeats * len(traces)
    )
    specs = [
        SessionSpec(
            abr=abr,
            video=video,
            trace=traces[index % len(traces)],
            exit_model=exit_model,
            seed=seeds[index],
        )
        for index in range(repeats * len(traces))
    ]
    playbacks = VectorBackend().run_batch(specs, SessionConfig())
    return float(np.mean([float(playback.completed) for playback in playbacks]))


def run(
    baseline: str = "robust_mpc",
    user_modeling: str = "rule",
    substrate: Substrate | None = None,
    stall_parameters: Sequence[float] = (1.0, 10.0, 20.0),
    switch_parameters: Sequence[float] = (0.0, 2.0),
    rule_thresholds: Sequence[float] = (2.0, 5.0, 8.0),
    num_data_driven_users: int = 4,
    num_traces: int = 3,
    trace_length: int = 80,
    repeats: int = 2,
    include_fixed: bool = True,
    include_lingxi_fixed: bool = True,
    include_lingxi_bayesian: bool = True,
    pensieve_training_iterations: int = 15,
    seed: int = 0,
) -> Fig10Result:
    """Run the pre-deployment simulation study (scaled-down defaults).

    The paper sweeps stall parameters 1–20, switch parameters 0–4, and 64
    rule-based engagement rules; the defaults here keep the same structure on
    a laptop-sized grid.  Pass larger sequences to approach the paper's scale.
    """
    if user_modeling not in ("rule", "data"):
        raise ValueError("user_modeling must be 'rule' or 'data'")
    substrate = substrate or build_substrate(SubstrateConfig())
    rng = np.random.default_rng(seed)
    # Low-bandwidth-heavy trace set: completion is limited by stall-driven exits.
    traces = generate_trace_set(
        num_traces=num_traces, length=trace_length, low_bandwidth_fraction=0.7, seed=seed
    )
    video = Video(ladder=substrate.library.ladder, num_segments=30, seed=seed + 1)
    baseline_factory = _make_baseline(
        baseline, traces, video, seed, pensieve_training_iterations
    )

    if user_modeling == "rule":
        users: dict[object, ExitModel] = dict(_rule_based_users(rule_thresholds))
    else:
        users = dict(
            _data_driven_users(substrate, num_data_driven_users, traces, video, seed)
        )

    result = Fig10Result(baseline=baseline, user_modeling=user_modeling)

    # Fixed-parameter sweep: for explicit-QoE baselines the swept objective is
    # (stall penalty, switch penalty); for HYB (implicit objective) the swept
    # knob is its aggressiveness beta.
    if baseline == "hyb":
        fixed_candidates = {
            (float(beta), 0.0): QoEParameters(beta=float(beta))
            for beta in (0.5, 0.7, 0.9)
        }
        space = ParameterSpace.for_hyb()
    else:
        fixed_candidates = {
            (float(stall), float(switch)): QoEParameters(
                stall_penalty=float(stall), switch_penalty=float(switch)
            )
            for stall in stall_parameters
            for switch in switch_parameters
        }
        space = ParameterSpace.for_qoe_lin(
            stall_range=(min(stall_parameters), max(stall_parameters)),
            switch_range=(min(switch_parameters), max(max(switch_parameters), 1.0)),
        )

    if include_fixed:
        for key, parameters in fixed_candidates.items():
            rates = [
                _completion_rate(
                    baseline_factory(parameters),
                    video,
                    traces,
                    exit_model,
                    rng,
                    repeats,
                )
                for exit_model in users.values()
            ]
            result.completion_by_fixed[key] = float(np.mean(rates))

    def run_lingxi(mode: str) -> tuple[float, dict[object, float]]:
        completions = []
        chosen: dict[object, float] = {}
        for user_key, exit_model in users.items():
            controller = LingXiController(
                parameter_space=space,
                predictor=substrate.predictor,
                # T_sample follows the paper: the average online video length.
                monte_carlo=MonteCarloConfig(
                    num_samples=3, max_sample_duration_s=video.duration, seed=seed
                ),
                trigger=TriggerPolicy(stall_count_threshold=2),
                config=ControllerConfig(mode=mode, max_sample_times=4, seed=seed),
            )
            wrapped = LingXiABR(baseline_factory(QoEParameters()), controller)
            completions.append(
                _completion_rate(wrapped, video, traces, exit_model, rng, repeats)
            )
            tracked_field = space.names[0]
            if controller.history:
                chosen[user_key] = float(
                    np.mean(
                        [getattr(e.chosen_parameters, tracked_field) for e in controller.history]
                    )
                )
            else:
                chosen[user_key] = float(getattr(controller.best_parameters, tracked_field))
        return float(np.mean(completions)), chosen

    if include_lingxi_fixed:
        result.completion_lingxi_fixed, _ = run_lingxi("fixed")
    if include_lingxi_bayesian:
        result.completion_lingxi_bayesian, result.chosen_stall_parameter = run_lingxi("bayesian")
    return result
