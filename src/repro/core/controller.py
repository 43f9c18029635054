"""LingXi controller (Algorithm 1) and the ``LingXiABR`` integration wrapper.

The controller owns the per-user optimization loop: it accumulates the dual
layer user state from played segments, decides when to activate (trigger of
§4), prunes activations that cannot help, and — when activated — runs either
online Bayesian optimization (``L(B)``) or a fixed candidate sweep (``L(F)``)
with the lockstep Monte-Carlo evaluator (Algorithm 2) scoring each
candidate.  The best candidate becomes the ABR's new objective.

:func:`run_activations` is the one activation routine.  The scalar engine
runs it for one session at a time (:meth:`LingXiController.optimize`); the
vector engine's :class:`~repro.core.vector_host.VectorControllerHost` runs
it for every session that triggers at the same lockstep step.  Both engines
therefore score candidates through the same requests, which is why their
controllers end with identical histories.

:class:`LingXiABR` packages a controller together with any
:class:`~repro.abr.base.ABRAlgorithm` so the combination drops straight into
the session engine: bitrate decisions are delegated to the wrapped algorithm
and every downloaded segment is fed back into the controller through the
``observe`` hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.abr.base import ABRAlgorithm, QoEParameters
from repro.bayesopt.online import OnlineBayesianOptimizer
from repro.core.exit_predictor import ExitRatePredictor
from repro.core.monte_carlo import (
    BatchedMonteCarloEvaluator,
    MonteCarloConfig,
    RolloutRequest,
)
from repro.core.parameter_space import ParameterSpace
from repro.core.state import PlayerSnapshot, UserState
from repro.core.triggers import PruningPolicy, TriggerPolicy
from repro.sim.bandwidth import BandwidthModel
from repro.sim.session import ABRContext, SegmentRecord


@dataclass(frozen=True)
class ControllerConfig:
    """Optimization-loop knobs of Algorithm 1."""

    mode: str = "bayesian"
    max_sample_times: int = 6
    fixed_candidates_per_dimension: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("bayesian", "fixed"):
            raise ValueError("mode must be 'bayesian' or 'fixed'")
        if self.max_sample_times < 1:
            raise ValueError("max_sample_times must be at least 1")
        if self.fixed_candidates_per_dimension < 2:
            raise ValueError("fixed_candidates_per_dimension must be at least 2")


@dataclass(frozen=True)
class OptimizationEvent:
    """Record of one activation of the QoE-adjustment mechanism."""

    activation_index: int
    trigger_stall_count: int
    chosen_parameters: QoEParameters
    predicted_exit_rate: float
    candidates_evaluated: int


class LingXiController:
    """Per-user personalization loop: state tracking + triggered optimization."""

    def __init__(
        self,
        parameter_space: ParameterSpace,
        predictor: ExitRatePredictor,
        monte_carlo: MonteCarloConfig | None = None,
        trigger: TriggerPolicy | None = None,
        pruning: PruningPolicy | None = None,
        config: ControllerConfig | None = None,
    ) -> None:
        self.parameter_space = parameter_space
        self.predictor = predictor
        self.config = config or ControllerConfig()
        self.trigger = trigger or TriggerPolicy()
        self.pruning = pruning or PruningPolicy()
        # contract: CORE-MC-010
        self.evaluator = BatchedMonteCarloEvaluator(
            predictor, config=monte_carlo, pruning=self.pruning
        )
        self.obo = OnlineBayesianOptimizer(
            bounds=parameter_space.bounds_array(), seed=self.config.seed
        )
        self.user_state = UserState()
        self.best_parameters = parameter_space.to_parameters(parameter_space.default_vector())
        self.stalls_since_optimization = 0
        self.history: list[OptimizationEvent] = []
        self._rng = np.random.default_rng(self.config.seed)

    def start_session(self) -> None:
        """Reset the short-term state layer at session start."""
        self.user_state.start_session()

    def observe_segment(
        self,
        bitrate_kbps: float,
        throughput_kbps: float,
        stall_time: float,
        segment_duration: float,
        exited: bool = False,
    ) -> None:
        """Fold one played segment into the user state and the trigger counter."""
        self.user_state.observe_segment(
            bitrate_kbps=bitrate_kbps,
            throughput_kbps=throughput_kbps,
            stall_time=stall_time,
            segment_duration=segment_duration,
            exited=exited,
        )
        if stall_time > 1e-12:
            self.stalls_since_optimization += 1

    def should_optimize(self, bandwidth: BandwidthModel, max_bitrate_kbps: float) -> bool:
        """Trigger threshold reached and not pruned away by the bandwidth rule."""
        if not self.trigger.should_trigger(self.stalls_since_optimization):
            return False
        if self.pruning.skip_optimization(bandwidth, max_bitrate_kbps):
            return False
        return True

    def draw_activation_seed(self) -> int:
        """Seed shared by all candidates of one activation (common random numbers).

        Drawn from the controller's private stream, one per activation, so a
        controller's sequence of activation seeds is independent of *where*
        its sessions execute (scalar loop or the lockstep controller host).
        """
        return int(self._rng.integers(2**31 - 1))

    def select_best(
        self, candidates: list[QoEParameters], values: list[float]
    ) -> tuple[QoEParameters, float]:
        """Lowest-predicted-exit-rate candidate (first wins ties).

        This is how a fixed-mode sweep picks its winner in
        :func:`run_activations`; it falls back to the current deployment when
        every value is non-finite.
        """
        best_value = float("inf")
        best_parameters = self.best_parameters
        for candidate, value in zip(candidates, values):
            if value < best_value:
                best_value = value
                best_parameters = candidate
        return best_parameters, best_value

    def finish_activation(
        self, best_parameters: QoEParameters, best_value: float, evaluated: int
    ) -> QoEParameters:
        """Record one completed activation and deploy its winner.

        The bookkeeping tail of every activation in :func:`run_activations`.
        """
        self.history.append(
            OptimizationEvent(
                activation_index=len(self.history),
                trigger_stall_count=self.stalls_since_optimization,
                chosen_parameters=best_parameters,
                predicted_exit_rate=float(best_value),
                candidates_evaluated=evaluated,
            )
        )
        self.best_parameters = best_parameters
        self.stalls_since_optimization = 0
        return best_parameters

    def optimize(self, abr: ABRAlgorithm, snapshot: PlayerSnapshot) -> QoEParameters:
        """Run one activation: evaluate candidates and deploy the best one."""
        return run_activations([(self, abr, snapshot)])[0]


class _Activation:
    """One controller's activation in flight inside :func:`run_activations`.

    Each round scores :attr:`candidates` (one request) and :meth:`absorb`
    folds the scores in; a fixed sweep takes one round, a Bayesian
    activation its incumbent round plus ``max_sample_times`` OBO rounds.
    """

    def __init__(
        self, controller: LingXiController, abr: ABRAlgorithm, snapshot: PlayerSnapshot
    ) -> None:
        config = controller.config
        self.controller = controller
        self.abr = abr
        self.snapshot = snapshot
        self.seed = controller.draw_activation_seed()
        self.best_parameters = controller.best_parameters
        self.best_value = float("inf")
        self.fixed = config.mode == "fixed"
        self.vector: np.ndarray | None = None  # OBO point under evaluation
        if self.fixed:
            self.candidates = controller.parameter_space.candidate_grid(
                config.fixed_candidates_per_dimension
            )
            self.rounds = 0
            self.evaluated = len(self.candidates)
        else:
            self.candidates = [controller.best_parameters]
            self.rounds = config.max_sample_times
            self.evaluated = config.max_sample_times + 1

    def request(self) -> RolloutRequest:
        """This round's rollouts, every candidate on the activation seed."""
        evaluator = self.controller.evaluator
        return RolloutRequest(
            candidates=self.candidates,
            abr=self.abr,
            snapshot=self.snapshot,
            user_state=self.controller.user_state,
            rngs=[np.random.default_rng(self.seed) for _ in self.candidates],
            best_exit_rate=self.best_value,
            config=evaluator.config,
            pruning=evaluator.pruning,
        )

    def absorb(self, scores: list[float]) -> bool:
        """Fold one round's scores in; True while another round is due."""
        controller = self.controller
        space = controller.parameter_space
        if self.fixed:
            self.best_parameters, self.best_value = controller.select_best(
                self.candidates, scores
            )
        elif self.vector is None:
            self.best_value = scores[0]
            controller.obo.start_round(
                incumbent=space.to_vector(self.best_parameters),
                incumbent_value=scores[0],
            )
        else:
            controller.obo.update(self.vector, scores[0])
            if scores[0] < self.best_value:
                self.best_value = scores[0]
                self.best_parameters = self.candidates[0]
        if not self.rounds:
            return False
        self.rounds -= 1
        self.vector = controller.obo.next_candidate()
        self.candidates = [space.to_parameters(self.vector)]
        return True


def run_activations(  # contract: CORE-MC-010
    jobs: Sequence[tuple[LingXiController, ABRAlgorithm, PlayerSnapshot]],
) -> list[QoEParameters]:
    """Run one activation per ``(controller, inner_abr, snapshot)`` job.

    Returns the parameters each job deployed, in job order.  Jobs are grouped
    by their underlying :class:`ExitRatePredictor`, and each round of a group
    is one ``evaluate_requests`` call, so every virtual step costs the group
    one NN forward:

    * a fixed-mode (``L(F)``) activation is one request carrying its whole
      candidate grid, scored in the first round;
    * a Bayesian (``L(B)``) activation scores its incumbent in the first
      round, then runs ``max_sample_times`` OBO rounds of one candidate each,
      pruned against the best value so far.

    Every candidate of an activation draws from a generator seeded with the
    same activation seed (common random numbers), so the comparison between
    candidates is paired.  A job's results depend only on its own
    controller, so an activation gives the same answer alone or in a group.
    """
    groups: dict[int, list[int]] = {}
    for index, (controller, _abr, _snapshot) in enumerate(jobs):
        key = id(controller.evaluator.predictor.predictor)
        groups.setdefault(key, []).append(index)
    deployed: list[QoEParameters | None] = [None] * len(jobs)
    for members in groups.values():
        evaluator = jobs[members[0]][0].evaluator
        activations = [_Activation(*jobs[index]) for index in members]
        pending = activations
        while pending:
            values = evaluator.evaluate_requests(
                [activation.request() for activation in pending]
            )
            pending = [
                activation
                for activation, scores in zip(pending, values)
                if activation.absorb(scores)
            ]
        for index, activation in zip(members, activations):
            deployed[index] = activation.controller.finish_activation(
                activation.best_parameters, activation.best_value, activation.evaluated
            )
    return deployed


class LingXiABR(ABRAlgorithm):
    """Any ABR + a LingXi controller, packaged as a single session-ready ABR."""

    def __init__(
        self,
        inner: ABRAlgorithm,
        controller: LingXiController,
        bandwidth_window: int = 8,
    ) -> None:
        super().__init__(inner.parameters)
        self.inner = inner
        self.controller = controller
        self.bandwidth_model = BandwidthModel(window=bandwidth_window)
        self._last_context: ABRContext | None = None
        self.inner.set_parameters(controller.best_parameters)
        super().set_parameters(controller.best_parameters)

    @property
    def name(self) -> str:
        """LingXi-wrapped name, e.g. ``LingXi(HYB)``."""
        return f"LingXi({self.inner.name})"

    def reset(self) -> None:
        """Start a new session on both the inner ABR and the controller."""
        self.inner.reset()
        self.controller.start_session()
        self._last_context = None

    def set_parameters(self, parameters: QoEParameters) -> None:
        """Forward parameter changes to the wrapped algorithm."""
        super().set_parameters(parameters)
        self.inner.set_parameters(parameters)

    def select_level(self, context: ABRContext) -> int:
        """Delegate the bitrate decision to the wrapped algorithm."""
        self._last_context = context
        return self.inner.select_level(context)

    def observe(self, record: SegmentRecord) -> None:
        """Segment feedback hook called by the session engine after each download."""
        context = self._last_context
        if context is None:
            return
        self.bandwidth_model.update(record.bandwidth_kbps)
        self.controller.observe_segment(
            bitrate_kbps=record.bitrate_kbps,
            throughput_kbps=record.bandwidth_kbps,
            stall_time=record.stall_time,
            segment_duration=context.segment_duration,
            exited=record.exited,
        )
        if not self.controller.should_optimize(self.bandwidth_model, context.ladder.max_bitrate):
            return
        snapshot = PlayerSnapshot(
            ladder=context.ladder,
            segment_duration=context.segment_duration,
            buffer=record.buffer_after,
            last_level=record.level,
            bandwidth_model=self.bandwidth_model.copy(),
        )
        new_parameters = self.controller.optimize(self.inner, snapshot)
        self.set_parameters(new_parameters)
