"""Pensieve-style neural ABR (Mao et al., SIGCOMM'17) with LingXi's augmentation.

The policy maps a playback state to a distribution over ladder levels and is
trained with an advantage policy gradient against the ``QoE_lin`` reward.  As
described in §5.2 of the LingXi paper, the architecture is augmented so the
stall and switch weights of the optimization objective are *state inputs*:
rewards during training are computed with whatever weights the episode drew,
so at inference time changing :class:`~repro.abr.base.QoEParameters` steers
the already-trained policy toward the corresponding objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.abr.base import ABRAlgorithm, QoEParameters
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import MeanSquaredError, softmax
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam
from repro.sim.bandwidth import BandwidthTrace
from repro.sim.session import ABRContext, PlaybackSession, PlaybackTrace, SessionConfig
from repro.sim.video import Video

_HISTORY = 6
_THROUGHPUT_SCALE = 8000.0
_TIME_SCALE = 10.0
_SIZE_SCALE = 8000.0
_STALL_PENALTY_SCALE = 20.0
_SWITCH_PENALTY_SCALE = 4.0


class Pensieve(ABRAlgorithm):
    """Actor–critic neural ABR conditioned on the objective weights."""

    def __init__(
        self,
        parameters: QoEParameters | None = None,
        num_levels: int = 4,
        hidden: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__(parameters)
        if num_levels < 2:
            raise ValueError("num_levels must be at least 2")
        self.num_levels = num_levels
        self.state_dim = 2 * _HISTORY + num_levels + 1 + num_levels + 1 + 2
        self.actor = Sequential(
            [
                Dense(self.state_dim, hidden, seed=seed),
                ReLU(),
                Dense(hidden, num_levels, seed=seed + 1),
            ]
        )
        self.critic = Sequential(
            [
                Dense(self.state_dim, hidden, seed=seed + 2),
                ReLU(),
                Dense(hidden, 1, seed=seed + 3),
            ]
        )
        self.exploration = False
        self._rng = np.random.default_rng(seed)
        self.trajectory: list[tuple[np.ndarray, int]] = []
        self._download_history: list[float] = []

    def reset(self) -> None:
        """Clear the per-session trajectory and download-time history."""
        self.trajectory = []
        self._download_history = []

    def state_from_context(self, context: ABRContext) -> np.ndarray:
        """Build the normalised state vector for the policy network."""
        throughputs = np.zeros(_HISTORY)
        history = context.throughput_history_kbps[-_HISTORY:]
        if history:
            throughputs[-len(history) :] = np.asarray(history) / _THROUGHPUT_SCALE
        download_times = np.zeros(_HISTORY)
        recent_downloads = self._download_history[-_HISTORY:]
        if recent_downloads:
            download_times[-len(recent_downloads) :] = (
                np.asarray(recent_downloads) / _TIME_SCALE
            )
        sizes = np.asarray(context.next_segment_sizes_kbit, dtype=float)[: self.num_levels]
        if sizes.size < self.num_levels:
            sizes = np.pad(sizes, (0, self.num_levels - sizes.size), mode="edge")
        sizes = sizes / _SIZE_SCALE
        buffer = np.asarray([context.buffer / _TIME_SCALE])
        last_level = np.zeros(self.num_levels)
        if context.last_level is not None:
            last_level[min(context.last_level, self.num_levels - 1)] = 1.0
        progress = np.asarray([min(context.segment_index / 100.0, 1.0)])
        objective = np.asarray(
            [
                self.parameters.stall_penalty / _STALL_PENALTY_SCALE,
                self.parameters.switch_penalty / _SWITCH_PENALTY_SCALE,
            ]
        )
        return np.concatenate(
            [throughputs, download_times, sizes, buffer, last_level, progress, objective]
        )

    def action_probabilities(self, state: np.ndarray) -> np.ndarray:
        """Policy distribution over ladder levels for one state."""
        logits = self.actor.forward(state[None, :])
        return softmax(logits)[0]

    def select_level(self, context: ABRContext) -> int:
        """Sample (training) or argmax (inference) an action from the policy."""
        state = self.state_from_context(context)
        probabilities = self.action_probabilities(state)
        if self.exploration:
            action = int(self._rng.choice(self.num_levels, p=probabilities))
        else:
            action = int(np.argmax(probabilities))
        self.trajectory.append((state, action))
        # Approximate the upcoming download time for the next state's history.
        throughput = max(context.bandwidth_mean_kbps, 1e-6)
        self._download_history.append(
            context.next_segment_sizes_kbit[min(action, len(context.next_segment_sizes_kbit) - 1)]
            / throughput
        )
        return min(action, context.ladder.num_levels - 1)


@dataclass
class TrainingStats:
    """Per-iteration summary returned by :meth:`PensieveTrainer.train`."""

    iteration: int
    mean_reward: float
    mean_entropy: float
    critic_loss: float


class PensieveTrainer:
    """Advantage policy-gradient trainer run entirely inside the simulator."""

    def __init__(
        self,
        agent: Pensieve,
        videos: list[Video],
        traces: list[BandwidthTrace],
        discount: float = 0.95,
        actor_learning_rate: float = 1e-3,
        critic_learning_rate: float = 2e-3,
        entropy_weight: float = 0.01,
        randomize_objective: bool = True,
        stall_penalty_range: tuple[float, float] = (1.0, 20.0),
        switch_penalty_range: tuple[float, float] = (0.0, 4.0),
        seed: int = 0,
    ) -> None:
        if not videos or not traces:
            raise ValueError("need at least one video and one trace")
        if not 0 < discount <= 1:
            raise ValueError("discount must be in (0, 1]")
        self.agent = agent
        self.videos = videos
        self.traces = traces
        self.discount = discount
        self.entropy_weight = entropy_weight
        self.randomize_objective = randomize_objective
        self.stall_penalty_range = stall_penalty_range
        self.switch_penalty_range = switch_penalty_range
        self.actor_optimizer = Adam(learning_rate=actor_learning_rate)
        self.critic_optimizer = Adam(learning_rate=critic_learning_rate)
        self.rng = np.random.default_rng(seed)
        # contract: SIM-BATCH-008 exempt(RL training episodes drive the agent directly; no fleet or corpus trace comes from them)
        self.session = PlaybackSession(SessionConfig())

    def _episode_rewards(self, playback: PlaybackTrace, parameters: QoEParameters) -> np.ndarray:
        qualities = playback.bitrates_kbps / 1000.0
        stalls = playback.stall_times
        switches = np.abs(np.diff(qualities, prepend=qualities[:1]))
        return (
            qualities
            - parameters.stall_penalty * stalls
            - parameters.switch_penalty * switches
        )

    def run_episode(self, parameters: QoEParameters | None = None) -> tuple[list, np.ndarray]:
        """Play one episode with exploration on; returns (trajectory, rewards)."""
        if parameters is None:
            if self.randomize_objective:
                parameters = QoEParameters(
                    stall_penalty=float(self.rng.uniform(*self.stall_penalty_range)),
                    switch_penalty=float(self.rng.uniform(*self.switch_penalty_range)),
                )
            else:
                parameters = self.agent.parameters
        self.agent.set_parameters(parameters)
        self.agent.exploration = True
        video = self.videos[int(self.rng.integers(len(self.videos)))]
        trace = self.traces[int(self.rng.integers(len(self.traces)))]
        playback = self.session.run(self.agent, video, trace, rng=self.rng)
        trajectory = list(self.agent.trajectory)
        rewards = self._episode_rewards(playback, parameters)
        self.agent.exploration = False
        return trajectory, rewards

    def _returns(self, rewards: np.ndarray) -> np.ndarray:
        returns = np.zeros_like(rewards)
        running = 0.0
        for i in range(rewards.size - 1, -1, -1):
            running = rewards[i] + self.discount * running
            returns[i] = running
        return returns

    def train(self, iterations: int = 20, episodes_per_iteration: int = 4) -> list[TrainingStats]:
        """Run policy-gradient training; returns per-iteration statistics."""
        if iterations <= 0 or episodes_per_iteration <= 0:
            raise ValueError("iterations and episodes_per_iteration must be positive")
        history: list[TrainingStats] = []
        mse = MeanSquaredError()
        for iteration in range(iterations):
            states: list[np.ndarray] = []
            actions: list[int] = []
            returns: list[float] = []
            reward_total = 0.0
            for _ in range(episodes_per_iteration):
                trajectory, rewards = self.run_episode()
                episode_returns = self._returns(rewards)
                for (state, action), ret in zip(trajectory, episode_returns):
                    states.append(state)
                    actions.append(action)
                    returns.append(float(ret))
                reward_total += float(rewards.sum())
            state_matrix = np.asarray(states)
            action_vector = np.asarray(actions, dtype=int)
            return_vector = np.asarray(returns, dtype=float)

            # Critic update (value baseline).
            values = self.critic.forward(state_matrix)
            critic_loss = mse.forward(values, return_vector[:, None])
            self.critic.backward(mse.backward())
            self.critic_optimizer.step(self.critic.parameters, self.critic.gradients)

            # Actor update with advantage = return - value (pre-update values).
            advantages = return_vector - values[:, 0]
            if advantages.std() > 1e-9:
                advantages = (advantages - advantages.mean()) / advantages.std()
            logits = self.actor.forward(state_matrix)
            probabilities = softmax(logits)
            one_hot = np.zeros_like(probabilities)
            one_hot[np.arange(action_vector.size), action_vector] = 1.0
            # d/dlogits of -log pi(a) * A  plus the entropy bonus gradient.
            grad_logits = (probabilities - one_hot) * advantages[:, None]
            entropy = -np.sum(probabilities * np.log(probabilities + 1e-12), axis=1)
            grad_entropy = probabilities * (
                np.log(probabilities + 1e-12)
                + 1.0
                - np.sum(probabilities * (np.log(probabilities + 1e-12) + 1.0), axis=1, keepdims=True)
            )
            grad_logits += self.entropy_weight * grad_entropy
            grad_logits /= max(action_vector.size, 1)
            self.actor.backward(grad_logits)
            self.actor_optimizer.step(self.actor.parameters, self.actor.gradients)

            history.append(
                TrainingStats(
                    iteration=iteration,
                    mean_reward=reward_total / episodes_per_iteration,
                    mean_entropy=float(entropy.mean()),
                    critic_loss=float(critic_loss),
                )
            )
        return history

    @property
    def actor(self) -> Sequential:
        """The agent's policy network."""
        return self.agent.actor

    @property
    def critic(self) -> Sequential:
        """The agent's value network."""
        return self.agent.critic
