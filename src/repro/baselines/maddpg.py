"""MADDPG baseline (Lowe et al., NeurIPS 2017) — CTDE with per-agent
centralized critics.

Each agent has an actor over the discrete primitive action set (handled
with the Gumbel-softmax straight-through relaxation, the standard way
MADDPG drives discrete actions) and a critic that sees *all* agents'
observations and actions — the feature-scaling weakness the paper
criticises in Sec. I.
"""

from __future__ import annotations

import numpy as np

from ..nn import CategoricalPolicy, MLP, hard_update, sample_categorical
from ..training.replay import JointReplayBuffer
from .base import MARLAlgorithm


class MADDPG(MARLAlgorithm):
    """Multi-agent actor-critic with centralized critics."""

    name = "maddpg"

    def __init__(
        self,
        agent_ids: list[str],
        obs_dim: int,
        num_actions: int,
        rng: np.random.Generator,
        hidden_dim: int = 32,
        lr: float = 1e-3,
        gamma: float = 0.95,
        tau: float = 0.01,
        buffer_capacity: int = 100_000,
        batch_size: int = 128,
        gumbel_temperature: float = 1.0,
        grad_clip: float = 10.0,
    ):
        super().__init__(agent_ids, obs_dim, num_actions)
        self.lr = lr
        self.gamma = gamma
        self.tau = tau
        self.batch_size = batch_size
        self.temperature = gumbel_temperature
        self.grad_clip = grad_clip
        self.epsilon = 0.0  # exploration comes from Gumbel sampling
        self._rng = rng

        n = self.num_agents
        hidden = (hidden_dim, hidden_dim)
        critic_in = n * obs_dim + n * num_actions
        self.actors, self.target_actors = [], []
        self.critics, self.target_critics = [], []
        for _ in range(n):
            seed = int(rng.integers(0, 2**31 - 1))
            agent_rng = np.random.default_rng(seed)
            actor = CategoricalPolicy(obs_dim, num_actions, agent_rng, hidden)
            target_actor = CategoricalPolicy(obs_dim, num_actions, agent_rng, hidden)
            hard_update(target_actor, actor)
            critic = MLP(critic_in, hidden, 1, agent_rng)
            target_critic = MLP(critic_in, hidden, 1, agent_rng)
            hard_update(target_critic, critic)
            self.actors.append(actor)
            self.target_actors.append(target_actor)
            self.critics.append(critic)
            self.target_critics.append(target_critic)

        self.buffer = JointReplayBuffer(buffer_capacity, n, obs_dim)

    # ------------------------------------------------------------------
    def act_batch(self, observations, explore: bool = True) -> np.ndarray:
        """Batched sampling from the actors via the gradient-free path:
        one inference forward and one categorical draw per agent over the
        env batch (argmax, no draw, when greedy)."""
        num_envs = len(observations)
        actions = np.empty((num_envs, self.num_agents), dtype=np.int64)
        for i in range(self.num_agents):
            logits = self.actors[i].logits_inference(observations[:, i])
            if explore:
                actions[:, i] = sample_categorical(logits, self._rng)
            else:
                actions[:, i] = np.argmax(logits, axis=-1)
        return actions

    def acting_members(self) -> list:
        """Every agent's actor trunk (critics and targets only train)."""
        return [actor.trunk for actor in self.actors]

    def observe_batch(self, observations, actions, rewards, next_observations, dones):
        rewards_joint = np.broadcast_to(
            np.asarray(rewards, dtype=self.buffer.rewards.dtype)[:, None],
            (len(observations), self.num_agents),
        )
        self.buffer.push_batch(
            observations, actions, rewards_joint, next_observations, dones
        )
