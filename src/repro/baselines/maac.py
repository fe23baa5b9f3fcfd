"""MAAC baseline (Iqbal & Sha, ICML 2019) — multi-actor-attention-critic.

"It trains an actor-attention-critic network for each agent and allows
parameter sharing to improve the learning efficiency. MAAC uses
decentralized critics with a decentralized actor with parameter sharing"
(Sec. V-A).

The critic embeds every agent's (obs, action) pair with a *shared*
encoder, attends from each agent's state embedding over the other agents'
embeddings (self is masked out), and outputs per-action Q values for the
querying agent. Actors are discrete soft policies trained with an
entropy-regularised counterfactual advantage, exactly the MAAC recipe.
"""

from __future__ import annotations

import numpy as np

from ..nn import (
    CategoricalPolicy,
    MLP,
    Module,
    MultiHeadAttention,
    exclude_self_mask,
    hard_update,
    one_hot,
    sample_categorical,
)
from ..training.replay import JointReplayBuffer
from .base import MARLAlgorithm


class AttentionCritic(Module):
    """Shared attention critic producing per-action Q rows for each agent.

    The module holds the parameters; its passes (a cached forward with a
    closed-form attention VJP, and a folded no-grad forward for TD targets
    and advantages) live in
    :class:`~repro.core.update_engine.MAACUpdateEngine`.  Agent ``i``'s
    row attends over the other agents' (obs, action) embeddings and
    marginalises its own action through the per-action output head.
    """

    def __init__(
        self,
        num_agents: int,
        obs_dim: int,
        num_actions: int,
        rng: np.random.Generator,
        hidden_dim: int = 32,
        num_heads: int = 2,
    ):
        super().__init__()
        self.num_agents = num_agents
        self.num_actions = num_actions
        self.obs_encoder = MLP(obs_dim, [hidden_dim], hidden_dim, rng, "relu")
        self.sa_encoder = MLP(
            obs_dim + num_actions, [hidden_dim], hidden_dim, rng, "relu"
        )
        self.attention = MultiHeadAttention(hidden_dim, num_heads, rng)
        # Agent-id one-hot keeps full parameter sharing while letting heads
        # specialise per agent.
        self.head = MLP(2 * hidden_dim + num_agents, [hidden_dim], num_actions, rng)
        self._mask = exclude_self_mask(num_agents)[None]


class MAAC(MARLAlgorithm):
    """Decentralized actors + shared attention critic, soft (entropy) RL."""

    name = "maac"

    def __init__(
        self,
        agent_ids: list[str],
        obs_dim: int,
        num_actions: int,
        rng: np.random.Generator,
        hidden_dim: int = 32,
        num_heads: int = 2,
        lr: float = 1e-3,
        gamma: float = 0.95,
        tau: float = 0.01,
        alpha: float = 0.05,
        buffer_capacity: int = 100_000,
        batch_size: int = 128,
        grad_clip: float = 10.0,
    ):
        super().__init__(agent_ids, obs_dim, num_actions)
        self.lr = lr
        self.gamma = gamma
        self.tau = tau
        self.alpha = alpha
        self.batch_size = batch_size
        self.grad_clip = grad_clip
        self.epsilon = 0.0
        self._rng = rng

        n = self.num_agents
        critic_rng = np.random.default_rng(int(rng.integers(0, 2**31 - 1)))
        self.critic = AttentionCritic(
            n, obs_dim, num_actions, critic_rng, hidden_dim, num_heads
        )
        self.target_critic = AttentionCritic(
            n, obs_dim, num_actions, critic_rng, hidden_dim, num_heads
        )
        hard_update(self.target_critic, self.critic)

        # Parameter sharing: one actor network + agent-id appended to obs.
        actor_rng = np.random.default_rng(int(rng.integers(0, 2**31 - 1)))
        self.actor = CategoricalPolicy(
            obs_dim + n, num_actions, actor_rng, (hidden_dim, hidden_dim)
        )
        self.buffer = JointReplayBuffer(buffer_capacity, n, obs_dim)

    # ------------------------------------------------------------------
    def _actor_input(self, obs: np.ndarray, agent_index: int) -> np.ndarray:
        """``(batch, obs_dim)`` rows with the agent's one-hot id appended."""
        agent_id = np.tile(
            one_hot(np.array([agent_index]), self.num_agents), (len(obs), 1)
        )
        return np.concatenate([obs, agent_id], axis=-1)

    def act_batch(self, observations, explore: bool = True) -> np.ndarray:
        """Batched sampling from the shared actor via the gradient-free
        path: one forward and one categorical draw per agent over the env
        batch (argmax, no draw, when greedy)."""
        num_envs = len(observations)
        actions = np.empty((num_envs, self.num_agents), dtype=np.int64)
        for i in range(self.num_agents):
            logits = self.actor.logits_inference(
                self._actor_input(observations[:, i], i)
            )
            if explore:
                actions[:, i] = sample_categorical(logits, self._rng)
            else:
                actions[:, i] = np.argmax(logits, axis=-1)
        return actions

    def acting_members(self) -> list:
        """The shared actor's trunk (the attention critics only train)."""
        return [self.actor.trunk]

    def observe_batch(self, observations, actions, rewards, next_observations, dones):
        rewards_joint = np.broadcast_to(
            np.asarray(rewards, dtype=self.buffer.rewards.dtype)[:, None],
            (len(observations), self.num_agents),
        )
        self.buffer.push_batch(
            observations, actions, rewards_joint, next_observations, dones
        )
