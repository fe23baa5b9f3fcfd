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

from ..nn import (
    Adam,
    CategoricalPolicy,
    MLP,
    Tensor,
    clip_grad_norm,
    concatenate,
    gumbel_softmax,
    hard_update,
    mse_loss,
    one_hot,
    sample_categorical,
    soft_update,
)
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
        self.actor_opts, self.critic_opts = [], []
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
            self.actor_opts.append(Adam(actor.parameters(), lr=lr))
            self.critic_opts.append(Adam(critic.parameters(), lr=lr))

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

    # ------------------------------------------------------------------
    def update(self) -> dict[str, float] | None:
        if len(self.buffer) < max(self.batch_size // 4, 8):
            return None
        batch = self.buffer.sample(self.batch_size, self._rng)
        batch_size = len(batch["dones"])
        n = self.num_agents

        joint_obs = batch["obs"].reshape(batch_size, -1)
        joint_next_obs = batch["next_obs"].reshape(batch_size, -1)
        joint_actions = one_hot(batch["actions"], self.num_actions).reshape(
            batch_size, -1
        )

        # Target joint action from the target actors (hard one-hot); the
        # inference path is bitwise equal to the tape forward.
        target_next = [
            one_hot(
                self.target_actors[j].logits_inference(batch["next_obs"][:, j]).argmax(-1),
                self.num_actions,
            )
            for j in range(n)
        ]
        joint_next_actions = np.concatenate(target_next, axis=-1)

        losses = {}
        for i, agent in enumerate(self.agent_ids):
            # --- Critic ----------------------------------------------------
            target_q = self.target_critics[i].infer(
                np.concatenate([joint_next_obs, joint_next_actions], axis=-1)
            )[:, 0]
            y = batch["rewards"][:, i] + self.gamma * (1.0 - batch["dones"]) * target_q
            q = self.critics[i](
                np.concatenate([joint_obs, joint_actions], axis=-1)
            ).squeeze(-1)
            critic_loss = mse_loss(q, y)
            self.critic_opts[i].zero_grad()
            critic_loss.backward()
            clip_grad_norm(self.critics[i].parameters(), self.grad_clip)
            self.critic_opts[i].step()

            # --- Actor (Gumbel-softmax straight-through) --------------------
            # The critic is stop-gradiented for this pass (the actor loss
            # only needs dQ/d(action)); the freeze spans backward() because
            # the closures check requires_grad at propagation time.
            logits = self.actors[i].forward(batch["obs"][:, i])
            own_action = gumbel_softmax(
                logits, self._rng, temperature=self.temperature, hard=True
            )
            other_actions = one_hot(batch["actions"], self.num_actions)
            pieces = []
            for j in range(n):
                if j == i:
                    pieces.append(own_action)
                else:
                    pieces.append(Tensor(other_actions[:, j]))
            critic_input = concatenate(
                [Tensor(joint_obs)] + pieces, axis=-1
            )
            critic_params = self.critics[i].parameters()
            for param in critic_params:
                param.requires_grad = False
            try:
                actor_loss = -self.critics[i](critic_input).mean()
                self.actor_opts[i].zero_grad()
                actor_loss.backward()
            finally:
                for param in critic_params:
                    param.requires_grad = True
            clip_grad_norm(self.actors[i].parameters(), self.grad_clip)
            self.actor_opts[i].step()

            soft_update(self.target_critics[i], self.critics[i], self.tau)
            soft_update(self.target_actors[i], self.actors[i], self.tau)
            losses[f"{agent}/critic_loss"] = critic_loss.item()
            losses[f"{agent}/actor_loss"] = actor_loss.item()
        return losses
