"""COMA baseline (Foerster et al., AAAI 2018) — counterfactual multi-agent
policy gradients.

A single centralized critic estimates per-action Q values for each agent
given the central state and the *other* agents' actions; the actor
gradient uses the counterfactual advantage

    A_i(s, u) = Q(s, u_i, u_-i) - sum_a pi_i(a | o_i) Q(s, a, u_-i),

which marginalises agent i's action out of the baseline. Training is
on-policy over whole episodes with n-step (Monte Carlo) targets — the
paper's "standard CTDE approach where the centralized critic is trained
with Q-learning" and the actor with the counterfactual theorem.
"""

from __future__ import annotations

import numpy as np

from ..nn import (
    Adam,
    CategoricalPolicy,
    MLP,
    Tensor,
    clip_grad_norm,
    entropy_from_logits,
    mse_loss,
    one_hot,
    sample_categorical,
)
from ..nn.functional import log_softmax
from ..utils.math_utils import discounted_returns
from .base import MARLAlgorithm


class COMA(MARLAlgorithm):
    """On-policy CTDE with a counterfactual baseline."""

    name = "coma"

    def __init__(
        self,
        agent_ids: list[str],
        obs_dim: int,
        num_actions: int,
        rng: np.random.Generator,
        hidden_dim: int = 32,
        lr: float = 1e-3,
        gamma: float = 0.95,
        entropy_coef: float = 0.01,
        grad_clip: float = 10.0,
        max_episodes_per_update: int = 8,
    ):
        super().__init__(agent_ids, obs_dim, num_actions)
        self.gamma = gamma
        self.entropy_coef = entropy_coef
        self.grad_clip = grad_clip
        self.max_episodes_per_update = max_episodes_per_update
        self.epsilon = 0.0  # exploration from the stochastic policy itself
        self._rng = rng

        n = self.num_agents
        hidden = (hidden_dim, hidden_dim)
        # Critic input: central state (all obs) + other agents' actions
        # (one-hot) + agent id (one-hot). Output: |A| Q-values for agent i.
        critic_in = n * obs_dim + (n - 1) * num_actions + n
        critic_rng = np.random.default_rng(int(rng.integers(0, 2**31 - 1)))
        self.critic = MLP(critic_in, hidden, num_actions, critic_rng)
        self.critic_opt = Adam(self.critic.parameters(), lr=lr)

        self.actors = []
        self.actor_opts = []
        for _ in range(n):
            actor_rng = np.random.default_rng(int(rng.integers(0, 2**31 - 1)))
            actor = CategoricalPolicy(obs_dim, num_actions, actor_rng, hidden)
            self.actors.append(actor)
            self.actor_opts.append(Adam(actor.parameters(), lr=lr))

        self._pending_episodes: list[list[dict]] = []
        self._env_episodes: list[list[dict]] = []

    # ------------------------------------------------------------------
    def act_batch(self, observations, explore: bool = True) -> np.ndarray:
        """Batched sampling from the actors via the gradient-free path:
        one forward and one categorical draw per agent over the env batch
        (argmax, no draw, when greedy)."""
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
        """Every agent's actor trunk (the critic only trains)."""
        return [actor.trunk for actor in self.actors]

    def observe_batch(self, observations, actions, rewards, next_observations, dones):
        """Accumulate each env's episode separately.

        Steps from different envs interleave, so rows are appended to
        per-env lists and each list is queued for the next update (at most
        ``max_episodes_per_update`` of them, newest kept) the moment its
        env reports done.
        """
        num_envs = len(observations)
        if len(self._env_episodes) != num_envs:
            self._env_episodes = [[] for _ in range(num_envs)]
        for i in range(num_envs):
            self._env_episodes[i].append(
                {
                    # Rows are views into the trainer's reused batch: copy.
                    "obs": np.array(observations[i]),
                    "actions": np.array(actions[i]),
                    # Not an identity: the mean over num_agents copies of
                    # the shared team reward can round (pairwise summation
                    # of e.g. 3 copies), and every stored COMA reward has
                    # been this mean; float(rewards[i]) would move some by
                    # an ulp and change every trained COMA run.
                    "reward": float(
                        np.mean(np.full(self.num_agents, float(rewards[i])))
                    ),
                }
            )
            if dones[i]:
                self._pending_episodes.append(self._env_episodes[i])
                if len(self._pending_episodes) > self.max_episodes_per_update:
                    self._pending_episodes.pop(0)
                self._env_episodes[i] = []

    # ------------------------------------------------------------------
    def _critic_inputs(self, obs: np.ndarray, actions: np.ndarray, agent: int):
        """Build critic rows for one agent across ``T`` timesteps."""
        steps = len(obs)
        central = obs.reshape(steps, -1)
        others = [
            one_hot(actions[:, j], self.num_actions)
            for j in range(self.num_agents)
            if j != agent
        ]
        others_flat = (
            np.concatenate(others, axis=-1)
            if others
            else np.zeros((steps, 0))
        )
        agent_id = np.tile(one_hot(np.array([agent]), self.num_agents), (steps, 1))
        return np.concatenate([central, others_flat, agent_id], axis=-1)

    def update(self) -> dict[str, float] | None:
        if not self._pending_episodes:
            return None
        episodes, self._pending_episodes = self._pending_episodes, []

        critic_losses, actor_losses, entropies = [], [], []
        for episode in episodes:
            obs = np.stack([step["obs"] for step in episode])  # (T, n, obs)
            actions = np.stack([step["actions"] for step in episode])  # (T, n)
            rewards = np.array([step["reward"] for step in episode])
            returns = discounted_returns(rewards, self.gamma)

            for i in range(self.num_agents):
                critic_in = self._critic_inputs(obs, actions, i)

                # --- Critic: regress chosen-action Q to Monte Carlo returns.
                q_rows = self.critic(critic_in)
                q_chosen = q_rows.gather(actions[:, i][:, None], axis=-1).squeeze(-1)
                critic_loss = mse_loss(q_chosen, returns)
                self.critic_opt.zero_grad()
                critic_loss.backward()
                clip_grad_norm(self.critic.parameters(), self.grad_clip)
                self.critic_opt.step()

                # --- Actor: counterfactual advantage.
                q_data = self.critic.infer(critic_in)  # (T, |A|), no graph
                logits = self.actors[i].forward(obs[:, i])
                log_probs = log_softmax(logits, axis=-1)
                probs = np.exp(log_probs.data)
                baseline = (probs * q_data).sum(axis=-1)
                chosen_q = np.take_along_axis(
                    q_data, actions[:, i][:, None], axis=-1
                )[:, 0]
                advantage = chosen_q - baseline
                chosen_log_probs = log_probs.gather(
                    actions[:, i][:, None], axis=-1
                ).squeeze(-1)
                entropy = entropy_from_logits(logits).mean()
                actor_loss = -(chosen_log_probs * Tensor(advantage)).mean() - (
                    entropy * self.entropy_coef
                )
                self.actor_opts[i].zero_grad()
                actor_loss.backward()
                clip_grad_norm(self.actors[i].parameters(), self.grad_clip)
                self.actor_opts[i].step()

                critic_losses.append(critic_loss.item())
                actor_losses.append(actor_loss.item())
                entropies.append(entropy.item())

        return {
            "critic_loss": float(np.mean(critic_losses)),
            "actor_loss": float(np.mean(actor_losses)),
            "entropy": float(np.mean(entropies)),
        }
