"""Independent Deep Q-learning (the paper's distributed baseline).

"Each agent trains a Q-network using its local observation and shared team
reward. Each agent applies the epsilon-greedy strategy for action
exploration" (Sec. V-A). No coordination machinery whatsoever — the paper
shows it achieves a low collision rate by *never changing lanes* (Fig. 7c),
which is exactly the failure mode independent learners exhibit here.
"""

from __future__ import annotations

import numpy as np

from ..nn import Adam, DiscreteQNetwork, clip_grad_norm, hard_update, mse_loss, soft_update
from ..training.replay import ReplayBuffer
from .base import MARLAlgorithm


class IndependentDQN(MARLAlgorithm):
    """One DQN learner per agent, trained on local observations."""

    name = "idqn"

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
        grad_clip: float = 10.0,
        double_q: bool = True,
    ):
        super().__init__(agent_ids, obs_dim, num_actions)
        self.gamma = gamma
        self.tau = tau
        self.batch_size = batch_size
        self.grad_clip = grad_clip
        self.double_q = double_q
        self.epsilon = 1.0  # set per episode by BaselineRolloutWorker
        self._rng = rng

        hidden = (hidden_dim, hidden_dim)
        self.q_networks: dict[str, DiscreteQNetwork] = {}
        self.target_networks: dict[str, DiscreteQNetwork] = {}
        self.optimizers: dict[str, Adam] = {}
        self.buffers: dict[str, ReplayBuffer] = {}
        for agent in self.agent_ids:
            seed = int(rng.integers(0, 2**31 - 1))
            agent_rng = np.random.default_rng(seed)
            self.q_networks[agent] = DiscreteQNetwork(
                obs_dim, num_actions, agent_rng, hidden
            )
            self.target_networks[agent] = DiscreteQNetwork(
                obs_dim, num_actions, agent_rng, hidden
            )
            hard_update(self.target_networks[agent], self.q_networks[agent])
            self.optimizers[agent] = Adam(self.q_networks[agent].parameters(), lr=lr)
            self.buffers[agent] = ReplayBuffer(buffer_capacity, obs_dim, 1)

    # ------------------------------------------------------------------
    def act(self, observations, explore: bool = True) -> dict[str, int]:
        actions = {}
        for agent in self.agent_ids:
            if explore and self._rng.uniform() < self.epsilon:
                actions[agent] = int(self._rng.integers(0, self.num_actions))
            else:
                q_row = self.q_networks[agent](observations[agent][None, :]).data[0]
                actions[agent] = int(np.argmax(q_row))
        return actions

    def observe(self, observations, actions, rewards, next_observations, dones):
        for agent in self.agent_ids:
            self.buffers[agent].push(
                observations[agent],
                [actions[agent]],
                rewards[agent],
                next_observations[agent],
                dones[agent],
            )

    # ------------------------------------------------------------------
    # Batched interface (vectorized training)
    # ------------------------------------------------------------------
    def act_batch(self, observations, explore: bool = True) -> np.ndarray:
        """Batched epsilon-greedy over ``(num_envs, agents, obs_dim)`` stacks.

        Greedy rows go through the gradient-free ``Sequential.infer`` path
        in one forward per agent.  ``self.epsilon`` may be per-env
        (``(num_envs,)``).  At ``num_envs == 1`` this consumes ``self._rng``
        exactly like :meth:`act` — one uniform per agent, plus one bounded
        integer when that agent explores — so at one env the training loop
        explores exactly as the scalar :meth:`act` would.
        """
        num_envs = len(observations)
        if explore:
            # Greedy evaluation must not read self.epsilon: it may hold a
            # per-env array sized for a different (training) batch.
            epsilon = np.broadcast_to(
                np.asarray(self.epsilon, dtype=np.float64), (num_envs,)
            )
        actions = np.empty((num_envs, self.num_agents), dtype=np.int64)
        for k, agent in enumerate(self.agent_ids):
            if explore:
                explore_rows = self._rng.uniform(size=num_envs) < epsilon
            else:
                explore_rows = np.zeros(num_envs, dtype=bool)
            num_explore = int(explore_rows.sum())
            if num_explore:
                actions[explore_rows, k] = self._rng.integers(
                    0, self.num_actions, size=num_explore
                )
            greedy_rows = ~explore_rows
            if greedy_rows.any():
                q_rows = self.q_networks[agent].trunk.infer(
                    observations[greedy_rows, k]
                )
                actions[greedy_rows, k] = np.argmax(q_rows, axis=-1)
        return actions

    def observe_batch(self, observations, actions, rewards, next_observations, dones):
        for k, agent in enumerate(self.agent_ids):
            self.buffers[agent].push_batch(
                observations[:, k],
                actions[:, k : k + 1],
                rewards,
                next_observations[:, k],
                dones,
            )

    # ------------------------------------------------------------------
    def update(self) -> dict[str, float] | None:
        if any(len(b) < max(self.batch_size // 4, 8) for b in self.buffers.values()):
            return None
        losses = {}
        for agent in self.agent_ids:
            batch = self.buffers[agent].sample(self.batch_size, self._rng)
            q_net = self.q_networks[agent]
            target_net = self.target_networks[agent]
            action_idx = batch["actions"].astype(np.int64)

            # TD targets need no gradients: the inference path is bitwise
            # equal to the tape forward and skips the graph entirely.
            next_q_target = target_net.trunk.infer(batch["next_obs"])
            if self.double_q:
                next_best = q_net.trunk.infer(batch["next_obs"]).argmax(axis=1)
                next_value = np.take_along_axis(
                    next_q_target, next_best[:, None], axis=1
                )[:, 0]
            else:
                next_value = next_q_target.max(axis=1)
            y = batch["rewards"] + self.gamma * (1.0 - batch["dones"]) * next_value

            q_chosen = q_net(batch["obs"]).gather(action_idx, axis=-1).squeeze(-1)
            loss = mse_loss(q_chosen, y)
            self.optimizers[agent].zero_grad()
            loss.backward()
            clip_grad_norm(q_net.parameters(), self.grad_clip)
            self.optimizers[agent].step()
            soft_update(target_net, q_net, self.tau)
            losses[f"{agent}/q_loss"] = loss.item()
        return losses
