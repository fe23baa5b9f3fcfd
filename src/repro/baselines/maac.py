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
    Adam,
    CategoricalPolicy,
    MLP,
    Module,
    MultiHeadAttention,
    Tensor,
    clip_grad_norm,
    entropy_from_logits,
    exclude_self_mask,
    hard_update,
    mse_loss,
    one_hot,
    sample_categorical,
    soft_update,
)
from ..nn.functional import log_softmax
from ..nn.tensor import concatenate
from ..training.replay import JointReplayBuffer
from .base import MARLAlgorithm


class AttentionCritic(Module):
    """Shared attention critic producing per-action Q rows for each agent."""

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

    def forward(self, obs: np.ndarray, actions: np.ndarray) -> list[Tensor]:
        """Per-agent Q rows.

        Parameters
        ----------
        obs: ``(batch, n_agents, obs_dim)`` array.
        actions: ``(batch, n_agents)`` integer actions (used for the
            *other* agents' encodings; agent i's own action is marginalised
            by the per-action output head).

        Returns a list of ``(batch, num_actions)`` tensors, one per agent.
        """
        batch = obs.shape[0]
        action_onehot = one_hot(actions, self.num_actions)
        sa_in = np.concatenate([obs, action_onehot], axis=-1)

        flat_obs = obs.reshape(batch * self.num_agents, -1)
        flat_sa = sa_in.reshape(batch * self.num_agents, -1)
        state_emb = self.obs_encoder(flat_obs).reshape(
            batch, self.num_agents, -1
        )
        sa_emb = self.sa_encoder(flat_sa).reshape(batch, self.num_agents, -1)

        attended = self.attention(state_emb, sa_emb, mask=self._mask)

        rows = []
        for i in range(self.num_agents):
            agent_id = np.tile(one_hot(np.array([i]), self.num_agents), (batch, 1))
            head_in = concatenate(
                [state_emb[:, i], attended[:, i], Tensor(agent_id)], axis=-1
            )
            rows.append(self.head(head_in))
        return rows

    def infer(self, obs: np.ndarray, actions: np.ndarray) -> list[np.ndarray]:
        """Gradient-free :meth:`forward`, bit-identical to its ``.data``.

        The TD-target path never backprops through the target critic, so
        building tape nodes for it is pure overhead; this replays the tape
        arithmetic expression for expression on raw arrays (the additive
        attention-mask term is cast to the compute dtype exactly where the
        tape's ``Tensor`` coercion casts it — ``0.0`` and ``-1e9`` are
        exactly representable in float32, so the cast point cannot change
        the bits), keeping the default update path unchanged bit for bit
        at any compute dtype.
        """
        batch = obs.shape[0]
        action_onehot = one_hot(actions, self.num_actions)
        sa_in = np.concatenate([obs, action_onehot], axis=-1)

        flat_obs = obs.reshape(batch * self.num_agents, -1)
        flat_sa = sa_in.reshape(batch * self.num_agents, -1)
        state_emb = self.obs_encoder.net.infer(flat_obs).reshape(
            batch, self.num_agents, -1
        )
        sa_emb = self.sa_encoder.net.infer(flat_sa).reshape(
            batch, self.num_agents, -1
        )

        head_outputs = []
        for head in self.attention.heads:
            q = state_emb @ head.query_proj.weight.data
            k = sa_emb @ head.key_proj.weight.data
            v = sa_emb @ head.value_proj.weight.data
            # float(scale): head.scale is a float64 numpy scalar, which
            # would promote float32 scores; the tape multiplies through a
            # Tensor coercion to the compute dtype — a weak python float
            # reproduces those bits.
            scores = (q @ k.transpose(0, 2, 1)) * float(head.scale)
            scores = scores + np.where(self._mask, 0.0, -1e9).astype(scores.dtype)
            shifted = scores - scores.max(axis=-1, keepdims=True)
            exp = np.exp(shifted)
            weights = exp / exp.sum(axis=-1, keepdims=True)
            head_outputs.append(weights @ v)
        merged = np.concatenate(head_outputs, axis=-1)
        out_proj = self.attention.out_proj
        attended = merged @ out_proj.weight.data + out_proj.bias.data

        rows = []
        for i in range(self.num_agents):
            agent_id = np.tile(one_hot(np.array([i]), self.num_agents), (batch, 1))
            head_in = np.concatenate(
                [state_emb[:, i], attended[:, i], agent_id], axis=-1
            )
            rows.append(self.head.net.infer(head_in))
        return rows


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
        self.critic_opt = Adam(self.critic.parameters(), lr=lr)

        # Parameter sharing: one actor network + agent-id appended to obs.
        actor_rng = np.random.default_rng(int(rng.integers(0, 2**31 - 1)))
        self.actor = CategoricalPolicy(
            obs_dim + n, num_actions, actor_rng, (hidden_dim, hidden_dim)
        )
        self.actor_opt = Adam(self.actor.parameters(), lr=lr)
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

    # ------------------------------------------------------------------
    def update(self) -> dict[str, float] | None:
        if len(self.buffer) < max(self.batch_size // 4, 8):
            return None
        batch = self.buffer.sample(self.batch_size, self._rng)
        batch_size = len(batch["dones"])
        n = self.num_agents

        # --- Sample next actions and their log-probs from current actors.
        next_actions = np.zeros((batch_size, n), dtype=np.int64)
        next_log_probs = np.zeros((batch_size, n))
        for i in range(n):
            logits = self.actor.logits_inference(
                self._actor_input(batch["next_obs"][:, i], i)
            )
            next_actions[:, i] = sample_categorical(logits, self._rng)
            row_log_probs = logits - _logsumexp_rows(logits)
            next_log_probs[:, i] = np.take_along_axis(
                row_log_probs, next_actions[:, i][:, None], axis=-1
            )[:, 0]

        # No-grad kernels for the TD targets: the tape forward built nodes
        # that were never backpropped (bitwise-identical values either way).
        target_rows = self.target_critic.infer(batch["next_obs"], next_actions)
        critic_rows = self.critic(batch["obs"], batch["actions"])

        critic_loss_total = None
        for i in range(n):
            target_q = np.take_along_axis(
                target_rows[i], next_actions[:, i][:, None], axis=-1
            )[:, 0]
            soft_target = target_q - self.alpha * next_log_probs[:, i]
            y = batch["rewards"][:, i] + self.gamma * (1.0 - batch["dones"]) * soft_target
            q_chosen = critic_rows[i].gather(
                batch["actions"][:, i][:, None], axis=-1
            ).squeeze(-1)
            loss = mse_loss(q_chosen, y)
            critic_loss_total = loss if critic_loss_total is None else critic_loss_total + loss

        self.critic_opt.zero_grad()
        critic_loss_total.backward()
        clip_grad_norm(self.critic.parameters(), self.grad_clip)
        self.critic_opt.step()

        # --- Actor update: entropy-regularised counterfactual advantage.
        q_rows_data = [row.data for row in self.critic(batch["obs"], batch["actions"])]
        actor_loss_total = None
        entropy_total = 0.0
        for i in range(n):
            logits = self.actor.forward(self._actor_input(batch["obs"][:, i], i))
            log_probs = log_softmax(logits, axis=-1)
            probs = np.exp(log_probs.data)
            q_data = q_rows_data[i]
            baseline = (probs * q_data).sum(axis=-1)
            sampled = sample_categorical(logits.data, self._rng)
            advantage = (
                np.take_along_axis(q_data, sampled[:, None], axis=-1)[:, 0] - baseline
            )
            chosen_log_probs = log_probs.gather(sampled[:, None], axis=-1).squeeze(-1)
            target_term = advantage - self.alpha * chosen_log_probs.data
            loss = -(chosen_log_probs * Tensor(target_term)).mean()
            actor_loss_total = loss if actor_loss_total is None else actor_loss_total + loss
            entropy_total += float(entropy_from_logits(logits).mean().data)

        self.actor_opt.zero_grad()
        actor_loss_total.backward()
        clip_grad_norm(self.actor.parameters(), self.grad_clip)
        self.actor_opt.step()

        soft_update(self.target_critic, self.critic, self.tau)
        return {
            "critic_loss": critic_loss_total.item(),
            "actor_loss": actor_loss_total.item(),
            "entropy": entropy_total / n,
        }


def _logsumexp_rows(logits: np.ndarray) -> np.ndarray:
    max_val = logits.max(axis=-1, keepdims=True)
    return max_val + np.log(np.exp(logits - max_val).sum(axis=-1, keepdims=True))
