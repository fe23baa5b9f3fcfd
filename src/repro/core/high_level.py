"""High-level option-selection learner (Sec. III-C, Algorithm 1).

Each agent trains, fully decentralised:

* an **actor** ``pi_h(o | s_h, o_hat_-i)`` — a categorical policy over
  options whose input is the high-level state concatenated with the
  opponent model's predicted option distributions,
* a **critic** ``Q_h(s_h, o_i, o_-i)`` — a scalar network over the state
  and all agents' option representations. Stored transitions feed one-hot
  options; TD targets feed the *policies' probability vectors* directly
  ("we input the option log probabilities of other agents directly into
  Q, rather than sampling"),
* an **opponent model** per other agent (see
  :mod:`repro.core.opponent_model`).

The critic target discounts by ``gamma^c`` where ``c`` is the number of
primitive steps the option ran (SMDP discounting).
"""

from __future__ import annotations

import numpy as np

from ..config import PaperHyperparameters
from ..nn import (
    Adam,
    CategoricalPolicy,
    MLP,
    Tensor,
    clip_grad_norm,
    entropy_from_logits,
    get_default_dtype,
    hard_update,
    mse_loss,
    one_hot,
    soft_update,
)
from ..nn.functional import log_softmax
from ..training.replay import OptionReplayBuffer, OptionTransition
from .opponent_model import OpponentModel

OPPONENT_MODES = ("model", "observed", "zeros")


class HighLevelAgent:
    """Decentralized actor-critic over options with opponent modeling."""

    def __init__(
        self,
        obs_dim: int,
        num_options: int,
        num_opponents: int,
        rng: np.random.Generator,
        hyper: PaperHyperparameters | None = None,
        lr: float = 1e-3,
        entropy_coef: float = 0.01,
        opponent_entropy_coef: float = 0.01,
        opponent_mode: str = "model",
        batch_size: int = 128,
        use_baseline: bool = True,
        grad_clip: float = 10.0,
    ):
        if opponent_mode not in OPPONENT_MODES:
            raise ValueError(
                f"opponent_mode must be one of {OPPONENT_MODES}, got {opponent_mode!r}"
            )
        hyper = hyper or PaperHyperparameters()
        self.obs_dim = obs_dim
        self.num_options = num_options
        self.num_opponents = num_opponents
        self.gamma = hyper.discount_factor
        self.tau = hyper.target_update_rate
        self.batch_size = batch_size
        self.entropy_coef = entropy_coef
        self.use_baseline = use_baseline
        self.grad_clip = grad_clip
        self.opponent_mode = opponent_mode
        self._rng = rng

        hidden = (hyper.hidden_dim, hyper.hidden_dim)
        opponent_rep_dim = num_opponents * num_options
        self.actor = CategoricalPolicy(
            obs_dim + opponent_rep_dim, num_options, rng, hidden
        )
        critic_in = obs_dim + num_options + opponent_rep_dim
        self.critic = MLP(critic_in, hidden, 1, rng)
        self.target_critic = MLP(critic_in, hidden, 1, rng)
        hard_update(self.target_critic, self.critic)

        self.actor_opt = Adam(self.actor.parameters(), lr=lr)
        self.critic_opt = Adam(self.critic.parameters(), lr=lr)

        self.opponent_model = OpponentModel(
            obs_dim,
            num_options,
            num_opponents,
            rng,
            hidden_dim=hyper.hidden_dim,
            lr=lr,
            entropy_coef=opponent_entropy_coef,
        )
        self.buffer = OptionReplayBuffer(
            hyper.buffer_capacity, obs_dim, max(num_opponents, 1)
        )
        self._last_observed_options = np.zeros(num_opponents, dtype=np.int64)

    # ------------------------------------------------------------------
    # Opponent representation
    # ------------------------------------------------------------------
    def _opponent_rep_batch(
        self, obs: np.ndarray, other_onehot: np.ndarray
    ) -> np.ndarray:
        """Batched opponent representation, shape (batch, n_opp * n_opt).

        Mode ``model``: the opponent model's predicted distributions at
        ``obs``.  Mode ``observed``: ``other_onehot``, each sampled row's
        stored one-hot of the options the agent observed when it chose its
        option.  The replay stores no next-state options, so the TD
        target's next state reads the same row.  Mode ``zeros``: zeros.
        """
        batch = len(obs)
        if self.num_opponents == 0:
            return np.zeros((batch, 0), dtype=get_default_dtype())
        if self.opponent_mode == "model":
            return self.opponent_model.predict_probs_batch(obs).reshape(batch, -1)
        if self.opponent_mode == "observed":
            return other_onehot
        return np.zeros(
            (batch, self.num_opponents * self.num_options), dtype=get_default_dtype()
        )

    # ------------------------------------------------------------------
    # Experience (written by the batched runner)
    # ------------------------------------------------------------------
    def store_transition(self, transition: OptionTransition) -> None:
        self.buffer.push(transition)

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def _critic_input(
        self, obs: np.ndarray, own_rep: np.ndarray, other_rep: np.ndarray
    ) -> np.ndarray:
        return np.concatenate([obs, own_rep, other_rep], axis=-1)

    def update(self) -> dict[str, float] | None:
        """One actor-critic step plus an opponent-model step."""
        if len(self.buffer) < max(self.batch_size // 4, 8):
            return None
        batch = self.buffer.sample(self.batch_size, self._rng)
        batch_size = len(batch["obs"])

        own_onehot = one_hot(batch["options"], self.num_options)
        other_onehot = one_hot(batch["other_options"], self.num_options).reshape(
            batch_size, -1
        )
        if self.num_opponents == 0:
            other_onehot = np.zeros((batch_size, 0), dtype=get_default_dtype())

        # --- Critic: SMDP TD target with policy/option-model probabilities.
        next_other_rep = self._opponent_rep_batch(batch["next_obs"], other_onehot)
        next_actor_in = np.concatenate([batch["next_obs"], next_other_rep], axis=-1)
        next_own_probs = self.actor.probs_inference(next_actor_in)
        target_in = self._critic_input(
            batch["next_obs"], next_own_probs, next_other_rep
        )
        next_q = self.target_critic.infer(target_in)[:, 0]
        discount = self.gamma ** batch["steps"]
        y = batch["rewards"] + discount * (1.0 - batch["dones"]) * next_q

        critic_in = self._critic_input(batch["obs"], own_onehot, other_onehot)
        q_values = self.critic(critic_in).squeeze(-1)
        critic_loss = mse_loss(q_values, y)
        self.critic_opt.zero_grad()
        critic_loss.backward()
        clip_grad_norm(self.critic.parameters(), self.grad_clip)
        self.critic_opt.step()

        # --- Actor: expected (all-option) policy gradient.
        # The option set is small, so instead of the sampled-action score
        # function (which starves once the behaviour distribution collapses
        # onto one option) we evaluate the critic for *every* option and
        # ascend E_{o ~ pi}[Q(s, o, o_-i)] directly:
        #   loss = -sum_o pi(o|s) * A(s, o),  A = Q - V,  V = sum_o pi*Q.
        other_rep = self._opponent_rep_batch(batch["obs"], other_onehot)
        actor_in = np.concatenate([batch["obs"], other_rep], axis=-1)
        logits = self.actor.forward(actor_in)
        log_probs = log_softmax(logits, axis=-1)
        probs = log_probs.exp()

        # No gradient flows through the critic here (the advantage enters
        # the actor loss as data), so the inference path suffices.
        q_all = np.stack(
            [
                self.critic.infer(
                    self._critic_input(
                        batch["obs"],
                        one_hot(np.full(batch_size, o), self.num_options),
                        other_onehot,
                    )
                )[:, 0]
                for o in range(self.num_options)
            ],
            axis=1,
        )
        if self.use_baseline:
            probs_data = np.exp(log_probs.data)
            advantage = q_all - (probs_data * q_all).sum(axis=1, keepdims=True)
        else:
            advantage = q_all
        entropy = entropy_from_logits(logits).mean()
        actor_loss = -(probs * Tensor(advantage)).sum(axis=1).mean() - (
            entropy * self.entropy_coef
        )
        self.actor_opt.zero_grad()
        actor_loss.backward()
        clip_grad_norm(self.actor.parameters(), self.grad_clip)
        self.actor_opt.step()

        soft_update(self.target_critic, self.critic, self.tau)

        losses = {
            "critic_loss": critic_loss.item(),
            "actor_loss": actor_loss.item(),
            "entropy": entropy.item(),
        }
        if self.opponent_mode == "model":
            opponent_losses = self.opponent_model.update()
            if opponent_losses:
                losses.update(opponent_losses)
        return losses

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {f"actor.{k}": v for k, v in self.actor.state_dict().items()}
        state.update({f"critic.{k}": v for k, v in self.critic.state_dict().items()})
        state.update(
            {f"opponent.{k}": v for k, v in self.opponent_model.state_dict().items()}
        )
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.actor.load_state_dict(
            {k[len("actor."):]: v for k, v in state.items() if k.startswith("actor.")}
        )
        self.critic.load_state_dict(
            {k[len("critic."):]: v for k, v in state.items() if k.startswith("critic.")}
        )
        hard_update(self.target_critic, self.critic)
        self.opponent_model.load_state_dict(
            {
                k[len("opponent."):]: v
                for k, v in state.items()
                if k.startswith("opponent.")
            }
        )
