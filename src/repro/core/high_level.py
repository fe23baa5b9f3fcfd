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

The agent holds the networks, replay and hyperparameters; its gradient
step (critic, actor and opponent models) runs, for every agent of a team
at once, in :class:`~repro.core.update_engine.HeroTeamUpdateEngine`.
"""

from __future__ import annotations

import numpy as np

from ..config import PaperHyperparameters
from ..nn import CategoricalPolicy, MLP, hard_update
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
        self.lr = lr
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
    # Experience (written by the batched runner)
    # ------------------------------------------------------------------
    def store_transition(self, transition: OptionTransition) -> None:
        self.buffer.push(transition)

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
