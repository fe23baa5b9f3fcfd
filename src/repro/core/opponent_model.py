"""Opponent modeling network (Sec. III-C, Fig. 3).

Each agent maintains one categorical predictor per opponent that maps the
agent's own high-level state to the opponent's option distribution. The
model is trained by maximum likelihood on the observed history with an
entropy regulariser:

    L(theta) = -E[ log pi_-i(o_-i | s) + lambda * H(pi_-i) ]

i.e. minimise NLL minus lambda times the predictive entropy ("used to
solve the over-fitting problem"). The *log-probabilities* (not samples)
feed the high-level critic's TD target, which is the paper's variance-
reduction trick.

The maximum-likelihood step runs, for every predictor of a team at once,
in :class:`~repro.core.update_engine.HeroTeamUpdateEngine`.
"""

from __future__ import annotations

import numpy as np

from ..nn import CategoricalPolicy, get_default_dtype
from ..training.replay import ObservationHistoryBuffer


class OpponentModel:
    """Per-opponent option predictors for one observing agent."""

    def __init__(
        self,
        obs_dim: int,
        num_options: int,
        num_opponents: int,
        rng: np.random.Generator,
        hidden_dim: int = 32,
        lr: float = 1e-3,
        entropy_coef: float = 0.01,
        history_capacity: int = 100_000,
        batch_size: int = 128,
        grad_clip: float = 10.0,
    ):
        if num_opponents < 0:
            raise ValueError(f"num_opponents must be >= 0, got {num_opponents}")
        self.obs_dim = obs_dim
        self.num_options = num_options
        self.num_opponents = num_opponents
        self.lr = lr
        self.entropy_coef = entropy_coef
        self.batch_size = batch_size
        self.grad_clip = grad_clip
        self._rng = rng

        self.predictors = [
            CategoricalPolicy(obs_dim, num_options, rng, (hidden_dim, hidden_dim))
            for _ in range(num_opponents)
        ]
        self.history = ObservationHistoryBuffer(
            history_capacity, obs_dim, max(num_opponents, 1)
        )

    # ------------------------------------------------------------------
    # Data collection
    # ------------------------------------------------------------------
    def record(self, obs: np.ndarray, other_options: np.ndarray) -> None:
        """Store one observation of the others' executing options."""
        if self.num_opponents == 0:
            return
        other_options = np.asarray(other_options, dtype=np.int64)
        if other_options.shape != (self.num_opponents,):
            raise ValueError(
                f"expected {self.num_opponents} opponent options, got "
                f"{other_options.shape}"
            )
        self.history.push(obs, other_options)

    def record_batch(self, obs: np.ndarray, other_options: np.ndarray) -> None:
        """Store one observation per row, in row order (one :meth:`record`
        per row, batched)."""
        if self.num_opponents == 0:
            return
        other_options = np.asarray(other_options, dtype=np.int64)
        if other_options.shape != (len(obs), self.num_opponents):
            raise ValueError(
                f"expected ({len(obs)}, {self.num_opponents}) opponent options, "
                f"got {other_options.shape}"
            )
        self.history.push_batch(obs, other_options)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict_probs_batch(self, obs: np.ndarray) -> np.ndarray:
        """Predicted option probabilities, shape (batch, num_opponents,
        num_options).

        Inference only (no autograd graph); this feeds rollout-time
        intention inference.
        """
        if self.num_opponents == 0:
            return np.zeros((len(obs), 0, self.num_options), dtype=get_default_dtype())
        return np.stack(
            [predictor.probs_inference(obs) for predictor in self.predictors], axis=1
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {}
        for j, predictor in enumerate(self.predictors):
            state.update(
                {f"predictor_{j}.{k}": v for k, v in predictor.state_dict().items()}
            )
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for j, predictor in enumerate(self.predictors):
            prefix = f"predictor_{j}."
            predictor.load_state_dict(
                {k[len(prefix):]: v for k, v in state.items() if k.startswith(prefix)}
            )
