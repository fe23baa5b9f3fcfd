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
"""

from __future__ import annotations

import numpy as np

from ..nn import (
    Adam,
    CategoricalPolicy,
    clip_grad_norm,
    entropy_from_logits,
    get_default_dtype,
    nll_loss,
)
from ..nn.functional import log_softmax
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
        self.entropy_coef = entropy_coef
        self.batch_size = batch_size
        self.grad_clip = grad_clip
        self._rng = rng

        self.predictors = [
            CategoricalPolicy(obs_dim, num_options, rng, (hidden_dim, hidden_dim))
            for _ in range(num_opponents)
        ]
        self.optimizers = [
            Adam(predictor.parameters(), lr=lr) for predictor in self.predictors
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
    def predict_probs(self, obs: np.ndarray) -> np.ndarray:
        """Predicted option probabilities, shape (num_opponents, num_options)."""
        if self.num_opponents == 0:
            return np.zeros((0, self.num_options), dtype=get_default_dtype())
        obs = np.asarray(obs, dtype=get_default_dtype()).reshape(1, -1)
        return np.stack(
            [predictor.probs_inference(obs)[0] for predictor in self.predictors]
        )

    def predict_probs_batch(self, obs: np.ndarray) -> np.ndarray:
        """Batched probabilities, shape (batch, num_opponents, num_options).

        Inference only (no autograd graph); numerically identical to the
        Tensor path — this feeds both rollout-time intention inference and
        the critic's TD-target opponent representation.
        """
        if self.num_opponents == 0:
            return np.zeros((len(obs), 0, self.num_options), dtype=get_default_dtype())
        return np.stack(
            [predictor.probs_inference(obs) for predictor in self.predictors], axis=1
        )

    def predict_log_probs_batch(self, obs: np.ndarray) -> np.ndarray:
        """Batched log-probabilities (the critic-target input of Sec. III-C)."""
        if self.num_opponents == 0:
            return np.zeros((len(obs), 0, self.num_options), dtype=get_default_dtype())
        return np.stack(
            [
                log_softmax(predictor.forward(obs), axis=-1).data
                for predictor in self.predictors
            ],
            axis=1,
        )

    def most_likely(self, obs: np.ndarray) -> np.ndarray:
        """Greedy option prediction per opponent."""
        probs = self.predict_probs(obs)
        return probs.argmax(axis=-1)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def update(self) -> dict[str, float] | None:
        """One max-likelihood step per opponent; returns per-opponent NLL."""
        if self.num_opponents == 0 or len(self.history) < 8:
            return None
        batch = self.history.sample(self.batch_size, self._rng)
        losses: dict[str, float] = {}
        for j, (predictor, optimizer) in enumerate(
            zip(self.predictors, self.optimizers)
        ):
            logits = predictor.forward(batch["obs"])
            log_probs = log_softmax(logits, axis=-1)
            nll = nll_loss(log_probs, batch["options"][:, j])
            entropy = entropy_from_logits(logits).mean()
            loss = nll - entropy * self.entropy_coef
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(predictor.parameters(), self.grad_clip)
            optimizer.step()
            losses[f"opponent_{j}_nll"] = nll.item()
            losses[f"opponent_{j}_entropy"] = entropy.item()
        return losses

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


class WindowedOpponentModel(OpponentModel):
    """Opponent model over a window of recent states.

    The paper trains the model "from the recent observation histories";
    the base class conditions on the instantaneous state, this variant
    conditions on the concatenation of the last ``window`` states so it
    can pick up *temporal* regularities (e.g. "vehicle 3 slows for two
    steps before it changes lanes"). The interface is identical: callers
    still pass single states to :meth:`record` / :meth:`predict_probs`,
    and the window is maintained internally.
    """

    def __init__(
        self,
        obs_dim: int,
        num_options: int,
        num_opponents: int,
        rng: np.random.Generator,
        window: int = 3,
        **kwargs,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.base_obs_dim = obs_dim
        super().__init__(obs_dim * window, num_options, num_opponents, rng, **kwargs)
        self._window_buffer = np.zeros((window, obs_dim), dtype=get_default_dtype())
        self._filled = 0

    def reset_window(self) -> None:
        """Clear the rolling window (call at episode boundaries)."""
        self._window_buffer[:] = 0.0
        self._filled = 0

    def _stack(self, obs: np.ndarray) -> np.ndarray:
        """Append ``obs`` and return the flattened window (oldest first)."""
        self._window_buffer = np.roll(self._window_buffer, -1, axis=0)
        self._window_buffer[-1] = obs
        self._filled = min(self._filled + 1, self.window)
        return self._window_buffer.reshape(-1).copy()

    def current_window(self, obs: np.ndarray | None = None) -> np.ndarray:
        """Flattened window; optionally as-if ``obs`` were appended."""
        if obs is None:
            return self._window_buffer.reshape(-1).copy()
        preview = np.roll(self._window_buffer, -1, axis=0)
        preview[-1] = obs
        return preview.reshape(-1)

    def record(self, obs: np.ndarray, other_options: np.ndarray) -> None:
        if self.num_opponents == 0:
            return
        stacked = self._stack(np.asarray(obs, dtype=get_default_dtype()))
        super().record(stacked, other_options)

    def record_batch(self, obs: np.ndarray, other_options: np.ndarray) -> None:
        # Each row advances the rolling window, so rows go one at a time.
        for row, options in zip(obs, other_options):
            self.record(row, options)

    def predict_probs(self, obs: np.ndarray) -> np.ndarray:
        """Predict from the window ending at ``obs`` (window not mutated)."""
        if self.num_opponents == 0:
            return np.zeros((0, self.num_options), dtype=get_default_dtype())
        return super().predict_probs(self.current_window(np.asarray(obs)))
