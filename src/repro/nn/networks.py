"""Reusable network architectures for actors and critics.

These are the concrete function approximators the paper's learners use:

* :class:`MLP` — the "multi-layer fully-connected neural network" used for
  all critics (Sec. V-B; hidden width 32 per Table I).
* :class:`CategoricalPolicy` — high-level option actors and opponent models.
* :class:`SquashedGaussianPolicy` — the SAC low-level continuous actor.
* :class:`QNetwork` / :class:`TwinQNetwork` — state(-action) value heads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .functional import softmax
from .layers import Linear, Sequential, make_activation
from .module import Module
from .tensor import Tensor, concatenate, get_default_dtype

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0

# Python-float constants: NEP 50 treats np.float64 scalars as "strong",
# so a bare np.log(2 * pi) would silently promote float32 arrays.
_LOG_2PI = float(np.log(2.0 * np.pi))
_LOG_2 = float(np.log(2.0))


def _sum_last_small(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` as an elementwise column chain.

    For a small trailing axis (the action dimension here) numpy's axis
    reduction pays a per-row inner-loop setup that dwarfs the additions;
    chaining the columns is ~15x faster.  Below 8 elements numpy's
    pairwise summation is plain left-to-right order — exactly this chain —
    so the bits match ``a.sum(axis=-1)``; wider axes fall back to it.
    """
    width = a.shape[-1]
    if width >= 8:
        return a.sum(axis=-1)
    out = a[..., 0].copy()
    for j in range(1, width):
        out += a[..., j]
    return out


class MLP(Module):
    """Fully-connected trunk with configurable hidden widths."""

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Sequence[int],
        out_features: int,
        rng: np.random.Generator,
        activation: str = "relu",
        output_activation: str = "identity",
    ):
        super().__init__()
        layers: list[Module] = []
        widths = [in_features, *hidden_sizes]
        weight_init = "he" if activation == "relu" else "xavier"
        for w_in, w_out in zip(widths[:-1], widths[1:]):
            layers.append(Linear(w_in, w_out, rng, weight_init=weight_init))
            layers.append(make_activation(activation))
        layers.append(Linear(widths[-1], out_features, rng, weight_init="xavier"))
        layers.append(make_activation(output_activation))
        self.net = Sequential(*layers)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor | np.ndarray) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.net(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Gradient-free forward (see :meth:`Sequential.infer`)."""
        return self.net.infer(np.asarray(x, dtype=get_default_dtype()))


class CategoricalPolicy(Module):
    """Stochastic policy over a discrete action (option) set.

    Produces logits and probabilities. This is the shape of the high-level
    actor pi_h and the opponent model pi_h^-i.
    """

    def __init__(
        self,
        in_features: int,
        num_actions: int,
        rng: np.random.Generator,
        hidden_sizes: Sequence[int] = (32, 32),
        activation: str = "relu",
    ):
        super().__init__()
        self.trunk = MLP(in_features, hidden_sizes, num_actions, rng, activation)
        self.num_actions = num_actions

    def forward(self, obs: Tensor | np.ndarray) -> Tensor:
        """Return unnormalised logits, shape ``(batch, num_actions)``."""
        return self.trunk(obs)

    def probs(self, obs: Tensor | np.ndarray) -> Tensor:
        return softmax(self.forward(obs), axis=-1)

    def logits_inference(self, obs: np.ndarray) -> np.ndarray:
        """Gradient-free logits (batched rollout inference)."""
        return self.trunk.infer(obs)

    def probs_inference(self, obs: np.ndarray) -> np.ndarray:
        """Gradient-free probabilities, numerically identical to
        ``probs(obs).data`` (same stable-softmax arithmetic)."""
        logits = self.trunk.infer(obs)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)


class SquashedGaussianPolicy(Module):
    """Tanh-squashed Gaussian actor for soft actor-critic.

    Action bounds are handled by rescaling the tanh output into
    ``[low, high]`` — matching the paper's per-skill linear/angular speed
    ranges (Sec. IV-C).
    """

    def __init__(
        self,
        in_features: int,
        action_dim: int,
        rng: np.random.Generator,
        hidden_sizes: Sequence[int] = (32, 32),
        action_low: np.ndarray | float = -1.0,
        action_high: np.ndarray | float = 1.0,
    ):
        super().__init__()
        self.trunk = MLP(in_features, hidden_sizes, 2 * action_dim, rng, "relu")
        self.action_dim = action_dim
        dtype = get_default_dtype()
        low = np.broadcast_to(np.asarray(action_low, dtype=dtype), (action_dim,))
        high = np.broadcast_to(np.asarray(action_high, dtype=dtype), (action_dim,))
        if np.any(high <= low):
            raise ValueError("action_high must exceed action_low elementwise")
        self._action_scale = (high - low) / 2.0
        self._action_offset = (high + low) / 2.0

    def forward(self, obs: Tensor | np.ndarray) -> tuple[Tensor, Tensor]:
        """Return ``(mean, log_std)`` of the pre-squash Gaussian."""
        out = self.trunk(obs)
        mean = out[:, : self.action_dim]
        log_std = out[:, self.action_dim :].clip(LOG_STD_MIN, LOG_STD_MAX)
        return mean, log_std

    def sample(
        self, obs: Tensor | np.ndarray, rng: np.random.Generator
    ) -> tuple[Tensor, Tensor]:
        """Reparameterised sample; returns ``(action, log_prob)`` tensors.

        ``log_prob`` includes the tanh-change-of-variables correction and the
        affine rescale into the action bounds.
        """
        mean, log_std = self.forward(obs)
        std = log_std.exp()
        noise = Tensor(rng.standard_normal(mean.shape))
        pre_tanh = mean + std * noise
        squashed = pre_tanh.tanh()
        action = squashed * Tensor(self._action_scale) + Tensor(self._action_offset)

        # log N(pre_tanh; mean, std)
        log_prob = (
            -0.5 * ((noise * noise) + Tensor(_LOG_2PI)) - log_std
        ).sum(axis=-1)
        # tanh change-of-variables: subtract sum_i log(1 - tanh(u_i)^2).
        log_prob = log_prob - _tanh_log_det(pre_tanh)
        # affine rescale correction
        log_prob = log_prob - float(np.sum(np.log(self._action_scale)))
        return action, log_prob

    def deterministic(self, obs: np.ndarray) -> np.ndarray:
        """Mean action (evaluation mode), already rescaled."""
        mean, _ = self.forward(obs)
        return np.tanh(mean.data) * self._action_scale + self._action_offset

    def act_batch(
        self, obs: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Gradient-free batched actions for rollouts.

        With ``rng`` this draws the same reparameterised tanh-Gaussian
        sample as :meth:`sample` but skips the log-probability graph (the
        rollout path never uses it); without ``rng`` it is the mean action.
        """
        out = self.trunk.infer(obs)
        mean = out[:, : self.action_dim]
        if rng is None:
            return np.tanh(mean) * self._action_scale + self._action_offset
        log_std = np.clip(out[:, self.action_dim :], LOG_STD_MIN, LOG_STD_MAX)
        # The RNG draws float64; cast once so float32 nets stay float32
        # (same rounding point as Tensor's coercion in sample()).
        noise = rng.standard_normal(mean.shape).astype(mean.dtype, copy=False)
        pre_tanh = mean + np.exp(log_std) * noise
        return np.tanh(pre_tanh) * self._action_scale + self._action_offset

    def sample_no_grad(
        self,
        obs: np.ndarray,
        rng: np.random.Generator,
        trunk_out: np.ndarray | None = None,
        return_parts: bool = False,
    ):
        """Reparameterised sample and log-prob as plain arrays (no tape).

        Bitwise-identical to :meth:`sample` — same noise draw, same
        arithmetic, expression for expression — for callers that only need
        values, e.g. the SAC critic's TD target (``tests/test_update_engine``
        locks the equivalence).

        ``trunk_out`` lets a caller that already ran the trunk (the fused
        update engine's cached forward) reuse it; ``return_parts``
        additionally returns the sampling intermediates needed for a
        closed-form reparameterisation gradient, keeping this the single
        home of the squashed-Gaussian derivation.
        """
        if trunk_out is None:
            trunk_out = self.trunk.infer(np.asarray(obs, dtype=get_default_dtype()))
        mean = trunk_out[:, : self.action_dim]
        raw_log_std = trunk_out[:, self.action_dim :]
        log_std = np.clip(raw_log_std, LOG_STD_MIN, LOG_STD_MAX)
        std = np.exp(log_std)
        # Cast the float64 draw exactly where sample() does (Tensor
        # coercion), keeping the two paths bitwise-identical at any dtype.
        noise = rng.standard_normal(mean.shape).astype(mean.dtype, copy=False)
        pre_tanh = mean + std * noise
        squashed = np.tanh(pre_tanh)
        action = squashed * self._action_scale + self._action_offset

        log_prob = _sum_last_small(
            -0.5 * ((noise * noise) + _LOG_2PI) - log_std
        )
        # Stable log(1 - tanh(u)^2) = 2 * (log 2 - u - softplus(-2u)),
        # with softplus(x) = max(x, 0) + log1p(exp(-|x|)) as in Tensor.softplus.
        minus_2u = pre_tanh * -2.0
        softplus = np.maximum(minus_2u, 0.0) + np.log1p(np.exp(-np.abs(minus_2u)))
        inner = _LOG_2 - pre_tanh - softplus
        log_prob = log_prob - _sum_last_small(inner * 2.0)
        log_prob = log_prob - float(np.sum(np.log(self._action_scale)))
        if not return_parts:
            return action, log_prob
        parts = {
            "std": std,
            "noise": noise,
            "squashed": squashed,
            "clip_mask": (raw_log_std >= LOG_STD_MIN) & (raw_log_std <= LOG_STD_MAX),
        }
        return action, log_prob, parts


def _tanh_log_det(pre_tanh: Tensor) -> Tensor:
    """Summed log|d tanh(u)/du| using the stable identity
    ``log(1 - tanh(u)^2) = 2 * (log 2 - u - softplus(-2u))``."""
    inner = Tensor(_LOG_2) - pre_tanh - (pre_tanh * -2.0).softplus()
    return (inner * 2.0).sum(axis=-1)


class QNetwork(Module):
    """State-action value network ``Q(s, a)`` with concatenated inputs."""

    def __init__(
        self,
        obs_dim: int,
        action_dim: int,
        rng: np.random.Generator,
        hidden_sizes: Sequence[int] = (32, 32),
    ):
        super().__init__()
        self.trunk = MLP(obs_dim + action_dim, hidden_sizes, 1, rng, "relu")

    def forward(self, obs: Tensor | np.ndarray, action: Tensor | np.ndarray) -> Tensor:
        if not isinstance(obs, Tensor):
            obs = Tensor(obs)
        if not isinstance(action, Tensor):
            action = Tensor(action)
        return self.trunk(concatenate([obs, action], axis=-1)).squeeze(-1)


class TwinQNetwork(Module):
    """Pair of independent Q networks; min is the SAC/TD3 target trick."""

    def __init__(
        self,
        obs_dim: int,
        action_dim: int,
        rng: np.random.Generator,
        hidden_sizes: Sequence[int] = (32, 32),
    ):
        super().__init__()
        self.q1 = QNetwork(obs_dim, action_dim, rng, hidden_sizes)
        self.q2 = QNetwork(obs_dim, action_dim, rng, hidden_sizes)

    def forward(self, obs, action) -> tuple[Tensor, Tensor]:
        return self.q1(obs, action), self.q2(obs, action)

    def min_q(self, obs, action) -> Tensor:
        q1, q2 = self.forward(obs, action)
        return q1.minimum(q2)

    def min_q_inference(self, obs: np.ndarray, action: np.ndarray) -> np.ndarray:
        """Gradient-free ``min(Q1, Q2)``, bitwise equal to ``min_q(...).data``.

        The no-graph path for TD targets (the values never need gradients).
        """
        x = np.concatenate([obs, action], axis=-1)
        q1 = self.q1.trunk.infer(x)[:, 0]
        q2 = self.q2.trunk.infer(x)[:, 0]
        return np.minimum(q1, q2)


class DiscreteQNetwork(Module):
    """Per-action value rows ``Q(s, .)`` for DQN-style learners."""

    def __init__(
        self,
        obs_dim: int,
        num_actions: int,
        rng: np.random.Generator,
        hidden_sizes: Sequence[int] = (32, 32),
    ):
        super().__init__()
        self.trunk = MLP(obs_dim, hidden_sizes, num_actions, rng, "relu")
        self.num_actions = num_actions

    def forward(self, obs: Tensor | np.ndarray) -> Tensor:
        return self.trunk(obs)
