"""Low-level individual control: soft actor-critic skills (Sec. III-D).

The paper trains the low-level layer with SAC ("we adopt the soft
actor-critic method") under intrinsic reward functions, one skill per
option family:

* ``driving_in_lane`` — executes keep-lane / slow-down / accelerate; the
  three options share the skill and differ only in the speed bounds
  enforced at execution time (Sec. IV-C's per-option ranges),
* ``lane_change``     — the merge manoeuvre.

:class:`SACAgent` is a self-contained single-agent SAC learner;
:class:`SkillLibrary` maps options onto trained skills;
:func:`train_skill` is Algorithm 2.
"""

from __future__ import annotations

import numpy as np

from ..config import PaperHyperparameters
from ..envs.base import SingleAgentEnv
from ..nn import (
    Adam,
    SquashedGaussianPolicy,
    TwinQNetwork,
    clip_grad_norm,
    get_default_dtype,
    hard_update,
    mse_loss,
    soft_update,
)
from ..training.replay import ReplayBuffer
from ..utils.logging_utils import MetricLogger
from .options import KEEP_LANE, LANE_CHANGE, OptionSet


class SACAgent:
    """Soft actor-critic for continuous (linear, angular) speed control."""

    def __init__(
        self,
        obs_dim: int,
        action_dim: int,
        rng: np.random.Generator,
        action_low,
        action_high,
        hidden_dim: int = 32,
        lr: float = 3e-3,
        gamma: float = 0.95,
        tau: float = 0.01,
        alpha: float = 0.2,
        buffer_capacity: int = 100_000,
        batch_size: int = 256,
        auto_alpha: bool = True,
        grad_clip: float = 10.0,
    ):
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.gamma = gamma
        self.tau = tau
        self.batch_size = batch_size
        self.grad_clip = grad_clip
        self._rng = rng

        hidden = (hidden_dim, hidden_dim)
        self.actor = SquashedGaussianPolicy(
            obs_dim, action_dim, rng, hidden, action_low, action_high
        )
        self.critic = TwinQNetwork(obs_dim, action_dim, rng, hidden)
        self.target_critic = TwinQNetwork(obs_dim, action_dim, rng, hidden)
        hard_update(self.target_critic, self.critic)

        self.actor_opt = Adam(self.actor.parameters(), lr=lr)
        self.critic_opt = Adam(self.critic.parameters(), lr=lr)
        self.buffer = ReplayBuffer(buffer_capacity, obs_dim, action_dim)

        # Entropy temperature: fixed, or auto-tuned toward -|A| target
        # entropy (Haarnoja et al. 2018).
        self.auto_alpha = auto_alpha
        self._log_alpha = np.log(alpha)
        self._alpha_lr = lr
        self.target_entropy = -float(action_dim)

    @property
    def alpha(self) -> float:
        return float(np.exp(self._log_alpha))

    # ------------------------------------------------------------------
    # Interaction
    # ------------------------------------------------------------------
    def act(self, obs: np.ndarray, deterministic: bool = False) -> np.ndarray:
        obs = np.asarray(obs, dtype=get_default_dtype()).reshape(1, -1)
        # The no-graph path: the same draw and arithmetic as actor.sample /
        # actor.deterministic (bitwise), without taping a log-prob graph.
        return self.actor.act_batch(obs, None if deterministic else self._rng)[0]

    def observe(self, obs, action, reward, next_obs, done) -> None:
        self.buffer.push(obs, action, reward, next_obs, done)

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def update(self) -> dict[str, float] | None:
        """One SAC gradient step; returns losses or None if data-starved."""
        if len(self.buffer) < self.batch_size // 4 or len(self.buffer) < 8:
            return None
        batch = self.buffer.sample(self.batch_size, self._rng)

        # --- Critic update -------------------------------------------------
        # TD targets never need gradients: sample and evaluate on the
        # no-graph paths (bitwise equal to the tape versions).
        next_action, next_log_prob = self.actor.sample_no_grad(
            batch["next_obs"], self._rng
        )
        target_q = self.target_critic.min_q_inference(batch["next_obs"], next_action)
        soft_target = target_q - self.alpha * next_log_prob
        y = batch["rewards"] + self.gamma * (1.0 - batch["dones"]) * soft_target

        q1, q2 = self.critic(batch["obs"], batch["actions"])
        critic_loss = mse_loss(q1, y) + mse_loss(q2, y)
        self.critic_opt.zero_grad()
        critic_loss.backward()
        clip_grad_norm(self.critic.parameters(), self.grad_clip)
        self.critic_opt.step()

        # --- Actor update (reparameterised) --------------------------------
        # The critic is stop-gradiented for this pass: the actor loss only
        # needs dQ/d(action), so freezing the critic parameters keeps their
        # gradient buffers untouched and skips the wasted weight backward.
        # The backward closures check requires_grad at propagation time, so
        # the freeze must span backward(), not just the forward.
        new_action, log_prob = self.actor.sample(batch["obs"], self._rng)
        critic_params = self.critic.parameters()
        for param in critic_params:
            param.requires_grad = False
        try:
            q_new = self.critic.min_q(batch["obs"], new_action)
            actor_loss = (log_prob * self.alpha - q_new).mean()
            self.actor_opt.zero_grad()
            actor_loss.backward()
        finally:
            for param in critic_params:
                param.requires_grad = True
        clip_grad_norm(self.actor.parameters(), self.grad_clip)
        self.actor_opt.step()

        # --- Temperature update --------------------------------------------
        if self.auto_alpha:
            entropy_gap = float((log_prob.data + self.target_entropy).mean())
            # d/d(log_alpha) of -(log_alpha * gap) = -gap.
            self._log_alpha -= self._alpha_lr * entropy_gap
            self._log_alpha = float(np.clip(self._log_alpha, -10.0, 2.0))

        soft_update(self.target_critic, self.critic, self.tau)
        return {
            "critic_loss": critic_loss.item(),
            "actor_loss": actor_loss.item(),
            "alpha": self.alpha,
            "entropy": -float(log_prob.data.mean()),
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {f"actor.{k}": v for k, v in self.actor.state_dict().items()}
        state.update({f"critic.{k}": v for k, v in self.critic.state_dict().items()})
        # Serialise the temperature in the networks' compute dtype: a bare
        # np.array() would be float64 and promote a float32 controller's
        # whole flat checkpoint vector back to double.
        state["log_alpha"] = np.array(
            self._log_alpha, dtype=next(iter(state.values())).dtype
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
        self._log_alpha = float(state["log_alpha"])


def train_skill(
    env: SingleAgentEnv,
    agent: SACAgent,
    episodes: int,
    seed: int = 0,
    updates_per_step: int = 1,
    warmup_steps: int = 64,
    logger: MetricLogger | None = None,
    log_prefix: str = "skill",
    engine=None,
) -> MetricLogger:
    """Algorithm 2: train one low-level skill with its intrinsic reward.

    ``engine`` may be a :class:`~repro.core.update_engine.UpdateEngine`
    over ``agent`` (the ``--fused-updates`` path); gradient steps then run
    through its fused twin-critic/actor families instead of
    :meth:`SACAgent.update`.
    """
    logger = logger or MetricLogger()
    rng = np.random.default_rng(seed)
    update = engine.update if engine is not None else agent.update
    total_steps = 0
    losses: dict[str, float] | None = None
    for episode in range(episodes):
        obs = env.reset(seed=int(rng.integers(0, 2**31 - 1)))
        episode_reward = 0.0
        done = False
        while not done:
            if total_steps < warmup_steps:
                action = env.action_space.sample(rng)
            else:
                action = agent.act(obs)
            next_obs, reward, done, _ = env.step(action)
            agent.observe(obs, action, reward, next_obs, done)
            obs = next_obs
            episode_reward += reward
            total_steps += 1
            for _ in range(updates_per_step):
                losses = update()
        logger.log(f"{log_prefix}/episode_reward", episode_reward, episode)
        if losses is not None:
            logger.log_many(
                {f"{log_prefix}/{k}": v for k, v in losses.items()}, episode
            )
    return logger


class SkillLibrary:
    """Maps each high-level option onto its trained low-level skill."""

    def __init__(
        self,
        obs_dim: int,
        rng: np.random.Generator,
        option_set: OptionSet | None = None,
        hyper: PaperHyperparameters | None = None,
        lr: float = 3e-3,
    ):
        hyper = hyper or PaperHyperparameters()
        self.option_set = option_set or OptionSet()
        self.obs_dim = obs_dim
        seeds = rng.integers(0, 2**31 - 1, size=2)

        # One skill for the driving-in-lane family: bounds span the union
        # of slow-down and accelerate ranges.
        self.driving_in_lane = SACAgent(
            obs_dim,
            action_dim=2,
            rng=np.random.default_rng(int(seeds[0])),
            action_low=np.array([0.04, -0.1]),
            action_high=np.array([0.14, 0.1]),
            hidden_dim=hyper.hidden_dim,
            lr=lr,
            gamma=hyper.discount_factor,
            tau=hyper.target_update_rate,
        )
        lane_change_bounds = self.option_set[LANE_CHANGE].bounds
        low, high = lane_change_bounds.as_arrays()
        self.lane_change = SACAgent(
            obs_dim,
            action_dim=2,
            rng=np.random.default_rng(int(seeds[1])),
            action_low=low,
            action_high=high,
            hidden_dim=hyper.hidden_dim,
            lr=lr,
            gamma=hyper.discount_factor,
            tau=hyper.target_update_rate,
        )

    def skill_for(self, option_index: int) -> SACAgent | None:
        """The SAC skill executing ``option_index`` (None = coast rule)."""
        if option_index == KEEP_LANE:
            return None
        if option_index == LANE_CHANGE:
            return self.lane_change
        return self.driving_in_lane

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {
            f"driving_in_lane.{k}": v
            for k, v in self.driving_in_lane.state_dict().items()
        }
        state.update(
            {f"lane_change.{k}": v for k, v in self.lane_change.state_dict().items()}
        )
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.driving_in_lane.load_state_dict(
            {
                k[len("driving_in_lane."):]: v
                for k, v in state.items()
                if k.startswith("driving_in_lane.")
            }
        )
        self.lane_change.load_state_dict(
            {
                k[len("lane_change."):]: v
                for k, v in state.items()
                if k.startswith("lane_change.")
            }
        )
