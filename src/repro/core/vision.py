"""Vision-based low-level control (the paper's Sec. IV-C pipeline).

The paper's low-level state is ``s_l = [s_img, s_speed, s_laneID]`` with a
CNN encoder ("we use a conventional neural network to encode the image
data"). The fast benchmark path replaces the image with hand-crafted
features (docs/REPRODUCING.md, "Substitutions"); this module provides
the faithful variant:

* :class:`VisionEncoder` — shared CNN + proprioception fusion trunk,
* :class:`VisionSACAgent` — SAC whose actor and critics consume
  ``(image, vector)`` observations,
* :func:`train_vision_skill` — Algorithm 2 on the camera observation.

It is exercised by tests and ``examples``-level smoke runs; the full
14k-episode study uses the feature path for tractability.
"""

from __future__ import annotations

import numpy as np

from ..envs.skill_envs import _SkillEnvBase
from ..nn import (
    Adam,
    CNNEncoder,
    Linear,
    MLP,
    Module,
    SquashedGaussianPolicy,
    Tensor,
    clip_grad_norm,
    concatenate,
    get_default_dtype,
    hard_update,
    mse_loss,
    soft_update,
)
from ..utils.logging_utils import MetricLogger


class VisionEncoder(Module):
    """Fuse a camera grid with the proprioceptive vector.

    Output: ``(batch, out_features)`` embedding = ReLU(Linear([CNN(img),
    vector])).
    """

    def __init__(
        self,
        in_channels: int,
        image_size: int,
        vector_dim: int,
        out_features: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.cnn = CNNEncoder(in_channels, image_size, out_features, rng)
        self.fuse = Linear(out_features + vector_dim, out_features, rng)
        self.out_features = out_features

    def forward(self, images: np.ndarray | Tensor, vectors: np.ndarray | Tensor) -> Tensor:
        if not isinstance(images, Tensor):
            images = Tensor(images)
        if not isinstance(vectors, Tensor):
            vectors = Tensor(vectors)
        embedded = self.cnn(images)
        return self.fuse(concatenate([embedded, vectors], axis=-1)).relu()


class _VisionQNetwork(Module):
    """Q(s_img, s_vec, a) with its own encoder (critics do not share the
    actor's representation, mirroring standard SAC practice)."""

    def __init__(self, encoder: VisionEncoder, action_dim: int, rng: np.random.Generator):
        super().__init__()
        self.encoder = encoder
        self.head = MLP(encoder.out_features + action_dim, [32], 1, rng)

    def forward(self, images, vectors, actions) -> Tensor:
        if not isinstance(actions, Tensor):
            actions = Tensor(actions)
        state = self.encoder(images, vectors)
        return self.head(concatenate([state, actions], axis=-1)).squeeze(-1)


class _VisionReplay:
    """Ring buffer of ((image, vector), action, reward, next, done)."""

    def __init__(self, capacity: int, image_shape: tuple, vector_dim: int, action_dim: int):
        self.capacity = capacity
        self.images = np.zeros((capacity, *image_shape))
        self.vectors = np.zeros((capacity, vector_dim))
        self.actions = np.zeros((capacity, action_dim))
        self.rewards = np.zeros(capacity)
        self.next_images = np.zeros((capacity, *image_shape))
        self.next_vectors = np.zeros((capacity, vector_dim))
        self.dones = np.zeros(capacity)
        self._index = 0
        self._size = 0

    def __len__(self):
        return self._size

    def push(self, image, vector, action, reward, next_image, next_vector, done):
        i = self._index
        self.images[i] = image
        self.vectors[i] = vector
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_images[i] = next_image
        self.next_vectors[i] = next_vector
        self.dones[i] = float(done)
        self._index = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        idx = rng.integers(0, self._size, size=min(batch_size, self._size))
        return {
            "images": self.images[idx],
            "vectors": self.vectors[idx],
            "actions": self.actions[idx],
            "rewards": self.rewards[idx],
            "next_images": self.next_images[idx],
            "next_vectors": self.next_vectors[idx],
            "dones": self.dones[idx],
        }


class VisionSACAgent:
    """SAC over (camera image, proprioceptive vector) observations."""

    def __init__(
        self,
        image_shape: tuple,
        vector_dim: int,
        action_dim: int,
        rng: np.random.Generator,
        action_low,
        action_high,
        embed_dim: int = 32,
        lr: float = 1e-3,
        gamma: float = 0.95,
        tau: float = 0.01,
        alpha: float = 0.2,
        buffer_capacity: int = 20_000,
        batch_size: int = 32,
        grad_clip: float = 10.0,
    ):
        channels, size, _ = image_shape
        self.image_shape = image_shape
        self.vector_dim = vector_dim
        self.action_dim = action_dim
        self.gamma = gamma
        self.tau = tau
        self.alpha = alpha
        self.batch_size = batch_size
        self.grad_clip = grad_clip
        self._rng = rng

        self.actor_encoder = VisionEncoder(channels, size, vector_dim, embed_dim, rng)
        self.actor = SquashedGaussianPolicy(
            embed_dim, action_dim, rng, (32,), action_low, action_high
        )
        self.q1 = _VisionQNetwork(
            VisionEncoder(channels, size, vector_dim, embed_dim, rng), action_dim, rng
        )
        self.q2 = _VisionQNetwork(
            VisionEncoder(channels, size, vector_dim, embed_dim, rng), action_dim, rng
        )
        self.target_q1 = _VisionQNetwork(
            VisionEncoder(channels, size, vector_dim, embed_dim, rng), action_dim, rng
        )
        self.target_q2 = _VisionQNetwork(
            VisionEncoder(channels, size, vector_dim, embed_dim, rng), action_dim, rng
        )
        hard_update(self.target_q1, self.q1)
        hard_update(self.target_q2, self.q2)

        actor_params = self.actor_encoder.parameters() + self.actor.parameters()
        self.actor_opt = Adam(actor_params, lr=lr)
        self.critic_opt = Adam(self.q1.parameters() + self.q2.parameters(), lr=lr)
        self.buffer = _VisionReplay(buffer_capacity, image_shape, vector_dim, action_dim)

    # ------------------------------------------------------------------
    def act(self, image: np.ndarray, vector: np.ndarray, deterministic: bool = False):
        state = self.actor_encoder(image[None], vector[None].astype(get_default_dtype()))
        if deterministic:
            return self.actor.deterministic(state.data)[0]
        action, _ = self.actor.sample(state, self._rng)
        return action.data[0]

    def observe(self, image, vector, action, reward, next_image, next_vector, done):
        self.buffer.push(image, vector, action, reward, next_image, next_vector, done)

    # ------------------------------------------------------------------
    def update(self) -> dict[str, float] | None:
        if len(self.buffer) < max(self.batch_size, 8):
            return None
        batch = self.buffer.sample(self.batch_size, self._rng)

        # Critic targets.
        next_state = self.actor_encoder(batch["next_images"], batch["next_vectors"])
        next_action, next_log_prob = self.actor.sample(next_state, self._rng)
        tq1 = self.target_q1(batch["next_images"], batch["next_vectors"], next_action.data)
        tq2 = self.target_q2(batch["next_images"], batch["next_vectors"], next_action.data)
        target = np.minimum(tq1.data, tq2.data) - self.alpha * next_log_prob.data
        y = batch["rewards"] + self.gamma * (1.0 - batch["dones"]) * target

        q1 = self.q1(batch["images"], batch["vectors"], batch["actions"])
        q2 = self.q2(batch["images"], batch["vectors"], batch["actions"])
        critic_loss = mse_loss(q1, y) + mse_loss(q2, y)
        self.critic_opt.zero_grad()
        critic_loss.backward()
        clip_grad_norm(self.q1.parameters() + self.q2.parameters(), self.grad_clip)
        self.critic_opt.step()

        # Actor.
        state = self.actor_encoder(batch["images"], batch["vectors"])
        new_action, log_prob = self.actor.sample(state, self._rng)
        q_new = self.q1(batch["images"], batch["vectors"], new_action).minimum(
            self.q2(batch["images"], batch["vectors"], new_action)
        )
        actor_loss = (log_prob * self.alpha - q_new).mean()
        self.actor_opt.zero_grad()
        actor_loss.backward()
        clip_grad_norm(
            self.actor_encoder.parameters() + self.actor.parameters(), self.grad_clip
        )
        self.actor_opt.step()

        soft_update(self.target_q1, self.q1, self.tau)
        soft_update(self.target_q2, self.q2, self.tau)
        return {
            "critic_loss": critic_loss.item(),
            "actor_loss": actor_loss.item(),
            "entropy": -float(log_prob.data.mean()),
        }


def train_vision_skill(
    env: _SkillEnvBase,
    agent: VisionSACAgent,
    episodes: int,
    seed: int = 0,
    warmup_steps: int = 32,
    logger: MetricLogger | None = None,
    log_prefix: str = "vision_skill",
) -> MetricLogger:
    """Algorithm 2 with the camera observation path.

    The env's flat observation supplies the proprioceptive vector and
    :meth:`_SkillEnvBase.observe_image` supplies the camera grid.
    """
    logger = logger or MetricLogger()
    rng = np.random.default_rng(seed)
    total_steps = 0
    for episode in range(episodes):
        vector = env.reset(seed=int(rng.integers(0, 2**31 - 1)))
        image = env.observe_image()
        episode_reward = 0.0
        done = False
        while not done:
            if total_steps < warmup_steps:
                action = env.action_space.sample(rng)
            else:
                action = agent.act(image, vector)
            next_vector, reward, done, _ = env.step(action)
            next_image = env.observe_image()
            agent.observe(image, vector, action, reward, next_image, next_vector, done)
            image, vector = next_image, next_vector
            episode_reward += reward
            total_steps += 1
            agent.update()
        logger.log(f"{log_prefix}/episode_reward", episode_reward, episode)
    return logger
