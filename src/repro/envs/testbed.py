"""Domain-shifted "real-world" testbed (substitute for Sec. V-E hardware).

The paper deploys simulation-trained policies onto physical Smartbot
vehicles and reports how each method degrades (Table II). The degradation
axis is *unmodelled dynamics*: sensor noise, actuation latency, drive-train
variation and rougher initial conditions. :class:`RealWorldTestbed` wraps
the simulator with exactly that perturbation bundle, so policies that
memorised clean-simulator trajectories (e.g. Independent DQN's brittle
greedy policy) collapse while robust policies transfer — the Table II
ordering this repo reproduces.
"""

from __future__ import annotations

from collections import deque
from typing import Any

import numpy as np

from ..config import TestbedConfig
from .base import MultiAgentEnv
from .lane_change_env import CooperativeLaneChangeEnv


class RealWorldTestbed(MultiAgentEnv):
    """Perturbation wrapper emulating the physical two-lane testbed."""

    def __init__(
        self,
        env: CooperativeLaneChangeEnv,
        config: TestbedConfig | None = None,
        seed: int = 0,
    ):
        self.env = env
        self.config = config or TestbedConfig()
        self.agents = list(env.agents)
        self.observation_spaces = dict(env.observation_spaces)
        self.action_spaces = dict(env.action_spaces)
        self._rng = np.random.default_rng(seed)
        self._action_buffers: dict[str, deque] = {}
        self._speed_scale = 1.0

    def reset(self, seed: int | None = None):
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        obs = self.env.reset(seed=int(self._rng.integers(0, 2**31 - 1)))

        cfg = self.config
        # Drive-train variation: each episode the hardware runs slightly
        # slower/faster than the simulator assumed.
        self._speed_scale = float(self._rng.uniform(*cfg.speed_scale_range))

        # Rougher initial conditions than the simulator's tidy grid.
        for agent in self.agents:
            vehicle = self.env.vehicle(agent)
            vehicle.state.s = self.env.track.wrap(
                vehicle.state.s
                + float(self._rng.uniform(-cfg.initial_position_jitter, cfg.initial_position_jitter))
            )
            vehicle.state.heading += float(self._rng.normal(0.0, cfg.heading_drift_std))

        # Actuation latency: commands reach the motors one tick late.
        self._action_buffers = {
            agent: deque(
                [np.zeros(2)] * cfg.action_delay_steps, maxlen=cfg.action_delay_steps + 1
            )
            for agent in self.agents
        }
        return {agent: self._noisy(o) for agent, o in obs.items()}

    def step(self, actions: dict[str, Any]):
        cfg = self.config
        delayed: dict[str, np.ndarray] = {}
        for agent in self.agents:
            commanded = np.asarray(actions[agent], dtype=np.float64).reshape(-1)
            buffer = self._action_buffers[agent]
            buffer.append(commanded)
            effective = buffer[0] if cfg.action_delay_steps > 0 else commanded
            # Heading drift + drive-train scale on the executed command.
            executed = effective.copy()
            executed[0] *= self._speed_scale
            executed[1] += float(self._rng.normal(0.0, cfg.heading_drift_std))
            delayed[agent] = executed

        obs, rewards, dones, info = self.env.step(delayed)
        return (
            {agent: self._noisy(o) for agent, o in obs.items()},
            rewards,
            dones,
            info,
        )

    def _noisy(self, obs):
        """Additive Gaussian noise on every observation channel."""
        std = self.config.sensor_noise_std
        if isinstance(obs, dict):
            return {
                name: np.asarray(value) + self._rng.normal(0.0, std, np.shape(value))
                for name, value in obs.items()
            }
        obs = np.asarray(obs)
        return obs + self._rng.normal(0.0, std, obs.shape)

    def vehicle(self, agent: str):
        """The wrapped env's vehicle (its exact pose, without sensor noise)."""
        return self.env.vehicle(agent)

    def episode_summary(self):
        return self.env.episode_summary()
