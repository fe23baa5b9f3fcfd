"""Environment wrappers: observation flattening and action discretisation.

The end-to-end baselines (Independent DQN, COMA, MADDPG, MAAC) act on the
primitive action space directly. DQN/COMA/MAAC need a discrete action set,
so :class:`DiscreteActionWrapper` exposes a grid of (linear, angular)
speed commands — the standard discretisation used when applying value-based
methods to continuous driving control.

Two parallel stacks expose the same interface contract:

* scalar — :func:`make_baseline_env` builds
  ``DiscreteActionWrapper(FlattenObservationWrapper(CooperativeLaneChangeEnv))``,
  dict-in / dict-out, one env;
* vectorized — :func:`make_baseline_vector_env` builds a
  :class:`VectorBaselineEnv` over a
  :class:`~repro.envs.vector_env.VectorEnv`: observations come out as
  ``(num_envs, num_agents, obs_dim)`` stacks with the identical
  ``[lidar, speed, lane_onehot, features]`` layout, and integer actions
  index the identical (linear, angular) command grid, so an algorithm's
  ``act_batch`` sees the same numbers on either stack (the scalar one a
  ``(1, agents, obs_dim)`` row at a time, in ``evaluate_marl``).

Whether the vectorized stack actually runs batched is decided by the
wrapped ``VectorEnv``: :attr:`VectorBaselineEnv.fast_path` /
:attr:`VectorBaselineEnv.fallback_reason` forward its verdict.  The fast
path covers ``SlowLeader``, ``LaneKeepingCruiser`` or
``StationaryObstacle`` traffic (``LaneKeepingCruiser`` keeps bitwise
exactness through a sequential per-scripted-vehicle kernel — see
``repro.envs.vector_env``); anything else steps the scalar envs one by
one, correct but not fast, and ``fallback_reason`` says why — e.g.
``"scripted policy CustomPolicy has no vectorized kernel"``.
:func:`repro.baselines.base.train_marl_vectorized` surfaces it as a
``RuntimeWarning`` rather than silently training at scalar speed.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from typing import Any

import numpy as np

from ..config import RewardConfig, ScenarioConfig
from .base import MultiAgentEnv
from .lane_change_env import CooperativeLaneChangeEnv
from .sensors import feature_dim
from .spaces import Box, Discrete
from .vector_env import EnvReplicaFactory, VectorEnv

# The standard (linear, angular) command grid for value-based baselines;
# shared by the scalar DiscreteActionWrapper and VectorBaselineEnv so the
# two stacks index an identical action set.
DEFAULT_LINEAR_LEVELS = (0.02, 0.08, 0.14)
DEFAULT_ANGULAR_LEVELS = (-0.2, 0.0, 0.2)


class FlattenObservationWrapper(MultiAgentEnv):
    """Concatenate each agent's dict observation into one flat vector.

    The result is ``[lidar, speed, lane_onehot, features]`` — everything a
    non-hierarchical learner can see in one vector.
    """

    def __init__(self, env: CooperativeLaneChangeEnv):
        self.env = env
        self.agents = list(env.agents)
        dim = env.high_level_obs_dim + len(
            env.reset(seed=0)[self.agents[0]]["features"]
        )
        self.observation_spaces = {
            agent: Box(-5.0, 5.0, shape=(dim,)) for agent in self.agents
        }
        self.action_spaces = dict(env.action_spaces)
        self.obs_dim = dim

    @staticmethod
    def flatten(obs: dict[str, np.ndarray]) -> np.ndarray:
        return np.concatenate(
            [obs["lidar"], obs["speed"], obs["lane_onehot"], obs["features"]]
        )

    def reset(self, seed: int | None = None):
        obs = self.env.reset(seed)
        return {agent: self.flatten(o) for agent, o in obs.items()}

    def step(self, actions: dict[str, Any]):
        obs, rewards, dones, info = self.env.step(actions)
        return (
            {agent: self.flatten(o) for agent, o in obs.items()},
            rewards,
            dones,
            info,
        )


class DiscreteActionWrapper(MultiAgentEnv):
    """Expose a discrete grid of primitive (linear, angular) commands."""

    def __init__(
        self,
        env: MultiAgentEnv,
        linear_levels: tuple[float, ...] = DEFAULT_LINEAR_LEVELS,
        angular_levels: tuple[float, ...] = DEFAULT_ANGULAR_LEVELS,
    ):
        self.env = env
        self.agents = list(env.agents)
        self.actions = [
            np.array(pair) for pair in product(linear_levels, angular_levels)
        ]
        self.observation_spaces = dict(env.observation_spaces)
        self.action_spaces = {
            agent: Discrete(len(self.actions)) for agent in self.agents
        }

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    def reset(self, seed: int | None = None):
        return self.env.reset(seed)

    def step(self, actions: dict[str, int]):
        continuous = {
            agent: self.actions[int(action)] for agent, action in actions.items()
        }
        return self.env.step(continuous)


def make_baseline_env(
    scenario=None, rewards=None, seed: int | None = None
) -> DiscreteActionWrapper:
    """Standard environment stack for the end-to-end baselines:
    flatten observations, discretise actions."""
    base = CooperativeLaneChangeEnv(scenario=scenario, rewards=rewards)
    return DiscreteActionWrapper(FlattenObservationWrapper(base))


class VectorBaselineEnv:
    """Vectorized counterpart of :func:`make_baseline_env`.

    Wraps a :class:`~repro.envs.vector_env.VectorEnv` behind the
    baselines' flat interface: observations come out as
    ``(num_envs, num_agents, obs_dim)`` arrays with the same
    ``[lidar, speed, lane_onehot, features]`` layout as
    :class:`FlattenObservationWrapper`, and actions go in as
    ``(num_envs, num_agents)`` integers indexing the same
    (linear, angular) command grid as :class:`DiscreteActionWrapper`.
    """

    def __init__(
        self,
        vec_env: VectorEnv,
        linear_levels: tuple[float, ...] = DEFAULT_LINEAR_LEVELS,
        angular_levels: tuple[float, ...] = DEFAULT_ANGULAR_LEVELS,
    ):
        self.vec_env = vec_env
        self.num_envs = vec_env.num_envs
        self.agents = list(vec_env.agents)
        self.num_agents = len(self.agents)
        self.scenario = vec_env.scenario
        self.rewards = vec_env.rewards
        self._levels = (tuple(linear_levels), tuple(angular_levels))
        self._action_table = np.array(
            [pair for pair in product(linear_levels, angular_levels)]
        )
        self.obs_dim = vec_env.high_level_obs_dim + feature_dim(
            vec_env.scenario.num_lanes
        )

    @property
    def num_actions(self) -> int:
        return len(self._action_table)

    @property
    def fast_path(self) -> bool:
        return self.vec_env.fast_path

    @property
    def fallback_reason(self) -> str | None:
        return self.vec_env.fallback_reason

    @property
    def auto_reset(self) -> bool:
        return self.vec_env.auto_reset

    def close(self) -> None:
        """Release the wrapped engine."""
        self.vec_env.close()

    def replica_builder(self) -> partial:
        """A picklable ``build(num_envs, auto_reset=True)`` of fresh batches
        like this one.

        Each batch replicates this batch's env
        (:meth:`EnvReplicaFactory.from_env`: scenario, rewards, track and
        traffic) on this batch's (linear, angular) command grid.  The
        batches that score
        :func:`~repro.baselines.base.train_marl_vectorized`'s recorded
        evaluations and every async IDQN actor's batch are built through
        it, so both step the caller's env with the caller's commands.
        """
        factory = EnvReplicaFactory.from_env(self.vec_env.template_env)
        return partial(_replica_batch, factory, *self._levels)

    @staticmethod
    def flatten(obs: dict[str, np.ndarray]) -> np.ndarray:
        """Stacked counterpart of :meth:`FlattenObservationWrapper.flatten`."""
        return np.concatenate(
            [obs["lidar"], obs["speed"], obs["lane_onehot"], obs["features"]],
            axis=-1,
        )

    def reset(self, seeds=None) -> np.ndarray:
        return self.flatten(self.vec_env.reset(seeds))

    def reset_env(self, i: int, seed: int | None = None) -> np.ndarray:
        """Seeded reset of one env; returns its ``(num_agents, obs_dim)`` rows."""
        return self.flatten(self.vec_env.reset_env(i, seed=seed))

    def step(self, actions: np.ndarray):
        """Step with integer actions of shape ``(num_envs, num_agents)``.

        Returns ``(obs, rewards, dones, infos)`` exactly like
        :meth:`VectorEnv.step`, with flat observations and any
        ``terminal_observation`` entries flattened the same way.
        """
        actions = np.asarray(actions, dtype=np.int64)
        expected = (self.num_envs, self.num_agents)
        if actions.shape != expected:
            raise ValueError(
                f"actions must have shape {expected}, got {actions.shape}"
            )
        if actions.min() < 0 or actions.max() >= self.num_actions:
            raise ValueError(
                f"actions must be in [0, {self.num_actions}), got "
                f"[{actions.min()}, {actions.max()}]"
            )
        obs, rewards, dones, infos = self.vec_env.step(self._action_table[actions])
        for info in infos:
            if "terminal_observation" in info:
                info["terminal_observation"] = self.flatten(
                    info["terminal_observation"]
                )
        return self.flatten(obs), rewards, dones, infos


def _replica_batch(
    factory, linear_levels, angular_levels, num_envs: int, auto_reset: bool = True
):
    return VectorBaselineEnv(
        VectorEnv(num_envs, env_fns=[factory] * num_envs, auto_reset=auto_reset),
        linear_levels,
        angular_levels,
    )


def make_baseline_vector_env(
    num_envs: int,
    scenario: ScenarioConfig | None = None,
    rewards: RewardConfig | None = None,
) -> VectorBaselineEnv:
    """Vectorized baseline env stack mirroring :func:`make_baseline_env`."""
    return VectorBaselineEnv(VectorEnv(num_envs, scenario=scenario, rewards=rewards))
