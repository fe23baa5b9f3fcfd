"""Cooperative lane-change Markov game (the paper's case study, Sec. IV-V).

Scenario (Fig. 9/12): a two-lane periodic track with a scripted slow
vehicle ("vehicle 4 ... with a plodding speed to simulate traffic
congestion"). Learning vehicles start behind it; the blocked vehicle must
change lanes while the others coordinate (slow down / keep lane) to open a
gap. Collisions end the episode with the paper's -20 penalty.

Observations per learning agent:

* ``lidar``       — normalised 360-degree distances (high-level state),
* ``speed``       — scalar linear speed,
* ``lane_onehot`` — current lane id, one-hot,
* ``features``    — compact low-level state (lane pose and gaps).

Actions are primitive continuous ``(linear_speed, angular_speed)`` commands;
HERO's option machinery sits *on top* of this env (see repro.core).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..config import RewardConfig, ScenarioConfig
from .base import MultiAgentEnv
from .geometry import Track, make_track
from .sensors import Lidar, feature_dim, feature_vector
from .spaces import Box, DictSpace
from .traffic import ScriptedPolicy, SlowLeader
from .vehicle import Vehicle


class CooperativeLaneChangeEnv(MultiAgentEnv):
    """Multi-vehicle cooperative lane change with a scripted slow leader."""

    def __init__(
        self,
        scenario: ScenarioConfig | None = None,
        rewards: RewardConfig | None = None,
        track: Track | None = None,
        scripted_policy: ScriptedPolicy | None = None,
        track_kind: str = "straight",
    ):
        self.scenario = scenario or ScenarioConfig()
        self.rewards = rewards or RewardConfig()
        cfg = self.scenario
        self.track = track or make_track(
            track_kind, cfg.track_length, cfg.num_lanes, cfg.lane_width
        )
        self.lidar = Lidar(cfg.lidar_beams, cfg.lidar_range)
        self.agents = [f"vehicle_{i}" for i in range(cfg.num_learning_vehicles)]
        self._scripted_policy = scripted_policy or SlowLeader(cfg.scripted_speed)

        self._vehicles: dict[str, Vehicle] = {}
        self._scripted: list[Vehicle] = []
        self._rng = np.random.default_rng(0)
        self._t = 0
        self._blocked_agents: set[str] = set()
        self._merged_agents: set[str] = set()
        self._speed_sum = 0.0
        self._speed_count = 0
        self._episode_reward = 0.0
        self._collision_happened = False

        self.observation_spaces = {
            agent: self._make_observation_space() for agent in self.agents
        }
        self.action_spaces = {
            agent: Box(low=[0.0, -0.5], high=[0.3, 0.5]) for agent in self.agents
        }

    # ------------------------------------------------------------------
    # Space construction
    # ------------------------------------------------------------------
    def _make_observation_space(self) -> DictSpace:
        cfg = self.scenario
        return DictSpace(
            {
                "lidar": Box(0.0, 1.0, shape=(cfg.lidar_beams,)),
                "speed": Box(0.0, 1.0, shape=(1,)),
                "lane_onehot": Box(0.0, 1.0, shape=(cfg.num_lanes,)),
                "features": Box(-5.0, 5.0, shape=(feature_dim(cfg.num_lanes),)),
            }
        )

    @property
    def high_level_obs_dim(self) -> int:
        """Flat dimension of the paper's s_h = [lidar, speed, laneID]."""
        cfg = self.scenario
        return cfg.lidar_beams + 1 + cfg.num_lanes

    @property
    def low_level_obs_dim(self) -> int:
        """Flat dimension of s_l (speed/lane included)."""
        cfg = self.scenario
        return feature_dim(cfg.num_lanes) + 1 + cfg.num_lanes

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self, seed: int | None = None) -> dict[str, np.ndarray]:
        self._reset_state(seed)
        return {agent: self._observe(agent) for agent in self.agents}

    def _reset_state(self, seed: int | None = None) -> None:
        """Place the vehicles for a new episode without observing them.

        :meth:`reset` is this plus the observations, so both make the same
        RNG draws.  :class:`~repro.envs.vector_env.VectorEnv` calls it on
        its fast path and observes the reset rows with its stacked kernels.
        """
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        cfg = self.scenario
        self._t = 0
        self._merged_agents = set()
        self._speed_sum = 0.0
        self._speed_count = 0
        self._episode_reward = 0.0
        self._collision_happened = False

        # Scripted slow leader(s) ahead in lane 0.
        self._scripted = []
        leader_s = cfg.track_length * 0.4
        for k in range(cfg.num_scripted_vehicles):
            vehicle = Vehicle(1000 + k, self.track, cfg.vehicle_radius)
            vehicle.reset(
                s=leader_s + k * 1.5, lane_id=0, speed=cfg.scripted_speed
            )
            self._scripted.append(vehicle)

        # Learning vehicles behind the leader, staggered with jitter. The
        # lead blocked vehicle starts close enough that staying in lane 0
        # forces it down to the leader's crawl within the episode — merging
        # is the only way to keep the team moving (Fig. 6/9 scenario).
        self._vehicles = {}
        self._blocked_agents = set()
        spacing = max(3.0 * cfg.vehicle_radius * 2.5, 1.0)
        for i, agent in enumerate(self.agents):
            vehicle = Vehicle(i, self.track, cfg.vehicle_radius)
            jitter = self._rng.uniform(-0.1, 0.1)
            # Even indices start blocked in lane 0; odd indices start in
            # the free lane, roughly alongside — they must open a gap.
            lane = 0 if i % 2 == 0 else min(1, cfg.num_lanes - 1)
            if lane == 0:
                s = leader_s - (1.0 + (i // 2) * spacing) + jitter
            else:
                s = leader_s - (1.15 + (i // 2) * spacing) + jitter
            vehicle.reset(s=s, lane_id=lane, speed=cfg.initial_speed)
            self._vehicles[agent] = vehicle
            if lane == 0:
                self._blocked_agents.add(agent)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, actions: dict[str, Any]):
        cfg = self.scenario
        missing = set(self.agents) - set(actions)
        if missing:
            raise KeyError(f"missing actions for agents: {sorted(missing)}")
        self._t += 1

        travel_before = {
            agent: vehicle.distance_travelled
            for agent, vehicle in self._vehicles.items()
        }

        # Scripted vehicles move first (they are part of the environment).
        all_vehicles = self.all_vehicles()
        for vehicle in self._scripted:
            linear, angular = self._scripted_policy.act(vehicle, all_vehicles)
            vehicle.apply_action(linear, angular, cfg.dt)

        for agent in self.agents:
            action = np.asarray(actions[agent], dtype=np.float64).reshape(-1)
            if action.shape[0] != 2:
                raise ValueError(
                    f"action for {agent} must be (linear, angular), got {action}"
                )
            self._vehicles[agent].apply_action(action[0], action[1], cfg.dt)

        collisions = self._detect_collisions()
        off_road = {
            agent for agent, vehicle in self._vehicles.items() if vehicle.off_road()
        }
        failure_agents = collisions | off_road
        if failure_agents:
            self._collision_happened = True

        # Merge bookkeeping: a blocked vehicle succeeds by settling in the
        # other lane (it escaped the congestion without a crash).
        for agent in self._blocked_agents - self._merged_agents:
            vehicle = self._vehicles[agent]
            if (
                vehicle.lane_id != 0
                and vehicle.lane_deviation < 0.25 * cfg.lane_width
                and agent not in failure_agents
            ):
                self._merged_agents.add(agent)

        reward = self._team_reward(travel_before, bool(failure_agents))
        self._episode_reward += reward

        speeds = [v.state.linear_speed for v in self._vehicles.values()]
        self._speed_sum += float(np.mean(speeds))
        self._speed_count += 1

        done = bool(failure_agents) or self._t >= cfg.episode_length
        observations = {agent: self._observe(agent) for agent in self.agents}
        rewards = {agent: reward for agent in self.agents}
        dones = {agent: done for agent in self.agents}
        dones["__all__"] = done

        info: dict[str, Any] = {
            "t": self._t,
            "collisions": collisions,
            "off_road": off_road,
            "agents": {
                agent: self.agent_status(agent, travel_before[agent])
                for agent in self.agents
            },
        }
        if done:
            info["episode"] = self.episode_summary()
        return observations, rewards, dones, info

    # ------------------------------------------------------------------
    # Reward / metrics
    # ------------------------------------------------------------------
    def _team_reward(self, travel_before: dict[str, float], failed: bool) -> float:
        """Shared team reward r_h = alpha * r_col + (1 - alpha) * r_travel."""
        rew = self.rewards
        travel = float(
            np.mean(
                [
                    self._vehicles[agent].distance_travelled - travel_before[agent]
                    for agent in self.agents
                ]
            )
        )
        r_travel = travel * rew.travel_reward_scale
        r_col = rew.collision_penalty if failed else 0.0
        return rew.alpha * r_col + (1.0 - rew.alpha) * r_travel

    def agent_status(self, agent: str, travel_before: float) -> dict[str, Any]:
        vehicle = self._vehicles[agent]
        return {
            "lane_id": vehicle.lane_id,
            "deviation": vehicle.lane_deviation,
            "travel": vehicle.distance_travelled - travel_before,
            "speed": vehicle.state.linear_speed,
            "off_road": vehicle.off_road(),
            "merged": agent in self._merged_agents,
        }

    def episode_summary(self) -> dict[str, float]:
        """Metrics matching Sec. V-B's four evaluation criteria."""
        blocked = max(len(self._blocked_agents), 1)
        return {
            "episode_reward": self._episode_reward,
            "collision": float(self._collision_happened),
            "merge_success_rate": len(self._merged_agents) / blocked,
            "mean_speed": (
                self._speed_sum / self._speed_count if self._speed_count else 0.0
            ),
            "length": float(self._t),
        }

    # ------------------------------------------------------------------
    # Observation helpers
    # ------------------------------------------------------------------
    def all_vehicles(self) -> list[Vehicle]:
        return list(self._vehicles.values()) + self._scripted

    def vehicle(self, agent: str) -> Vehicle:
        return self._vehicles[agent]

    def _observe(self, agent: str) -> dict[str, np.ndarray]:
        cfg = self.scenario
        ego = self._vehicles[agent]
        others = self.all_vehicles()
        lane_onehot = np.zeros(cfg.num_lanes)
        lane_onehot[ego.lane_id] = 1.0
        return {
            "lidar": self.lidar.scan(ego, others),
            "speed": np.array([ego.state.linear_speed]),
            "lane_onehot": lane_onehot,
            "features": feature_vector(ego, others, self.track),
        }

    @staticmethod
    def flatten_high(obs: dict[str, np.ndarray]) -> np.ndarray:
        """The paper's s_h = [s_lidar, s_speed, s_laneID] as a flat vector."""
        return np.concatenate([obs["lidar"], obs["speed"], obs["lane_onehot"]])

    @staticmethod
    def flatten_low(obs: dict[str, np.ndarray]) -> np.ndarray:
        """s_l = [features, speed, laneID] as a flat vector."""
        return np.concatenate([obs["features"], obs["speed"], obs["lane_onehot"]])

    def detect_collision_pairs(self) -> list[tuple[int, int]]:
        """All colliding (vehicle_id, vehicle_id) pairs; exposed for tests."""
        vehicles = self.all_vehicles()
        pairs = []
        for i, a in enumerate(vehicles):
            for b in vehicles[i + 1 :]:
                if a.collides_with(b):
                    pairs.append((a.vehicle_id, b.vehicle_id))
        return pairs

    def _detect_collisions(self) -> set[str]:
        """Learning agents involved in any vehicle-vehicle collision."""
        vehicles = self.all_vehicles()
        crashed_ids: set[int] = set()
        for i, a in enumerate(vehicles):
            for b in vehicles[i + 1 :]:
                if a.collides_with(b):
                    crashed_ids.add(a.vehicle_id)
                    crashed_ids.add(b.vehicle_id)
        involved = set()
        for agent, vehicle in self._vehicles.items():
            if vehicle.vehicle_id in crashed_ids:
                vehicle.crashed = True
                involved.add(agent)
        return involved
