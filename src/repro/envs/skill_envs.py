"""Single-agent skill-training environments (Algorithm 2, Fig. 4/8).

The paper trains low-level skills in "parallel training environments with
different intrinsic reward functions" before any multi-agent training:

* :class:`LaneKeepingEnv` — the *driving-in-lane* family
  (keep-lane / slow-down / accelerate differ only in their action bounds),
  rewarded by ``r = beta * r_deviate + (1 - beta) * r_travel``.
* :class:`LaneChangeEnv` — the *lane-change* skill, rewarded +20 on a
  completed change, -20 on timeout/failure, ``r_travel`` otherwise.

Observations are the low-level state s_l = [features, speed, laneID,
target-direction]; the trailing scalar tells the controller which
way to merge (0 for in-lane skills).
"""

from __future__ import annotations

import numpy as np

from ..config import OptionBounds, RewardConfig, ScenarioConfig, LANE_CHANGE_BOUNDS
from ..utils.math_utils import clip_scalar
from .base import SingleAgentEnv
from .geometry import make_track
from .sensors import feature_dim, feature_vector
from .spaces import Box
from .vehicle import Vehicle


def low_level_obs_dim(scenario: ScenarioConfig) -> int:
    """Flat dimension of the low-level observation."""
    return feature_dim(scenario.num_lanes) + 1 + scenario.num_lanes + 1


class _SkillEnvBase(SingleAgentEnv):
    """Shared machinery: one ego vehicle plus optional slow traffic.

    ``obstacle_probability`` controls how often an episode spawns a slow
    leader ahead of the ego. Training the skills *with* traffic is what
    teaches them to modulate speed by the forward-gap feature — without it
    both skills saturate at their maximum speed and ram the congestion the
    high-level layer is trying to route around.
    """

    def __init__(
        self,
        scenario: ScenarioConfig | None = None,
        rewards: RewardConfig | None = None,
        bounds: OptionBounds | None = None,
        max_steps: int = 30,
        track_kind: str = "straight",
        obstacle_probability: float = 0.5,
    ):
        self.scenario = scenario or ScenarioConfig()
        self.rewards = rewards or RewardConfig()
        cfg = self.scenario
        self.track = make_track(track_kind, cfg.track_length, cfg.num_lanes, cfg.lane_width)
        self.max_steps = max_steps
        self.bounds = bounds
        self.obstacle_probability = obstacle_probability
        self._rng = np.random.default_rng(0)
        self.ego = Vehicle(0, self.track, cfg.vehicle_radius)
        self.obstacles: list[Vehicle] = []
        self._t = 0
        self._target_direction = 0.0

        if bounds is None:
            low, high = np.array([0.0, -0.5]), np.array([0.3, 0.5])
        else:
            low, high = bounds.as_arrays()
        self.action_space = Box(low=low, high=high)
        self.observation_space = Box(-5.0, 5.0, shape=(low_level_obs_dim(cfg),))

    def _maybe_spawn_obstacle(self, lane: int, gap_range=(0.5, 1.2)) -> None:
        """Spawn a slow leader ahead of the ego with the configured chance."""
        self.obstacles = []
        if self._rng.uniform() >= self.obstacle_probability:
            return
        cfg = self.scenario
        obstacle = Vehicle(100, self.track, cfg.vehicle_radius)
        gap = float(self._rng.uniform(*gap_range))
        obstacle.reset(
            s=self.track.wrap(self.ego.state.s + gap),
            lane_id=lane,
            speed=cfg.scripted_speed,
        )
        self.obstacles.append(obstacle)

    def _advance_obstacles(self) -> None:
        for obstacle in self.obstacles:
            obstacle.apply_action(
                obstacle.state.linear_speed or self.scenario.scripted_speed,
                0.0,
                self.scenario.dt,
            )

    def _hit_obstacle(self) -> bool:
        return any(self.ego.collides_with(o) for o in self.obstacles)

    def _all_vehicles(self) -> list[Vehicle]:
        return [self.ego, *self.obstacles]

    def _observe(self) -> np.ndarray:
        cfg = self.scenario
        lane_onehot = np.zeros(cfg.num_lanes)
        lane_onehot[self.ego.lane_id] = 1.0
        features = feature_vector(self.ego, self._all_vehicles(), self.track)
        return np.concatenate(
            [
                features,
                [self.ego.state.linear_speed],
                lane_onehot,
                [self._target_direction],
            ]
        )

    def _travel_reward(self, before: float) -> float:
        delta = self.ego.distance_travelled - before
        return delta * self.rewards.travel_reward_scale


class LaneKeepingEnv(_SkillEnvBase):
    """Drive centred in the current lane at the commanded speed range."""

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        cfg = self.scenario
        lane = int(self._rng.integers(0, cfg.num_lanes))
        self.ego.reset(
            s=float(self._rng.uniform(0, cfg.track_length)),
            lane_id=lane,
            speed=cfg.initial_speed,
        )
        # Start with a lateral/heading perturbation so centring is learned.
        self.ego.state.d += float(self._rng.uniform(-0.3, 0.3) * cfg.lane_width)
        self.ego.state.heading = float(self._rng.uniform(-0.2, 0.2))
        self._maybe_spawn_obstacle(lane)
        self._t = 0
        self._target_direction = 0.0
        return self._observe()

    def step(self, action):
        cfg = self.scenario
        action = self.action_space.clip(action)
        before = self.ego.distance_travelled
        self._advance_obstacles()
        self.ego.apply_action(action[0], action[1], cfg.dt)
        self._t += 1

        deviation = self.ego.lane_deviation
        r_deviate = -deviation / (cfg.lane_width / 2.0)
        r_travel = self._travel_reward(before)
        beta = self.rewards.beta
        reward = beta * r_deviate + (1.0 - beta) * r_travel

        crashed = self._hit_obstacle() or self.ego.off_road()
        done = self._t >= self.max_steps or crashed
        info = {
            "deviation": deviation,
            "off_road": self.ego.off_road(),
            "crashed": crashed,
        }
        if crashed:
            reward += self.rewards.collision_penalty
        return self._observe(), float(reward), done, info


class LaneChangeEnv(_SkillEnvBase):
    """Merge into the adjacent lane within ``max_steps`` steps."""

    def __init__(
        self,
        scenario: ScenarioConfig | None = None,
        rewards: RewardConfig | None = None,
        bounds: OptionBounds | None = None,
        max_steps: int = 25,
        track_kind: str = "straight",
        obstacle_probability: float = 1.0,
    ):
        super().__init__(
            scenario,
            rewards,
            bounds or LANE_CHANGE_BOUNDS,
            max_steps,
            track_kind,
            obstacle_probability=obstacle_probability,
        )
        self._start_lane = 0
        self._target_lane = 1

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        cfg = self.scenario
        self._start_lane = int(self._rng.integers(0, cfg.num_lanes))
        offsets = [lane for lane in range(cfg.num_lanes) if lane != self._start_lane]
        self._target_lane = int(self._rng.choice(offsets))
        self.ego.reset(
            s=float(self._rng.uniform(0, cfg.track_length)),
            lane_id=self._start_lane,
            speed=cfg.initial_speed,
        )
        # Congestion ahead in the start lane is exactly the situation the
        # lane-change skill exists for; spawning it teaches the skill to
        # pace the merge instead of ramming the obstacle.
        self._maybe_spawn_obstacle(self._start_lane, gap_range=(0.6, 1.4))
        self._t = 0
        self._target_direction = float(np.sign(self._target_lane - self._start_lane))
        return self._observe()

    def step(self, action):
        cfg = self.scenario
        action = np.asarray(action, dtype=np.float64).reshape(-1)
        # The paper's lane-change angular range is one-sided (0.12..0.25);
        # the learned action is the (linear, |angular|) pair, and the
        # steering *sign* comes from the shared merge-direction controller
        # (see repro.envs.control) — identical to HERO option execution.
        from .control import lane_change_command

        low, high = self.action_space.low, self.action_space.high
        linear = float(clip_scalar(action[0], low[0], high[0]))
        angular_mag = float(clip_scalar(abs(action[1]), abs(low[1]), high[1]))
        command = lane_change_command(self.ego, self._target_lane, linear, angular_mag)
        before = self.ego.distance_travelled
        self._advance_obstacles()
        self.ego.apply_action(command[0], command[1], cfg.dt)
        self._t += 1

        reached = (
            self.ego.lane_id == self._target_lane
            and self.ego.lane_deviation < 0.25 * cfg.lane_width
            and abs(self.ego.state.heading) < 0.3
        )
        failed = (
            self.ego.off_road()
            or self._hit_obstacle()
            or self._t >= self.max_steps
        )

        if reached:
            reward = self.rewards.lane_change_success_reward
            done = True
        elif failed:
            reward = self.rewards.lane_change_fail_penalty
            done = True
        else:
            reward = self._travel_reward(before)
            done = False
        info = {
            "success": reached,
            "target_lane": self._target_lane,
            "lane_id": self.ego.lane_id,
        }
        return self._observe(), float(reward), done, info
