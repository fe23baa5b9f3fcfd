"""Tests for the cooperative lane-change env, skill envs, wrappers, testbed."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    TestbedConfig as ShiftConfig,
    LANE_CHANGE_BOUNDS,
    ScenarioConfig,
)
from repro.envs import (
    CooperativeLaneChangeEnv,
    FlattenObservationWrapper,
    LaneChangeEnv,
    LaneKeepingEnv,
    RealWorldTestbed,
    low_level_obs_dim,
    make_baseline_env,
)


def make_env(**overrides) -> CooperativeLaneChangeEnv:
    scenario = ScenarioConfig(**overrides)
    return CooperativeLaneChangeEnv(scenario=scenario)


def zero_actions(env):
    return {agent: np.array([0.0, 0.0]) for agent in env.agents}


def cruise_actions(env, speed=0.08):
    return {agent: np.array([speed, 0.0]) for agent in env.agents}


class TestCooperativeLaneChangeEnv:
    def test_reset_returns_all_agents(self):
        env = make_env()
        obs = env.reset(seed=0)
        assert set(obs) == set(env.agents)
        assert len(env.agents) == 3

    def test_observation_structure(self):
        env = make_env()
        obs = env.reset(seed=0)
        first = obs[env.agents[0]]
        assert first["lidar"].shape == (env.scenario.lidar_beams,)
        assert first["speed"].shape == (1,)
        assert first["lane_onehot"].sum() == pytest.approx(1.0)
        assert "features" in first

    def test_observation_in_space(self):
        env = make_env()
        obs = env.reset(seed=0)
        for agent in env.agents:
            assert env.observation_spaces[agent].contains(obs[agent])

    def test_step_returns_shared_reward(self):
        env = make_env()
        env.reset(seed=0)
        _, rewards, _, _ = env.step(cruise_actions(env))
        values = list(rewards.values())
        assert all(v == pytest.approx(values[0]) for v in values)

    def test_forward_progress_rewarded(self):
        env = make_env()
        env.reset(seed=0)
        _, rewards_fast, _, _ = env.step(cruise_actions(env, 0.1))
        env.reset(seed=0)
        _, rewards_slow, _, _ = env.step(zero_actions(env))
        agent = env.agents[0]
        assert rewards_fast[agent] > rewards_slow[agent]

    def test_missing_action_raises(self):
        env = make_env()
        env.reset(seed=0)
        with pytest.raises(KeyError):
            env.step({env.agents[0]: np.zeros(2)})

    def test_bad_action_shape_raises(self):
        env = make_env()
        env.reset(seed=0)
        actions = zero_actions(env)
        actions[env.agents[0]] = np.zeros(3)
        with pytest.raises(ValueError):
            env.step(actions)

    def test_episode_terminates_at_length(self):
        env = make_env(episode_length=5)
        env.reset(seed=0)
        done = False
        steps = 0
        while not done:
            _, _, dones, _ = env.step(zero_actions(env))
            done = dones["__all__"]
            steps += 1
            assert steps <= 5
        assert steps == 5

    def test_collision_ends_episode_with_penalty(self):
        env = make_env()
        env.reset(seed=0)
        # Force two learning vehicles onto the same spot.
        v0 = env.vehicle(env.agents[0])
        v1 = env.vehicle(env.agents[1])
        v1.state.s = v0.state.s + 0.05
        v1.state.d = v0.state.d
        _, rewards, dones, info = env.step(zero_actions(env))
        assert dones["__all__"]
        assert env.agents[0] in info["collisions"]
        assert rewards[env.agents[0]] < 0
        assert info["episode"]["collision"] == 1.0

    def test_blocked_agents_start_in_lane_zero(self):
        env = make_env()
        env.reset(seed=0)
        for agent in env.agents:
            vehicle = env.vehicle(agent)
            if agent in env._blocked_agents:
                assert vehicle.lane_id == 0

    def test_merge_detection(self):
        env = make_env()
        env.reset(seed=0)
        blocked = sorted(env._blocked_agents)[0]
        vehicle = env.vehicle(blocked)
        # Teleport to an empty stretch of the free lane.
        vehicle.state.d = env.track.lane_center(1)
        vehicle.state.s = env.track.wrap(vehicle.state.s + 10.0)
        _, _, _, info = env.step(zero_actions(env))
        assert info["agents"][blocked]["merged"]

    def test_episode_summary_metrics(self):
        env = make_env(episode_length=3)
        env.reset(seed=0)
        done = False
        while not done:
            _, _, dones, info = env.step(cruise_actions(env))
            done = dones["__all__"]
        summary = info["episode"]
        assert set(summary) == {
            "episode_reward",
            "collision",
            "merge_success_rate",
            "mean_speed",
            "length",
        }
        assert summary["mean_speed"] > 0

    def test_scripted_leader_crawls(self):
        env = make_env()
        env.reset(seed=0)
        leader = env._scripted[0]
        s_before = leader.state.s
        env.step(zero_actions(env))
        gap = env.track.signed_gap(s_before, leader.state.s)
        assert 0 < gap <= env.scenario.scripted_speed * env.scenario.dt + 1e-9

    def test_determinism_same_seed(self):
        env1, env2 = make_env(), make_env()
        obs1, obs2 = env1.reset(seed=42), env2.reset(seed=42)
        for agent in env1.agents:
            np.testing.assert_array_equal(obs1[agent]["lidar"], obs2[agent]["lidar"])

    def test_high_low_flatten_helpers(self):
        env = make_env()
        obs = env.reset(seed=0)
        first = obs[env.agents[0]]
        high = CooperativeLaneChangeEnv.flatten_high(first)
        assert high.shape == (env.high_level_obs_dim,)
        low = CooperativeLaneChangeEnv.flatten_low(first)
        assert low.shape == (env.low_level_obs_dim,)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"num_learning_vehicles": 2}, {"num_lanes": 3}, {"lidar_beams": 8}],
        ids=["default", "two-agents", "three-lanes", "eight-beams"],
    )
    def test_observations_stay_in_space_through_an_episode(self, overrides):
        env = make_env(episode_length=12, **overrides)
        obs = env.reset(seed=5)
        rng = np.random.default_rng(5)
        done = False
        while not done:
            for agent in env.agents:
                assert env.observation_spaces[agent].contains(obs[agent]), agent
            actions = {
                agent: rng.uniform([0.0, -0.5], [0.3, 0.5]) for agent in env.agents
            }
            obs, _, dones, _ = env.step(actions)
            done = dones["__all__"]

    def test_flatten_helpers_keep_the_paper_layout(self):
        """s_h = [lidar, speed, laneID] and s_l = [features, speed, laneID]."""
        env = make_env()
        first = env.reset(seed=0)[env.agents[0]]
        np.testing.assert_array_equal(
            CooperativeLaneChangeEnv.flatten_high(first),
            np.concatenate([first["lidar"], first["speed"], first["lane_onehot"]]),
        )
        np.testing.assert_array_equal(
            CooperativeLaneChangeEnv.flatten_low(first),
            np.concatenate([first["features"], first["speed"], first["lane_onehot"]]),
        )


class TestLaneKeepingEnv:
    def test_reset_perturbs_position(self):
        env = LaneKeepingEnv()
        env.reset(seed=0)
        assert env.ego.lane_deviation >= 0.0

    def test_centering_rewarded_over_drifting(self):
        env = LaneKeepingEnv()
        env.reset(seed=1)
        env.ego.state.d = env.track.lane_center(env.ego.lane_id)
        env.ego.state.heading = 0.0
        _, r_center, _, _ = env.step(np.array([0.08, 0.0]))
        env.reset(seed=1)
        env.ego.state.d = env.track.lane_center(env.ego.lane_id)
        env.ego.state.heading = 0.0
        _, r_swerve, _, _ = env.step(np.array([0.08, 0.4]))
        assert r_center > r_swerve

    def test_episode_length_respected(self):
        env = LaneKeepingEnv(max_steps=4)
        env.reset(seed=0)
        for i in range(4):
            _, _, done, _ = env.step(np.array([0.05, 0.0]))
        assert done

    def test_off_road_penalised_and_terminal(self):
        env = LaneKeepingEnv()
        env.reset(seed=0)
        env.ego.state.d = env.track.half_width + 0.1
        _, reward, done, info = env.step(np.array([0.05, 0.0]))
        assert done and info["off_road"] and reward < 0

    def test_observation_dim(self):
        env = LaneKeepingEnv()
        obs = env.reset(seed=0)
        assert obs.shape == (low_level_obs_dim(env.scenario),)
        assert obs[-1] == 0.0  # no merge direction for in-lane skill


class TestLaneChangeEnv:
    def test_success_gives_bonus(self):
        env = LaneChangeEnv()
        env.reset(seed=0)
        env.ego.state.d = env.track.lane_center(env._target_lane)
        env.ego.state.heading = 0.0
        _, reward, done, info = env.step(np.array([0.15, 0.0]))
        assert done and info["success"]
        assert reward == pytest.approx(env.rewards.lane_change_success_reward)

    def test_timeout_gives_penalty(self):
        env = LaneChangeEnv(max_steps=2)
        env.reset(seed=0)
        env.step(np.array([0.1, 0.0]))
        # Hold the vehicle so it cannot reach the target lane.
        env.ego.state.d = env.track.lane_center(env._start_lane)
        _, reward, done, info = env.step(np.array([0.1, 0.0]))
        assert done and not info["success"]
        assert reward == pytest.approx(env.rewards.lane_change_fail_penalty)

    def test_direction_flag_in_observation(self):
        env = LaneChangeEnv()
        obs = env.reset(seed=3)
        assert obs[-1] in (-1.0, 1.0)

    def test_steering_moves_toward_target(self):
        env = LaneChangeEnv()
        env.reset(seed=0)
        target_d = env.track.lane_center(env._target_lane)
        before = abs(env.ego.state.d - target_d)
        for _ in range(4):
            _, _, done, _ = env.step(np.array([0.15, 0.2]))
            if done:
                break
        after = abs(env.ego.state.d - target_d)
        assert after < before

    def test_default_bounds_match_paper(self):
        env = LaneChangeEnv()
        np.testing.assert_allclose(
            env.action_space.low, LANE_CHANGE_BOUNDS.as_arrays()[0]
        )
        np.testing.assert_allclose(
            env.action_space.high, LANE_CHANGE_BOUNDS.as_arrays()[1]
        )

    def test_policy_can_complete_change(self):
        """The scripted optimal behaviour completes within the step budget,
        so the skill is learnable."""
        env = LaneChangeEnv()
        env.reset(seed=7)
        done, success = False, False
        steps = 0
        while not done:
            _, _, done, info = env.step(np.array([0.15, 0.25]))
            success = info["success"]
            steps += 1
        assert success, f"scripted lane change failed after {steps} steps"


@pytest.mark.parametrize("env_cls", [LaneKeepingEnv, LaneChangeEnv], ids=["keep", "change"])
def test_skill_observations_stay_in_space_through_an_episode(env_cls):
    """The skills observe s_l plus the merge direction: lidar features,
    speed and lane one-hot, as the team env's flatten_low lays them out."""
    env = env_cls()
    obs = env.reset(seed=2)
    rng = np.random.default_rng(2)
    lanes = env.scenario.num_lanes
    done = False
    while not done:
        assert env.observation_space.contains(obs)
        lane_onehot = obs[-1 - lanes : -1]
        assert lane_onehot.sum() == 1.0 and lane_onehot[env.ego.lane_id] == 1.0
        assert obs[-2 - lanes] == env.ego.state.linear_speed
        obs, _, done, _ = env.step(env.action_space.sample(rng))


class TestWrappers:
    def test_flatten_wrapper_shapes(self):
        env = FlattenObservationWrapper(CooperativeLaneChangeEnv())
        obs = env.reset(seed=0)
        for agent in env.agents:
            assert obs[agent].shape == (env.obs_dim,)

    def test_flatten_wrapper_concatenates_the_dict_observation(self):
        base = CooperativeLaneChangeEnv()
        wrapped = FlattenObservationWrapper(CooperativeLaneChangeEnv())
        expected, flat = base.reset(seed=3), wrapped.reset(seed=3)
        for agent in wrapped.agents:
            o = expected[agent]
            np.testing.assert_array_equal(
                flat[agent],
                np.concatenate([o["lidar"], o["speed"], o["lane_onehot"], o["features"]]),
            )
            assert wrapped.observation_spaces[agent].contains(flat[agent])

    def test_discrete_wrapper_grid(self):
        env = make_baseline_env()
        assert env.num_actions == 9
        obs = env.reset(seed=0)
        actions = {agent: 4 for agent in env.agents}  # mid linear, zero angular
        next_obs, rewards, dones, info = env.step(actions)
        assert set(next_obs) == set(obs)

    def test_discrete_action_mapping(self):
        env = make_baseline_env()
        env.reset(seed=0)
        actions = {agent: 0 for agent in env.agents}
        env.step(actions)
        inner = env.env.env  # unwrap to the base env
        for agent in env.agents:
            assert inner.vehicle(agent).state.linear_speed == pytest.approx(0.02)


class TestRealWorldTestbed:
    def test_noise_applied_to_observations(self):
        base = CooperativeLaneChangeEnv()
        testbed = RealWorldTestbed(base, ShiftConfig(sensor_noise_std=0.5), seed=0)
        obs = testbed.reset(seed=0)
        # With huge noise, the one-hot lane vector will not be exactly 0/1.
        lane = obs[testbed.agents[0]]["lane_onehot"]
        assert not np.all(np.isin(lane, [0.0, 1.0]))

    def test_action_delay(self):
        base = CooperativeLaneChangeEnv()
        testbed = RealWorldTestbed(
            base,
            ShiftConfig(
                sensor_noise_std=0.0,
                action_delay_steps=1,
                speed_scale_range=(1.0, 1.0),
                heading_drift_std=0.0,
                initial_position_jitter=0.0,
            ),
            seed=0,
        )
        testbed.reset(seed=0)
        actions = {agent: np.array([0.2, 0.0]) for agent in testbed.agents}
        testbed.step(actions)
        # First commanded action was delayed; vehicles executed the zero
        # command from the buffer.
        for agent in testbed.agents:
            assert base.vehicle(agent).state.linear_speed == pytest.approx(0.0)
        testbed.step({agent: np.array([0.0, 0.0]) for agent in testbed.agents})
        for agent in testbed.agents:
            assert base.vehicle(agent).state.linear_speed == pytest.approx(0.2)

    def test_speed_scale_range(self):
        base = CooperativeLaneChangeEnv()
        testbed = RealWorldTestbed(
            base,
            ShiftConfig(speed_scale_range=(0.5, 0.5), action_delay_steps=0,
                          sensor_noise_std=0.0, heading_drift_std=0.0,
                          initial_position_jitter=0.0),
            seed=0,
        )
        testbed.reset(seed=0)
        testbed.step({agent: np.array([0.2, 0.0]) for agent in testbed.agents})
        for agent in testbed.agents:
            assert base.vehicle(agent).state.linear_speed == pytest.approx(0.1)

    def test_summary_passthrough(self):
        base = CooperativeLaneChangeEnv()
        testbed = RealWorldTestbed(base, seed=0)
        testbed.reset(seed=0)
        testbed.step({agent: np.array([0.1, 0.0]) for agent in testbed.agents})
        assert "mean_speed" in testbed.episode_summary()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_no_spontaneous_collision_at_reset(seed):
    env = make_env()
    env.reset(seed=seed)
    assert env.detect_collision_pairs() == []


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_rewards_bounded(seed):
    env = make_env(episode_length=6)
    env.reset(seed=seed)
    rng = np.random.default_rng(seed)
    done = False
    while not done:
        actions = {
            agent: env.action_spaces[agent].sample(rng) for agent in env.agents
        }
        _, rewards, dones, _ = env.step(actions)
        done = dones["__all__"]
        for value in rewards.values():
            assert -25.0 <= value <= 25.0
