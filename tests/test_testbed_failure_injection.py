"""Failure-injection tests: the system under degraded conditions.

These verify graceful behaviour at the edges — extreme sensor noise,
total message loss, crashed vehicles mid-episode, saturated buffers —
the conditions a distributed deployment actually hits.
"""

import numpy as np
import pytest

from repro.config import ScenarioConfig, TestbedConfig as ShiftConfig
from repro.core import BatchedHeroRunner, HeroTeam
from repro.distributed import DistributedObservationService
from repro.envs import CooperativeLaneChangeEnv, RealWorldTestbed
from repro.envs.stepping import PoseStepper
from repro.training.replay import ReplayBuffer


def tiny_env():
    return CooperativeLaneChangeEnv(scenario=ScenarioConfig(episode_length=5))


class TestExtremeNoise:
    def test_huge_sensor_noise_still_runs(self):
        testbed = RealWorldTestbed(tiny_env(), ShiftConfig(sensor_noise_std=10.0), seed=0)
        obs = testbed.reset(seed=0)
        actions = {a: np.array([0.05, 0.0]) for a in testbed.agents}
        for _ in range(5):
            obs, rewards, dones, _ = testbed.step(actions)
            assert all(np.all(np.isfinite(o["lidar"])) for o in obs.values())
            if dones["__all__"]:
                break

    def test_long_actuation_delay(self):
        testbed = RealWorldTestbed(tiny_env(), ShiftConfig(action_delay_steps=4), seed=0)
        testbed.reset(seed=0)
        actions = {a: np.array([0.2, 0.0]) for a in testbed.agents}
        obs, rewards, dones, _ = testbed.step(actions)
        assert set(rewards) == set(testbed.agents)

    def test_hero_team_acts_on_noisy_observations(self):
        env = tiny_env()
        team = HeroTeam(env, np.random.default_rng(0), batch_size=8)
        poses = PoseStepper(env, 1)
        runner = BatchedHeroRunner(team, poses)
        obs = env.reset(seed=0)
        poses.read_poses(env)
        noisy = {
            key: np.stack([obs[a][key] for a in env.agents])[None] + 5.0
            for key in obs[env.agents[0]]
        }
        actions = runner.act(noisy)
        assert np.all(np.isfinite(actions))


class TestTotalMessageLoss:
    def test_opponent_options_stay_at_default(self):
        service = DistributedObservationService(
            ["a", "b"], latency_steps=0, drop_probability=0.999999, seed=0
        )
        for _ in range(20):
            service.exchange(np.array([[1, 3]]))
        # With effectively total loss, "a" still reports the default for "b".
        observed = service.observed_options(1)[0, 0]
        np.testing.assert_array_equal(observed, [0])
        assert service.stats()["delivered"] == 0


class TestCrashedVehicles:
    def test_crashed_vehicle_ignores_commands(self):
        env = tiny_env()
        env.reset(seed=0)
        vehicle = env.vehicle(env.agents[0])
        vehicle.crashed = True
        s_before = vehicle.state.s
        env.step({a: np.array([0.2, 0.0]) for a in env.agents})
        assert vehicle.state.s == pytest.approx(s_before)

    def test_episode_ends_exactly_once_on_collision(self):
        env = tiny_env()
        env.reset(seed=0)
        v0, v1 = env.vehicle(env.agents[0]), env.vehicle(env.agents[1])
        v1.state.s, v1.state.d = v0.state.s + 0.05, v0.state.d
        _, _, dones, info = env.step({a: np.zeros(2) for a in env.agents})
        assert dones["__all__"]
        assert info["episode"]["collision"] == 1.0


class TestBufferSaturation:
    def test_saturated_buffer_still_samples(self):
        buffer = ReplayBuffer(16, obs_dim=2, action_dim=1)
        for i in range(1000):
            buffer.push([i, i], [0], 0.0, [0, 0], False)
        batch = buffer.sample(8, np.random.default_rng(0))
        assert batch["obs"].shape == (8, 2)
        # All contents are from the most recent window.
        assert np.all(batch["obs"][:, 0] >= 1000 - 16)

    def test_sample_larger_than_size(self):
        buffer = ReplayBuffer(16, obs_dim=1, action_dim=1)
        for i in range(4):
            buffer.push([i], [0], 0.0, [0], False)
        batch = buffer.sample(100, np.random.default_rng(0))
        assert batch["obs"].shape[0] == 4
