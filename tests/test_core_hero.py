"""Integration tests for the composed HERO agent/team and trainers."""

import numpy as np
import pytest

from repro.config import RewardConfig, ScenarioConfig, TrainingConfig
from repro.core import (
    HeroTeam,
    LANE_CHANGE,
    train_hero,
    train_low_level_skills,
)
from repro.core.trainer import evaluate_hero
from repro.distributed import DistributedObservationService
from repro.envs import CooperativeLaneChangeEnv, RealWorldTestbed


def small_scenario(**overrides):
    defaults = dict(episode_length=8)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def make_team(env, seed=0, **kwargs):
    defaults = dict(batch_size=16)
    defaults.update(kwargs)
    return HeroTeam(env, np.random.default_rng(seed), **defaults)


class TestHeroTeam:
    def test_act_returns_action_per_agent(self):
        env = CooperativeLaneChangeEnv(scenario=small_scenario())
        team = make_team(env)
        obs = env.reset(seed=0)
        team.start_episode()
        actions = team.act(obs)
        assert set(actions) == set(env.agents)
        for action in actions.values():
            assert action.shape == (2,)

    def test_actions_within_env_bounds(self):
        env = CooperativeLaneChangeEnv(scenario=small_scenario())
        team = make_team(env)
        obs = env.reset(seed=0)
        team.start_episode()
        for _ in range(5):
            actions = team.act(obs, epsilon=1.0)
            for agent, action in actions.items():
                assert env.action_spaces[agent].contains(
                    np.clip(action, env.action_spaces[agent].low, env.action_spaces[agent].high)
                )
            obs, _, dones, _ = env.step(actions)
            if dones["__all__"]:
                break

    def test_option_transitions_stored(self):
        env = CooperativeLaneChangeEnv(scenario=small_scenario())
        team = make_team(env)
        obs = env.reset(seed=0)
        team.start_episode()
        done = False
        while not done:
            actions = team.act(obs, epsilon=0.5)
            obs, rewards, dones, _ = env.step(actions)
            team.after_step(obs, rewards, dones)
            done = dones["__all__"]
        stored = sum(
            len(agent.high_level.buffer) for agent in team.agents.values()
        )
        assert stored > 0

    def test_opponent_history_recorded(self):
        env = CooperativeLaneChangeEnv(scenario=small_scenario())
        team = make_team(env)
        obs = env.reset(seed=0)
        team.start_episode()
        actions = team.act(obs)
        obs, rewards, dones, _ = env.step(actions)
        team.after_step(obs, rewards, dones)
        for agent in team.agents.values():
            assert len(agent.high_level.opponent_model.history) == 1

    def test_lane_change_attempts_counted(self):
        env = CooperativeLaneChangeEnv(scenario=small_scenario())
        team = make_team(env)
        obs = env.reset(seed=0)
        team.start_episode()
        # Force every agent onto the lane-change option.
        for agent in team.agents.values():
            agent.high_level.actor.trunk.net[-2].bias.data[:] = 0.0
            agent.high_level.actor.trunk.net[-2].bias.data[LANE_CHANGE] = 50.0
        team.act(obs, epsilon=0.0)
        attempts, _ = team.lane_change_stats()
        assert attempts == len(env.agents)

    def test_update_after_data_returns_losses(self):
        env = CooperativeLaneChangeEnv(scenario=small_scenario())
        team = make_team(env, batch_size=8)
        for episode in range(4):
            obs = env.reset(seed=episode)
            team.start_episode()
            done = False
            while not done:
                actions = team.act(obs, epsilon=0.5)
                obs, rewards, dones, _ = env.step(actions)
                team.after_step(obs, rewards, dones)
                done = dones["__all__"]
        losses = team.update()
        assert any("critic_loss" in key for key in losses)

    def test_keep_lane_coasts_with_centering(self):
        env = CooperativeLaneChangeEnv(scenario=small_scenario())
        team = make_team(env)
        obs = env.reset(seed=0)
        team.start_episode()
        agent = team.agents[env.agents[0]]
        # Force keep-lane.
        agent.high_level.actor.trunk.net[-2].bias.data[:] = 0.0
        agent.high_level.actor.trunk.net[-2].bias.data[0] = 50.0
        action = agent.act(
            obs[env.agents[0]],
            env.vehicle(env.agents[0]),
            np.array([0, 0]),
            explore=False,
        )
        assert action[0] == pytest.approx(env.scenario.initial_speed)


class TestTrainHero:
    def test_training_runs_and_logs(self):
        config = TrainingConfig(seed=0)
        config.scenario = small_scenario()
        env = CooperativeLaneChangeEnv(scenario=config.scenario)
        team = make_team(env)
        logger = train_hero(env, team, episodes=3, config=config)
        assert len(logger.values("hero/episode_reward")) == 3
        assert "hero/collision_rate" in logger.names()

    def test_two_stage_training(self):
        config = TrainingConfig(seed=0)
        config.scenario = small_scenario()
        skills, logger = train_low_level_skills(config, episodes=2)
        assert "lane_keeping/episode_reward" in logger.names()
        assert "lane_change/episode_reward" in logger.names()

    def test_evaluate_hero_metrics(self):
        config = TrainingConfig(seed=0)
        config.scenario = small_scenario()
        env = CooperativeLaneChangeEnv(scenario=config.scenario)
        team = make_team(env)
        metrics = evaluate_hero(env, team, episodes=2)
        assert set(metrics) == {
            "episode_reward",
            "collision_rate",
            "success_rate",
            "mean_speed",
        }

    def test_evaluate_on_testbed_wrapper(self):
        config = TrainingConfig(seed=0)
        config.scenario = small_scenario()
        env = CooperativeLaneChangeEnv(scenario=config.scenario)
        team = make_team(env)
        testbed = RealWorldTestbed(env, seed=0)
        metrics = evaluate_hero(testbed, team, episodes=2)
        assert 0.0 <= metrics["collision_rate"] <= 1.0


class TestDistributedHero:
    def test_training_with_observation_service(self):
        config = TrainingConfig(seed=0)
        config.scenario = small_scenario()
        env = CooperativeLaneChangeEnv(scenario=config.scenario)
        service = DistributedObservationService(
            env.agents, latency_steps=1, drop_probability=0.1, seed=0
        )
        team = make_team(env, observation_service=service)
        logger = train_hero(env, team, episodes=3, config=config)
        assert len(logger.values("hero/episode_reward")) == 3
        assert service.bus.stats()["sent"] > 0

    def test_observed_options_come_from_bus(self):
        config = TrainingConfig(seed=0)
        config.scenario = small_scenario()
        env = CooperativeLaneChangeEnv(scenario=config.scenario)
        service = DistributedObservationService(env.agents, latency_steps=0, seed=0)
        team = make_team(env, observation_service=service)
        obs = env.reset(seed=0)
        team.start_episode()
        # Before any exchange: defaults (keep_lane).
        np.testing.assert_array_equal(
            team._options_of_others(env.agents[0]), [0, 0]
        )
        team.act(obs)
        team.exchange_observations(obs, timestamp=0)
        observed = team._options_of_others(env.agents[0])
        expected = np.array(
            [
                team.agents[a].current_option
                for a in env.agents
                if a != env.agents[0]
            ]
        )
        np.testing.assert_array_equal(observed, expected)


class TestSoloSanity:
    def test_single_agent_hero_learns_to_escape(self):
        """At single-agent scale HERO must learn the merge quickly — this is
        the end-to-end learning sanity check."""
        from repro.experiments.common import train_hero_method

        scenario = ScenarioConfig(num_learning_vehicles=1, episode_length=20)
        trained = train_hero_method(
            scenario,
            RewardConfig(),
            episodes=120,
            skill_episodes=100,
            seed=0,
            batch_size=64,
            updates_per_episode=2,
            lr=3e-3,
        )
        rewards = trained.logger.values("hero/episode_reward")
        collisions = trained.logger.values("hero/collision_rate")
        assert rewards[-30:].mean() > rewards[:30].mean()
        assert collisions[-30:].mean() < 0.5
