"""Integration tests for the composed HERO agent/team and trainers."""

import numpy as np
import pytest

from repro.config import RewardConfig, ScenarioConfig, TrainingConfig
from repro.core import (
    BatchedHeroRunner,
    HeroTeam,
    LANE_CHANGE,
    UpdateEngine,
    train_hero,
    train_low_level_skills,
)
from repro.core.trainer import evaluate_hero, evaluate_hero_vectorized
from repro.distributed import DistributedObservationService
from repro.envs import CooperativeLaneChangeEnv, RealWorldTestbed, VectorEnv
from repro.experiments.common import bench_scenario


def small_scenario(**overrides):
    defaults = dict(episode_length=8)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def make_team(env, seed=0, **kwargs):
    defaults = dict(batch_size=16)
    defaults.update(kwargs)
    return HeroTeam(env, np.random.default_rng(seed), **defaults)


def one_env(seed=0, **team_kwargs):
    """A team acting through a one-env runner (the N=1 training batch)."""
    scenario = small_scenario()
    team = make_team(CooperativeLaneChangeEnv(scenario=scenario), seed, **team_kwargs)
    vec = VectorEnv(1, scenario=scenario)
    return vec, team, BatchedHeroRunner(team, vec)


def run_episode(vec, runner, epsilon=0.5, reset_seed=0):
    obs = vec.reset(reset_seed)
    runner.start_all()
    while True:
        obs, rewards, dones, infos = vec.step(runner.act(obs, epsilon=epsilon))
        _, experience = runner.after_step(obs, rewards, dones, infos)
        runner.team.store(experience)
        if dones[0]:
            return


class TestHeroTeam:
    def test_act_returns_action_per_agent(self):
        vec, team, runner = one_env()
        actions = runner.act(vec.reset(0))
        assert actions.shape == (1, len(team.env.agents), 2)

    def test_actions_within_env_bounds(self):
        vec, team, runner = one_env()
        obs = vec.reset(0)
        space = team.env.action_spaces[team.env.agents[0]]
        for _ in range(5):
            actions = runner.act(obs, epsilon=1.0)
            for action in actions[0]:
                assert space.contains(np.clip(action, space.low, space.high))
            obs, rewards, dones, infos = vec.step(actions)
            runner.after_step(obs, rewards, dones, infos)

    def test_option_transitions_stored(self):
        vec, team, runner = one_env()
        run_episode(vec, runner)
        stored = sum(len(agent.high_level.buffer) for agent in team.agents.values())
        assert stored > 0

    def test_opponent_history_recorded(self):
        vec, team, runner = one_env()
        obs, rewards, dones, infos = vec.step(runner.act(vec.reset(0)))
        team.store(runner.after_step(obs, rewards, dones, infos)[1])
        for agent in team.agents.values():
            assert len(agent.high_level.opponent_model.history) == 1

    def test_lane_change_attempts_counted(self):
        vec, team, runner = one_env()
        # Force every agent onto the lane-change option.
        for agent in team.agents.values():
            agent.high_level.actor.trunk.net[-2].bias.data[:] = 0.0
            agent.high_level.actor.trunk.net[-2].bias.data[LANE_CHANGE] = 50.0
        runner.act(vec.reset(0), epsilon=0.0)
        assert runner.lane_change_attempts[0] == len(team.env.agents)

    def test_update_after_data_returns_losses(self):
        vec, team, runner = one_env(batch_size=8)
        for episode in range(4):
            run_episode(vec, runner, reset_seed=episode)
        losses = UpdateEngine(team).update()
        assert any("critic_loss" in key for key in losses)

    def test_keep_lane_coasts_with_centering(self):
        vec, team, runner = one_env()
        agent = team.agents[team.env.agents[0]]
        # Force keep-lane.
        agent.high_level.actor.trunk.net[-2].bias.data[:] = 0.0
        agent.high_level.actor.trunk.net[-2].bias.data[0] = 50.0
        actions = runner.act(vec.reset(0), explore=False)
        assert actions[0, 0, 0] == pytest.approx(team.env.scenario.initial_speed)
        assert abs(actions[0, 0, 1]) <= 0.1  # lane-centering steer


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

    def test_evaluate_steers_from_the_env_it_steps(self):
        """Any scalar env of the scenario evaluates like a one-env batch:
        the steering controllers read the evaluated env's poses, not the
        team's template env."""
        scenario = bench_scenario()
        team = make_team(CooperativeLaneChangeEnv(scenario=scenario), batch_size=128)
        team.env.reset(seed=0)  # the template env holds poses of its own
        other = CooperativeLaneChangeEnv(scenario=scenario)
        metrics = evaluate_hero(other, team, episodes=10, seed=3)
        assert metrics == evaluate_hero_vectorized(
            VectorEnv(1, scenario=scenario), team, episodes=10, seed=3
        )


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
        assert service.stats()["sent"] > 0

    @pytest.mark.parametrize("num_envs", [1, 4])
    def test_dtde_trains_at_any_num_envs(self, num_envs):
        config = TrainingConfig(seed=0)
        config.scenario = small_scenario()
        env = CooperativeLaneChangeEnv(scenario=config.scenario)
        service = DistributedObservationService(
            env.agents, latency_steps=2, drop_probability=0.2, seed=0
        )
        team = make_team(env, batch_size=8, observation_service=service)
        logger = train_hero(
            env, team, episodes=6, config=config, num_envs=num_envs,
            eval_every=3, eval_episodes=1,
        )
        assert len(logger.values("hero/episode_reward")) == 6
        stats = service.stats()
        # Every step of every env broadcasts 3 agents x 2 peers messages.
        assert stats["sent"] > 0 and stats["sent"] % (num_envs * 6) == 0
        assert stats["dropped"] > 0 and stats["delivered"] > 0
        assert stats["sent"] == stats["dropped"] + stats["delivered"] + stats["in_flight"]

    def test_observed_options_come_from_bus(self):
        env = CooperativeLaneChangeEnv(scenario=small_scenario())
        service = DistributedObservationService(env.agents, latency_steps=0, seed=0)
        team = make_team(env, observation_service=service)
        vec = VectorEnv(1, scenario=env.scenario)
        runner = BatchedHeroRunner(team, vec)
        # Before any exchange: defaults (keep_lane).
        np.testing.assert_array_equal(service.observed_options(1)[0, 0], [0, 0])
        obs, rewards, dones, infos = vec.step(runner.act(vec.reset(0)))
        executed = runner._option[0].copy()
        team.store(runner.after_step(obs, rewards, dones, infos)[1])
        np.testing.assert_array_equal(service.observed_options(1)[0, 0], executed[1:])
        history = team.agents[env.agents[0]].high_level.opponent_model.history
        np.testing.assert_array_equal(history.options[0], executed[1:])

    def test_async_actors_reject_observation_service(self, monkeypatch):
        from repro.distributed import actor_learner

        def no_actor(*args, **kwargs):
            raise AssertionError("an actor was started")

        monkeypatch.setattr(actor_learner, "_start_actors", no_actor)
        config = TrainingConfig(seed=0)
        config.scenario = small_scenario()
        env = CooperativeLaneChangeEnv(scenario=config.scenario)
        service = DistributedObservationService(env.agents, seed=0)
        team = make_team(env, observation_service=service)
        with pytest.raises(ValueError, match="DistributedObservationService"):
            train_hero(env, team, episodes=2, config=config, async_actors=True)
        assert service.stats()["sent"] == 0


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
