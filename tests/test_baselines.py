"""Tests for the four MARL baselines and their shared training loop."""

import numpy as np
import pytest

from repro.baselines import (
    BASELINES,
    evaluate_marl,
    make_baseline,
    train_marl_vectorized,
)
from repro.baselines.maac import AttentionCritic
from repro.config import ScenarioConfig
from repro.envs import make_baseline_env, make_baseline_vector_env


def small_env():
    return make_baseline_env(scenario=ScenarioConfig(episode_length=6))


def small_vector_env():
    """The one-env batch the training loop steps (``--num-envs 1``)."""
    return make_baseline_vector_env(1, scenario=ScenarioConfig(episode_length=6))


def make(name, env, **kwargs):
    return make_baseline(name, env, seed=0, **kwargs)


OFF_POLICY = ["idqn", "maddpg", "maac"]
ALL = ["idqn", "maddpg", "maac", "coma"]


class TestRegistry:
    def test_all_baselines_registered(self):
        assert set(BASELINES) == {"idqn", "coma", "maddpg", "maac"}

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError):
            make_baseline("qmix", small_env())

    def test_instantiation_matches_env(self):
        env = small_env()
        for name in ALL:
            algo = make(name, env)
            assert algo.num_agents == len(env.agents)
            assert algo.num_actions == env.num_actions


class TestActObserve:
    @pytest.mark.parametrize("name", ALL)
    def test_act_returns_valid_actions(self, name):
        env = small_env()
        algo = make(name, env)
        obs = env.reset(seed=0)
        actions = algo.act(obs)
        assert set(actions) == set(env.agents)
        for action in actions.values():
            assert 0 <= action < env.num_actions

    @pytest.mark.parametrize("name", ALL)
    def test_greedy_act_deterministic(self, name):
        env = small_env()
        algo = make(name, env)
        if hasattr(algo, "epsilon"):
            algo.epsilon = 0.0
        obs = env.reset(seed=0)
        a1 = algo.act(obs, explore=False)
        a2 = algo.act(obs, explore=False)
        assert a1 == a2

    @pytest.mark.parametrize("name", OFF_POLICY)
    def test_update_requires_data(self, name):
        env = small_env()
        algo = make(name, env, batch_size=16)
        assert algo.update() is None

    def test_coma_update_requires_episode(self):
        env = small_env()
        algo = make("coma", env)
        assert algo.update() is None


def _collect_experience(env, algo, episodes=3, seed=0):
    rng = np.random.default_rng(seed)
    for episode in range(episodes):
        obs = env.reset(seed=int(rng.integers(0, 2**31 - 1)))
        done = False
        while not done:
            actions = algo.act(obs)
            next_obs, rewards, dones, _ = env.step(actions)
            algo.observe(obs, actions, rewards, next_obs, dones)
            obs = next_obs
            done = dones["__all__"]
        algo.end_episode()


class TestUpdates:
    @pytest.mark.parametrize("name", ALL)
    def test_update_returns_finite_losses(self, name):
        env = small_env()
        kwargs = {"batch_size": 16} if name in OFF_POLICY else {}
        algo = make(name, env, **kwargs)
        _collect_experience(env, algo)
        losses = algo.update()
        assert losses is not None
        for key, value in losses.items():
            assert np.isfinite(value), f"{key} not finite"

    def test_idqn_double_q_flag(self):
        env = small_env()
        algo = make("idqn", env, batch_size=16, double_q=False)
        _collect_experience(env, algo)
        assert algo.update() is not None

    def test_idqn_learns_simple_preference(self):
        """Reward action 4 regardless of state -> Q(a=4) should dominate."""
        env = small_env()
        algo = make("idqn", env, batch_size=32, lr=1e-2)
        algo.epsilon = 0.0
        rng = np.random.default_rng(0)
        obs = {a: rng.standard_normal(algo.obs_dim) for a in algo.agent_ids}
        for _ in range(200):
            actions = {a: int(rng.integers(0, 9)) for a in algo.agent_ids}
            rewards = {a: 1.0 if actions[a] == 4 else 0.0 for a in algo.agent_ids}
            algo.observe(obs, actions, rewards, obs, {a: True for a in algo.agent_ids})
            algo.update()
        greedy = algo.act(obs, explore=False)
        assert all(action == 4 for action in greedy.values())

    def test_maddpg_target_nets_move(self):
        env = small_env()
        algo = make("maddpg", env, batch_size=16)
        before = algo.target_critics[0].net[0].weight.data.copy()
        _collect_experience(env, algo)
        for _ in range(5):
            algo.update()
        after = algo.target_critics[0].net[0].weight.data
        assert not np.allclose(before, after)

    def test_coma_counterfactual_baseline_shape(self):
        env = small_env()
        algo = make("coma", env)
        _collect_experience(env, algo, episodes=2)
        losses = algo.update()
        assert "critic_loss" in losses and "actor_loss" in losses

    def test_coma_bounded_pending_episodes(self):
        env = small_env()
        algo = make("coma", env, max_episodes_per_update=2)
        _collect_experience(env, algo, episodes=5)
        assert len(algo._pending_episodes) <= 3


class TestAttentionCritic:
    def test_q_rows_shape(self):
        critic = AttentionCritic(
            num_agents=3, obs_dim=5, num_actions=4, rng=np.random.default_rng(0)
        )
        obs = np.zeros((7, 3, 5))
        actions = np.zeros((7, 3), dtype=np.int64)
        rows = critic(obs, actions)
        assert len(rows) == 3
        assert all(row.shape == (7, 4) for row in rows)

    def test_other_agents_actions_influence_q(self):
        critic = AttentionCritic(
            num_agents=2, obs_dim=3, num_actions=4, rng=np.random.default_rng(0)
        )
        obs = np.random.default_rng(1).standard_normal((1, 2, 3))
        actions_a = np.array([[0, 0]])
        actions_b = np.array([[0, 3]])  # other agent changes action
        q_a = critic(obs, actions_a)[0].data
        q_b = critic(obs, actions_b)[0].data
        assert not np.allclose(q_a, q_b)

    def test_own_action_does_not_influence_own_q_row(self):
        """Agent i's Q row marginalises its own action (per-action output)."""
        critic = AttentionCritic(
            num_agents=2, obs_dim=3, num_actions=4, rng=np.random.default_rng(0)
        )
        obs = np.random.default_rng(1).standard_normal((1, 2, 3))
        q_a = critic(obs, np.array([[0, 2]]))[0].data
        q_b = critic(obs, np.array([[3, 2]]))[0].data
        np.testing.assert_allclose(q_a, q_b)


class TestTrainEvaluate:
    @pytest.mark.parametrize("name", ALL)
    def test_train_marl_records_metrics(self, name):
        env = small_vector_env()
        kwargs = {"batch_size": 16} if name in OFF_POLICY else {}
        algo = make(name, env, **kwargs)
        logger = train_marl_vectorized(env, algo, episodes=3, seed=0)
        assert len(logger.values(f"{name}/episode_reward")) == 3
        assert f"{name}/collision_rate" in logger.names()

    def test_evaluate_marl_metric_ranges(self):
        env = small_env()
        algo = make("idqn", env, batch_size=16)
        metrics = evaluate_marl(env, algo, episodes=2, seed=0)
        assert 0.0 <= metrics["collision_rate"] <= 1.0
        assert 0.0 <= metrics["success_rate"] <= 1.0
        assert metrics["mean_speed"] >= 0.0

    def test_epsilon_annealed_into_idqn(self):
        env = small_vector_env()
        algo = make("idqn", env, batch_size=16)
        train_marl_vectorized(env, algo, episodes=4, seed=0, epsilon_start=0.9,
                              epsilon_end=0.1, epsilon_decay_episodes=4)
        assert algo.epsilon < 0.9
