"""Tests for the four MARL baselines and their shared training loop.

Every gradient step runs through ``UpdateEngine`` (the fused engines for
IDQN, MADDPG and MAAC; COMA's own update behind the delegating engine).
"""

import numpy as np
import pytest

from repro.baselines import (
    BASELINES,
    evaluate_marl,
    make_baseline,
    train_marl_vectorized,
)
from repro.baselines.maac import MAAC
from repro.config import ScenarioConfig
from repro.core import UpdateEngine
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
        env = small_vector_env()
        algo = make(name, env)
        obs = env.reset(0)
        actions = algo.act_batch(obs)
        assert actions.shape == (1, len(env.agents))
        assert np.all((0 <= actions) & (actions < env.num_actions))

    @pytest.mark.parametrize("name", ALL)
    def test_greedy_act_deterministic(self, name):
        env = small_vector_env()
        algo = make(name, env)
        if hasattr(algo, "epsilon"):
            algo.epsilon = 0.0
        obs = env.reset(0)
        a1 = algo.act_batch(obs, explore=False)
        a2 = algo.act_batch(obs, explore=False)
        np.testing.assert_array_equal(a1, a2)

    @pytest.mark.parametrize("name", OFF_POLICY)
    def test_update_requires_data(self, name):
        env = small_env()
        algo = make(name, env, batch_size=16)
        assert UpdateEngine(algo).update() is None

    def test_coma_update_requires_episode(self):
        env = small_env()
        algo = make("coma", env)
        assert UpdateEngine(algo).update() is None


def _collect_experience(env, algo, episodes=3, seed=0):
    """Step a one-env batch through ``episodes`` seeded episodes."""
    rng = np.random.default_rng(seed)
    for episode in range(episodes):
        obs = env.reset([int(rng.integers(0, 2**31 - 1))])
        done = False
        while not done:
            actions = algo.act_batch(obs)
            next_obs, rewards, dones, infos = env.step(actions)
            done = bool(dones[0])
            if done:
                next_obs = infos[0]["terminal_observation"][None]
            algo.observe_batch(obs, actions, rewards, next_obs, dones)
            obs = next_obs


class TestUpdates:
    @pytest.mark.parametrize("name", ALL)
    def test_update_returns_finite_losses(self, name):
        env = small_vector_env()
        kwargs = {"batch_size": 16} if name in OFF_POLICY else {}
        algo = make(name, env, **kwargs)
        _collect_experience(env, algo)
        losses = UpdateEngine(algo).update()
        assert losses is not None
        for key, value in losses.items():
            assert np.isfinite(value), f"{key} not finite"

    def test_idqn_double_q_flag(self):
        env = small_vector_env()
        algo = make("idqn", env, batch_size=16, double_q=False)
        _collect_experience(env, algo)
        assert UpdateEngine(algo).update() is not None

    def test_idqn_learns_simple_preference(self):
        """Reward action 4 regardless of state -> Q(a=4) should dominate.

        The team reward is shared, so every agent takes the row's action
        and sees the reward its own action earns."""
        env = small_vector_env()
        algo = make("idqn", env, batch_size=32, lr=1e-2)
        algo.epsilon = 0.0
        update = UpdateEngine(algo).update
        rng = np.random.default_rng(0)
        obs = rng.standard_normal((1, algo.num_agents, algo.obs_dim))
        for _ in range(200):
            action = int(rng.integers(0, 9))
            actions = np.full((1, algo.num_agents), action)
            rewards = np.array([1.0 if action == 4 else 0.0])
            algo.observe_batch(obs, actions, rewards, obs, np.array([True]))
            update()
        greedy = algo.act_batch(obs, explore=False)
        assert np.all(greedy == 4)

    def test_maddpg_target_nets_move(self):
        env = small_vector_env()
        algo = make("maddpg", env, batch_size=16)
        before = algo.target_critics[0].net[0].weight.data.copy()
        _collect_experience(env, algo)
        engine = UpdateEngine(algo)
        for _ in range(5):
            engine.update()
        after = algo.target_critics[0].net[0].weight.data
        assert not np.allclose(before, after)

    def test_coma_counterfactual_baseline_shape(self):
        env = small_vector_env()
        algo = make("coma", env)
        _collect_experience(env, algo, episodes=2)
        losses = UpdateEngine(algo).update()
        assert "critic_loss" in losses and "actor_loss" in losses

    def test_coma_bounded_pending_episodes(self):
        env = small_vector_env()
        algo = make("coma", env, max_episodes_per_update=2)
        _collect_experience(env, algo, episodes=5)
        assert len(algo._pending_episodes) <= 3


def attention_q_rows(num_agents, obs, actions):
    """A fresh MAAC critic's per-agent Q rows, ``(batch, agents, actions)``,
    from the engine's critic forward (the critic's only pass)."""
    algo = MAAC(
        [f"a{i}" for i in range(num_agents)], obs.shape[-1], 4,
        np.random.default_rng(0),
    )
    rows, _ = UpdateEngine(algo)._impl._critic_forward(
        obs, np.concatenate([obs, np.eye(4)[actions]], axis=-1)
    )
    return rows


class TestAttentionCritic:
    def test_q_rows_shape(self):
        obs = np.zeros((7, 3, 5))
        actions = np.zeros((7, 3), dtype=np.int64)
        assert attention_q_rows(3, obs, actions).shape == (7, 3, 4)

    def test_other_agents_actions_influence_q(self):
        obs = np.random.default_rng(1).standard_normal((1, 2, 3))
        q_a = attention_q_rows(2, obs, np.array([[0, 0]]))[:, 0]
        q_b = attention_q_rows(2, obs, np.array([[0, 3]]))[:, 0]  # other agent
        assert not np.allclose(q_a, q_b)

    def test_own_action_does_not_influence_own_q_row(self):
        """Agent i's Q row marginalises its own action (per-action output)."""
        obs = np.random.default_rng(1).standard_normal((1, 2, 3))
        q_a = attention_q_rows(2, obs, np.array([[0, 2]]))[:, 0]
        q_b = attention_q_rows(2, obs, np.array([[3, 2]]))[:, 0]
        np.testing.assert_allclose(q_a, q_b)

    def test_mask_blocks_self_attention(self):
        """Agent i attends over the other agents only: its own state-action
        encoding (its key and value) never reaches its Q row, while every
        other agent's row reads it."""
        algo = MAAC(["a0", "a1", "a2"], 3, 4, np.random.default_rng(0))
        forward = UpdateEngine(algo)._impl._critic_forward
        fill = np.random.default_rng(1)
        obs = fill.standard_normal((5, 3, 3))
        sa_in = fill.standard_normal((5, 3, 7))
        moved = sa_in.copy()
        moved[:, 0] = fill.standard_normal((5, 7))
        rows = forward(obs, sa_in)[0].copy()
        rows_moved = forward(obs, moved)[0]
        np.testing.assert_array_equal(rows[:, 0], rows_moved[:, 0])
        for i in (1, 2):
            assert not np.allclose(rows[:, i], rows_moved[:, i])

    def test_update_moves_every_attention_parameter(self):
        """The engine's closed-form attention VJP reaches every head's
        query, key and value projection and the output projection."""
        env = small_vector_env()
        algo = make("maac", env, batch_size=16)
        _collect_experience(env, algo)
        params = algo.critic.attention.parameters()
        assert len(params) == 2 * 3 + 2
        before = [param.data.copy() for param in params]
        assert UpdateEngine(algo).update() is not None
        for index, (param, old) in enumerate(zip(params, before)):
            assert not np.array_equal(param.data, old), index


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
