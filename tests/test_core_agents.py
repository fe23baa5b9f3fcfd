"""Tests for the SAC low-level agent, opponent model and high-level agent.

Learning is exercised through the fused engines, the only update path: a
lone high-level agent steps through a one-agent
:class:`~repro.core.update_engine.HeroTeamUpdateEngine`, and an opponent
model through such an agent's engine.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import PaperHyperparameters, ScenarioConfig
from repro.core import (
    ACCELERATE,
    BatchedHeroRunner,
    HeroTeam,
    HighLevelAgent,
    LANE_CHANGE,
    KEEP_LANE,
    OpponentModel,
    SACAgent,
    SLOW_DOWN,
    SkillLibrary,
    UpdateEngine,
    train_skill,
)
from repro.core.hero import HeroAgent
from repro.core.update_engine import HeroTeamUpdateEngine
from repro.envs import CooperativeLaneChangeEnv, LaneKeepingEnv, VectorEnv
from repro.nn.tensor import default_dtype
from repro.training.replay import OptionTransition


def one_env_runner(seed=0):
    """A team acting through a one-env runner (the N=1 batch)."""
    scenario = ScenarioConfig(episode_length=8)
    team = HeroTeam(CooperativeLaneChangeEnv(scenario=scenario), np.random.default_rng(seed))
    vec = VectorEnv(1, scenario=scenario)
    return vec, team, BatchedHeroRunner(team, vec)


def executed_actions(option, steps=10):
    """Every agent's executed actions with all agents forced onto
    ``option`` (exploring skills; one selection, ``steps`` acts)."""
    vec, team, runner = one_env_runner()
    for agent in team.agents.values():
        bias = agent.high_level.actor.trunk.net[-2].bias.data
        bias[:] = 0.0
        bias[option] = 50.0
    obs = vec.reset(0)
    actions = np.concatenate([runner.act(obs, epsilon=0.0)[0] for _ in range(steps)])
    assert (runner._option == option).all()
    return actions


def greedy_option(agent, obs):
    """The option a high-level agent's actor ranks first in state ``obs``,
    with its opponent model's predictions as the opponent input."""
    obs = np.asarray(obs)[None]
    rep = agent.opponent_model.predict_probs_batch(obs).reshape(1, -1)
    actor_in = np.concatenate([obs, rep], axis=-1)
    return int(agent.actor.logits_inference(actor_in)[0].argmax())


def high_level_step(high):
    """The update of a lone high-level agent: one fused step per call,
    losses without the agent prefix, None while its buffer is too small."""
    engine = HeroTeamUpdateEngine(SimpleNamespace(agents={"a": HeroAgent("a", high)}))

    def update():
        return {key[2:]: value for key, value in engine.update().items()} or None

    return update


def opponent_step(model):
    """The update of ``model`` as a lone agent's opponent model: the
    opponent losses of one fused step, None when there are none.  The
    engine steps the predictors of agents whose replay is eligible, so the
    agent's buffer holds the minimum eligible rows."""
    high = HighLevelAgent(
        model.obs_dim, model.num_options, model.num_opponents,
        np.random.default_rng(0), batch_size=32,
    )
    high.opponent_model = model
    fill = np.random.default_rng(0)
    for _ in range(8):
        high.store_transition(
            OptionTransition(
                fill.standard_normal(model.obs_dim), 0,
                np.zeros(max(model.num_opponents, 1), dtype=np.int64),
                0.0, fill.standard_normal(model.obs_dim), False, 1,
            )
        )
    step = high_level_step(high)

    def update():
        losses = step() or {}
        return {k: v for k, v in losses.items() if k.startswith("opponent_")} or None

    return update


def make_sac(obs_dim=4, **kwargs):
    defaults = dict(
        obs_dim=obs_dim,
        action_dim=2,
        rng=np.random.default_rng(0),
        action_low=np.array([0.0, -0.2]),
        action_high=np.array([0.2, 0.2]),
        batch_size=16,
        buffer_capacity=500,
    )
    defaults.update(kwargs)
    return SACAgent(**defaults)


class TestSACAgent:
    def test_act_within_bounds(self):
        agent = make_sac()
        for _ in range(20):
            action = agent.act(np.zeros(4))
            assert 0.0 <= action[0] <= 0.2
            assert -0.2 <= action[1] <= 0.2

    def test_deterministic_act(self):
        agent = make_sac()
        a1 = agent.act(np.ones(4), deterministic=True)
        a2 = agent.act(np.ones(4), deterministic=True)
        np.testing.assert_array_equal(a1, a2)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_act_equals_taped_sample_bitwise(self, dtype):
        """act's no-graph path draws and computes exactly what the taped
        actor.sample / actor.deterministic do, from the same RNG state."""
        with default_dtype(dtype):
            agent = make_sac(obs_dim=11)
            rng = np.random.default_rng(5)
            for _ in range(200):
                obs = rng.standard_normal(11) * 2.0
                state = agent._rng.bit_generator.state
                action = agent.act(obs)
                after = agent._rng.bit_generator.state
                agent._rng.bit_generator.state = state
                taped, _ = agent.actor.sample(obs.astype(dtype)[None], agent._rng)
                assert agent._rng.bit_generator.state == after
                assert action.dtype == taped.data.dtype == dtype
                assert action.tobytes() == taped.data[0].tobytes()
                mean = agent.act(obs, deterministic=True)
                taped_mean = agent.actor.deterministic(obs.astype(dtype)[None])[0]
                assert mean.tobytes() == taped_mean.tobytes()

    def test_update_requires_data(self):
        agent = make_sac()
        assert UpdateEngine(agent).update() is None

    def test_update_returns_losses(self):
        agent = make_sac()
        rng = np.random.default_rng(1)
        for _ in range(40):
            agent.observe(
                rng.standard_normal(4), rng.uniform(-0.1, 0.1, 2),
                rng.uniform(-1, 1), rng.standard_normal(4), False,
            )
        losses = UpdateEngine(agent).update()
        assert set(losses) == {"critic_loss", "actor_loss", "alpha", "entropy"}
        assert np.isfinite(losses["critic_loss"])

    def test_alpha_autotune_moves(self):
        agent = make_sac(auto_alpha=True)
        rng = np.random.default_rng(2)
        for _ in range(40):
            agent.observe(
                rng.standard_normal(4), rng.uniform(-0.1, 0.1, 2),
                0.0, rng.standard_normal(4), False,
            )
        before = agent.alpha
        engine = UpdateEngine(agent)
        for _ in range(10):
            engine.update()
        assert agent.alpha != before

    def test_state_dict_roundtrip(self):
        a1, a2 = make_sac(), make_sac(rng=np.random.default_rng(9))
        a2.load_state_dict(a1.state_dict())
        obs = np.ones(4)
        np.testing.assert_allclose(
            a1.act(obs, deterministic=True), a2.act(obs, deterministic=True)
        )

    def test_learns_simple_control(self):
        """SAC should learn to prefer high-reward actions on a bandit-like
        problem: reward = -|action[0] - 0.15|."""
        agent = make_sac(lr=1e-2, batch_size=32)
        engine = UpdateEngine(agent)
        obs = np.zeros(4)
        for _ in range(300):
            action = agent.act(obs)
            reward = -abs(action[0] - 0.15) * 10
            agent.observe(obs, action, reward, obs, True)
            engine.update()
        final = agent.act(obs, deterministic=True)
        assert abs(final[0] - 0.15) < 0.05


class TestTrainSkill:
    def test_skill_training_improves_lane_keeping(self):
        env = LaneKeepingEnv(max_steps=10)
        agent = make_sac(obs_dim=env.observation_space.dim,
                         action_low=env.action_space.low,
                         action_high=env.action_space.high,
                         lr=3e-3, batch_size=64)
        logger = train_skill(env, agent, episodes=40, seed=0)
        rewards = logger.values("skill/episode_reward")
        early = rewards[:10].mean()
        late = rewards[-10:].mean()
        assert late > early, f"no improvement: early={early:.3f} late={late:.3f}"

    def test_logger_records_losses(self):
        env = LaneKeepingEnv(max_steps=5)
        agent = make_sac(obs_dim=env.observation_space.dim,
                         action_low=env.action_space.low,
                         action_high=env.action_space.high, batch_size=8)
        logger = train_skill(env, agent, episodes=5, seed=0, warmup_steps=4)
        assert "skill/critic_loss" in logger.names()


class TestSkillLibrary:
    """Skills as the runner executes them: clipped to each option's bounds."""

    def test_keep_lane_returns_none(self):
        skills = SkillLibrary(obs_dim=6, rng=np.random.default_rng(0))
        assert skills.skill_for(KEEP_LANE) is None  # the coast rule drives

    def test_slow_down_respects_bounds(self):
        actions = executed_actions(SLOW_DOWN)
        assert np.all((0.04 <= actions[:, 0]) & (actions[:, 0] <= 0.08))
        assert np.all(np.abs(actions[:, 1]) <= 0.1)

    def test_accelerate_respects_bounds(self):
        actions = executed_actions(ACCELERATE)
        assert np.all((0.08 <= actions[:, 0]) & (actions[:, 0] <= 0.14))

    def test_lane_change_angular_magnitude(self):
        # At reset every vehicle is straight in its lane, so the merge
        # controller always steers (a non-zero sign).
        actions = executed_actions(LANE_CHANGE)
        assert np.all((0.10 <= actions[:, 0]) & (actions[:, 0] <= 0.20))
        assert np.all((0.12 <= np.abs(actions[:, 1])) & (np.abs(actions[:, 1]) <= 0.25))

    def test_shared_skill_for_in_lane_options(self):
        skills = SkillLibrary(obs_dim=6, rng=np.random.default_rng(0))
        assert skills.skill_for(SLOW_DOWN) is skills.skill_for(ACCELERATE)
        assert skills.skill_for(LANE_CHANGE) is skills.lane_change

    def test_state_dict_roundtrip(self):
        s1 = SkillLibrary(obs_dim=6, rng=np.random.default_rng(0))
        s2 = SkillLibrary(obs_dim=6, rng=np.random.default_rng(5))
        s2.load_state_dict(s1.state_dict())
        obs = np.ones(6)
        np.testing.assert_allclose(
            s1.lane_change.act(obs, deterministic=True),
            s2.lane_change.act(obs, deterministic=True),
        )


class TestOpponentModel:
    def make_model(self, num_opponents=2, **kwargs):
        return OpponentModel(
            obs_dim=4,
            num_options=4,
            num_opponents=num_opponents,
            rng=np.random.default_rng(0),
            batch_size=32,
            **kwargs,
        )

    def test_predict_shape(self):
        model = self.make_model()
        probs = model.predict_probs_batch(np.zeros((1, 4)))[0]
        assert probs.shape == (2, 4)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0)

    def test_batched_probs(self):
        """A batch of observations predicts every row as it would alone."""
        model = self.make_model()
        obs = np.random.default_rng(0).standard_normal((8, 4))
        probs = model.predict_probs_batch(obs)
        assert probs.shape == (8, 2, 4)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-10)
        for row, single in zip(probs, obs):
            np.testing.assert_allclose(
                row, model.predict_probs_batch(single[None])[0], rtol=1e-12
            )

    def test_zero_opponents(self):
        model = self.make_model(num_opponents=0)
        assert model.predict_probs_batch(np.zeros((1, 4))).shape == (1, 0, 4)
        model.record(np.zeros(4), np.array([]))  # no-op
        assert len(model.history) == 0
        assert opponent_step(model)() is None

    def test_record_validates_shape(self):
        model = self.make_model()
        with pytest.raises(ValueError):
            model.record(np.zeros(4), np.array([1, 2, 3]))

    def test_update_requires_history(self):
        model = self.make_model()
        for _ in range(7):
            model.record(np.zeros(4), np.array([1, 2]))
        assert opponent_step(model)() is None

    def test_learns_state_dependent_policy(self):
        """Opponent picks option 0 when obs[0] < 0 else option 3; the model
        should learn this mapping."""
        model = self.make_model(lr=1e-2)
        rng = np.random.default_rng(1)
        for _ in range(400):
            obs = rng.standard_normal(4)
            option = 0 if obs[0] < 0 else 3
            model.record(obs, np.array([option, option]))
        update = opponent_step(model)
        for _ in range(150):
            losses = update()
        assert losses["opponent_0_nll"] < 0.4
        probs = model.predict_probs_batch(np.array([[-2.0, 0, 0, 0], [2.0, 0, 0, 0]]))
        neg, pos = probs.argmax(axis=-1)
        assert neg[0] == 0 and pos[0] == 3

    def test_entropy_regulariser_slows_collapse(self):
        """With a large entropy coefficient predictions stay flatter."""
        rng = np.random.default_rng(2)
        sharp = self.make_model(entropy_coef=0.0, lr=1e-2)
        flat = self.make_model(entropy_coef=2.0, lr=1e-2)
        for _ in range(200):
            obs = rng.standard_normal(4)
            sharp.record(obs, np.array([1, 1]))
            flat.record(obs, np.array([1, 1]))
        sharp_update, flat_update = opponent_step(sharp), opponent_step(flat)
        for _ in range(100):
            sharp_update()
            flat_update()
        obs = np.zeros((1, 4))
        sharp_probs = sharp.predict_probs_batch(obs)[0, 0]
        flat_probs = flat.predict_probs_batch(obs)[0, 0]
        sharp_entropy = -(sharp_probs * np.log(sharp_probs + 1e-12)).sum()
        flat_entropy = -(flat_probs * np.log(flat_probs + 1e-12)).sum()
        assert flat_entropy > sharp_entropy

    def test_state_dict_roundtrip(self):
        m1, m2 = self.make_model(), self.make_model()
        m1.predictors[0].trunk.net[0].weight.data += 0.5
        m2.load_state_dict(m1.state_dict())
        np.testing.assert_allclose(
            m1.predict_probs_batch(np.ones((1, 4))), m2.predict_probs_batch(np.ones((1, 4)))
        )


class TestHighLevelAgent:
    def make_agent(self, **kwargs):
        defaults = dict(
            obs_dim=6,
            num_options=4,
            num_opponents=2,
            rng=np.random.default_rng(0),
            hyper=PaperHyperparameters(),
            batch_size=16,
        )
        defaults.update(kwargs)
        return HighLevelAgent(**defaults)

    def _fill_buffer(self, agent, n=50, seed=0):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            agent.store_transition(
                OptionTransition(
                    obs=rng.standard_normal(6),
                    option=int(rng.integers(0, 4)),
                    other_options=rng.integers(0, 4, size=2),
                    reward=float(rng.uniform(-1, 1)),
                    next_obs=rng.standard_normal(6),
                    done=bool(rng.uniform() < 0.1),
                    steps=int(rng.integers(1, 5)),
                )
            )
            agent.opponent_model.record(rng.standard_normal(6), rng.integers(0, 4, 2))

    @staticmethod
    def runner_picks(draws, available=None, epsilon=0.0, explore=True):
        """Agent 0's options over ``draws`` fresh selections of the runner,
        which selects options for every high-level agent."""
        vec, _, runner = one_env_runner()
        if available is not None:
            runner._available = np.asarray(available)
        obs = vec.reset(0)
        picks = []
        for _ in range(draws):
            runner.start_episode(0)
            runner.act(obs, epsilon=epsilon, explore=explore)
            picks.append(int(runner._option[0, 0]))
        return picks

    def test_chosen_option_in_range(self):
        assert all(0 <= option < 4 for option in self.runner_picks(10))

    def test_select_respects_availability(self):
        picks = self.runner_picks(20, available=[True, False, False, False])
        assert set(picks) == {0}

    def test_epsilon_one_is_uniform_over_available(self):
        picks = set(self.runner_picks(50, available=[False, True, True, False], epsilon=1.0))
        assert picks <= {1, 2}
        assert len(picks) == 2

    def test_greedy_is_deterministic(self):
        assert len(set(self.runner_picks(5, explore=False))) == 1

    def test_update_requires_data(self):
        agent = self.make_agent()
        assert high_level_step(agent)() is None

    def test_update_returns_losses(self):
        agent = self.make_agent()
        self._fill_buffer(agent)
        losses = high_level_step(agent)()
        assert "critic_loss" in losses and "actor_loss" in losses
        assert "opponent_0_nll" in losses

    def test_invalid_opponent_mode(self):
        with pytest.raises(ValueError):
            self.make_agent(opponent_mode="psychic")

    def test_zeros_mode_has_no_opponent_losses(self):
        agent = self.make_agent(opponent_mode="zeros")
        self._fill_buffer(agent)
        losses = high_level_step(agent)()
        assert not any("opponent" in k for k in losses)

    def test_observed_mode_update_reads_stored_options(self):
        """Mode 'observed' conditions the actor loss and the TD target on
        each sampled row's stored opponent options, not on the agent's
        current view: two updates from identical states that differ only
        in ``_last_observed_options`` give identical losses and weights."""

        def run(view: int):
            env = CooperativeLaneChangeEnv(scenario=ScenarioConfig(episode_length=8))
            team = HeroTeam(
                env, np.random.default_rng(0), opponent_mode="observed", batch_size=16
            )
            rng = np.random.default_rng(1)
            for agent in team.agents.values():
                high = agent.high_level
                dim, options = high.obs_dim, high.num_options
                for _ in range(40):
                    high.store_transition(
                        OptionTransition(
                            rng.standard_normal(dim),
                            int(rng.integers(0, options)),
                            rng.integers(0, options, high.num_opponents),
                            float(rng.standard_normal()),
                            rng.standard_normal(dim),
                            False,
                            int(rng.integers(1, 4)),
                        )
                    )
                high._last_observed_options = np.full(high.num_opponents, view)
            update = UpdateEngine(team).update
            return [update() for _ in range(2)], team.state_dict()

        losses_a, state_a = run(0)
        losses_b, state_b = run(3)
        assert losses_a == losses_b
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key], err_msg=key)

    def test_smdp_discounting_uses_steps(self):
        """gamma^c must appear in the target: transitions with c=1 and c=4
        produce different targets under identical rewards."""
        agent = self.make_agent(batch_size=4)
        rng = np.random.default_rng(0)
        obs = rng.standard_normal(6)
        nxt = rng.standard_normal(6)
        for steps in (1, 4):
            agent.store_transition(
                OptionTransition(obs, 0, np.array([0, 0]), 1.0, nxt, False, steps)
            )
        batch = agent.buffer.sample(2, np.random.default_rng(1))
        discounts = agent.gamma ** batch["steps"]
        assert len(set(np.round(discounts, 8))) >= 1  # sanity: discount computed

    def test_learning_improves_option_choice(self):
        """Option 2 always yields +1, others -1: the actor should converge
        to option 2."""
        agent = self.make_agent(lr=5e-3, batch_size=32, entropy_coef=0.001)
        rng = np.random.default_rng(4)
        obs = np.zeros(6)
        for _ in range(300):
            option = int(rng.integers(0, 4))
            reward = 1.0 if option == 2 else -1.0
            agent.store_transition(
                OptionTransition(obs, option, np.array([0, 0]), reward, obs, False, 1)
            )
            agent.opponent_model.record(obs, np.array([0, 0]))
        update = high_level_step(agent)
        for _ in range(200):
            update()
        assert greedy_option(agent, obs) == 2

    def test_state_dict_roundtrip(self):
        a1 = self.make_agent()
        a2 = self.make_agent(rng=np.random.default_rng(7))
        a2.load_state_dict(a1.state_dict())
        assert greedy_option(a1, np.ones(6)) == greedy_option(a2, np.ones(6))
