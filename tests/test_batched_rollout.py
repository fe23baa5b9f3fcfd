"""Tests for batched policy inference and the vectorized training path.

Covers the no-grad inference kernels (``MLP.infer`` & friends must be
bit-identical to the autograd forward), the
:class:`~repro.core.batched.BatchedHeroRunner` option machinery (its
vectorized termination rules included) and its bus exchange, the
:class:`~repro.core.trainer.BatchedRolloutWorker`, and
``train_hero(..., num_envs=N)`` end to end.
"""

import numpy as np
import pytest

from repro.config import ScenarioConfig, TrainingConfig
from repro.core import (
    ACCELERATE,
    BatchedHeroRunner,
    BatchedRolloutWorker,
    HeroTeam,
    KEEP_LANE,
    LANE_CHANGE,
    SLOW_DOWN,
    train_hero,
)
from repro.core.options import OptionSet
from repro.distributed import DistributedObservationService
from repro.envs import CooperativeLaneChangeEnv, VectorEnv
from repro.envs.stepping import PoseStepper
from repro.nn import MLP, CategoricalPolicy, SquashedGaussianPolicy


def small_scenario(**overrides) -> ScenarioConfig:
    return ScenarioConfig(episode_length=8, **overrides)


def make_setup(num_envs=3, seed=0, **scenario_overrides):
    scenario = small_scenario(**scenario_overrides)
    vec = VectorEnv(num_envs, scenario=scenario)
    team = HeroTeam(
        CooperativeLaneChangeEnv(scenario=scenario),
        np.random.default_rng(seed),
        batch_size=8,
    )
    runner = BatchedHeroRunner(team, vec)
    return vec, team, runner


class TestInferenceKernels:
    """The no-grad forward paths must match the autograd ones bitwise."""

    def test_mlp_infer_matches_forward(self):
        rng = np.random.default_rng(0)
        net = MLP(9, (32, 32), 5, rng)
        x = rng.standard_normal((21, 9))
        np.testing.assert_array_equal(net.infer(x), net.forward(x).data)

    def test_categorical_inference_matches(self):
        rng = np.random.default_rng(1)
        policy = CategoricalPolicy(7, 4, rng)
        x = rng.standard_normal((13, 7))
        np.testing.assert_array_equal(
            policy.logits_inference(x), policy.forward(x).data
        )
        np.testing.assert_array_equal(
            policy.probs_inference(x), policy.probs(x).data
        )

    def test_squashed_gaussian_act_batch_matches(self):
        rng = np.random.default_rng(2)
        policy = SquashedGaussianPolicy(
            6, 2, rng, action_low=np.array([0.0, -0.5]),
            action_high=np.array([0.3, 0.5]),
        )
        x = rng.standard_normal((11, 6))
        np.testing.assert_array_equal(policy.act_batch(x), policy.deterministic(x))
        sampled_fast = policy.act_batch(x, np.random.default_rng(42))
        sampled_ref, _ = policy.sample(x, np.random.default_rng(42))
        np.testing.assert_array_equal(sampled_fast, sampled_ref.data)


class TestBatchedHeroRunner:
    def test_act_produces_bounded_actions(self):
        vec, team, runner = make_setup()
        obs = vec.reset(0)
        actions = runner.act(obs, epsilon=0.3, explore=True)
        assert actions.shape == (vec.num_envs, vec.num_agents, 2)
        space = team.env.action_spaces[team.env.agents[0]]
        assert np.all(actions[..., 0] >= space.low[0] - 1e-12)
        assert np.all(actions[..., 0] <= space.high[0] + 1e-12)
        assert np.all(np.abs(actions[..., 1]) <= space.high[1] + 1e-12)

    def test_rollout_fills_buffers_and_histories(self):
        vec, team, runner = make_setup()
        obs = vec.reset(0)
        for _ in range(30):
            actions = runner.act(obs, epsilon=0.5, explore=True)
            obs, rewards, dones, infos = vec.step(actions)
            _, experience = runner.after_step(obs, rewards, dones, infos)
            team.store(experience)
        for agent in team.agents.values():
            assert len(agent.high_level.buffer) > 0
            assert len(agent.high_level.opponent_model.history) > 0
        # Stored SMDP transitions must carry real option spans.
        buffer = team.agents[team.env.agents[0]].high_level.buffer
        stored = buffer.steps[: len(buffer)]
        assert np.all(stored >= 1)
        assert np.all(stored <= vec.scenario.episode_length)

    def test_episode_stats_reported_on_done(self):
        vec, team, runner = make_setup()
        obs = vec.reset(0)
        collected = []
        for _ in range(25):
            actions = runner.act(obs, epsilon=0.5, explore=True)
            obs, rewards, dones, infos = vec.step(actions)
            stats, _ = runner.after_step(obs, rewards, dones, infos)
            collected.extend(stats)
        assert collected, "8-step episodes must finish within 25 steps"
        for stat in collected:
            assert set(stat) >= {"env", "episode", "lane_change_attempts"}
            assert stat["episode"]["length"] >= 1.0

    def test_act_and_after_step_leave_the_team_untouched(self):
        """The runner only hands experience back: buffers, histories and
        last-observed options change only through ``HeroTeam.store``."""
        vec, team, runner = make_setup()
        highs = [agent.high_level for agent in team.agents.values()]
        sentinels = [high._last_observed_options for high in highs]
        obs = vec.reset(0)
        completed = 0
        for _ in range(30):
            obs, rewards, dones, infos = vec.step(runner.act(obs, epsilon=0.5))
            _, (transitions, _, _) = runner.after_step(obs, rewards, dones, infos)
            completed += sum(len(rows) for rows in transitions)
        assert completed > 0
        for high, sentinel in zip(highs, sentinels):
            assert len(high.buffer) == 0
            assert len(high.opponent_model.history) == 0
            assert high._last_observed_options is sentinel

    def test_runner_holds_at_most_one_step_of_experience(self):
        """Experience nobody stores does not build up in the runner: an
        act completes at most one option per (env, agent) pair, and
        after_step hands everything back."""
        vec, team, runner = make_setup()
        obs = vec.reset(0)
        pairs = vec.num_envs * vec.num_agents
        for _ in range(50):
            actions = runner.act(obs, epsilon=0.5)
            assert sum(len(rows) for rows in runner._transitions) <= pairs
            obs, rewards, dones, infos = vec.step(actions)
            _, (transitions, _, _) = runner.after_step(obs, rewards, dones, infos)
            assert sum(len(rows) for rows in transitions) <= 2 * pairs
            assert not any(runner._transitions)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_clip_bounds_matches_per_option_clipping(self, dtype):
        """One stacked clip against each row's option bounds equals clipping
        each option's rows with its own bounds (SkillLibrary.act's rule:
        the angular magnitude is clipped and its sign kept when the angular
        low bound is non-negative), then storing in the skill's dtype."""
        _, _, runner = make_setup(num_envs=6)
        rng = np.random.default_rng(4)
        raw = rng.uniform(-0.4, 0.4, (6, runner.num_agents, 2)).astype(dtype)
        raw[0, :, 1] = [0.0, -0.0, np.nan][: runner.num_agents]
        option = rng.integers(0, runner.num_options, (6, runner.num_agents))

        expected = raw.copy()
        for index in range(runner.num_options):
            bounds = runner.option_set[index].bounds
            rows = option == index
            if bounds is None:
                continue
            low, high = bounds.as_arrays()
            expected[rows, 0] = np.clip(raw[rows, 0], low[0], high[0])
            if low[1] >= 0.0:
                sign = np.sign(raw[rows, 1])
                sign = np.where(sign == 0.0, 1.0, sign)
                expected[rows, 1] = sign * np.clip(np.abs(raw[rows, 1]), low[1], high[1])
            else:
                expected[rows, 1] = np.clip(raw[rows, 1], low[1], high[1])

        actual = runner._clip_bounds(raw.astype(np.float64), option).astype(dtype)
        assert actual.tobytes() == expected.tobytes()

    def test_start_episode_resets_counters(self):
        vec, team, runner = make_setup()
        obs = vec.reset(0)
        for _ in range(10):
            actions = runner.act(obs, epsilon=1.0, explore=True)
            obs, rewards, dones, infos = vec.step(actions)
            runner.after_step(obs, rewards, dones, infos)
        runner.start_episode(0)
        assert runner.lane_change_attempts[0] == 0
        assert bool(runner._needs_new[0].all())
        assert runner._option[0, 0] == KEEP_LANE

    def test_rejects_custom_initiation_predicates(self):
        """A state-dependent initiation set cannot be frozen into the
        runner's static availability mask."""
        option_set = OptionSet()
        custom = option_set.options[0]
        object.__setattr__(custom, "initiation", lambda vehicle: vehicle.lane_id == 0)
        scenario = small_scenario()
        vec = VectorEnv(2, scenario=scenario)
        team = HeroTeam(
            CooperativeLaneChangeEnv(scenario=scenario),
            np.random.default_rng(0),
            option_set=option_set,
        )
        with pytest.raises(ValueError, match="initiation"):
            BatchedHeroRunner(team, vec)


def force_options(team, options):
    """Make every agent's greedy choice ``options[k]`` (a dominant logit)."""
    for agent_id, option in zip(team.env.agents, options):
        bias = team.agents[agent_id].high_level.actor.trunk.net[-2].bias.data
        bias[:] = 0.0
        bias[option] = 50.0


class TestOptionTermination:
    """The runner's vectorized option rules, driven over a pose-only
    stepper whose post-step lanes each test sets by hand."""

    def make(self, options, num_envs=1, num_lanes=2, **option_set_kwargs):
        scenario = small_scenario(num_lanes=num_lanes)
        env = CooperativeLaneChangeEnv(scenario=scenario)
        team = HeroTeam(
            env, np.random.default_rng(0), option_set=OptionSet(**option_set_kwargs)
        )
        force_options(team, options)
        stepper = PoseStepper(env, num_envs)
        runner = BatchedHeroRunner(team, stepper)
        obs = env.reset(seed=0)
        self.obs = {
            key: np.repeat(np.stack([obs[a][key] for a in env.agents])[None], num_envs, 0)
            for key in obs[env.agents[0]]
        }
        self.merge_flags = []
        forward = runner._skill_forward

        def recording_forward(skill, obs_rows, explore):
            self.merge_flags.append(obs_rows[:, -1].copy())
            return forward(skill, obs_rows, explore)

        runner._skill_forward = recording_forward
        return runner, stepper

    def act(self, runner, lanes):
        """Greedy act with every (env, agent) observed in ``lanes``."""
        lanes = np.broadcast_to(lanes, (runner.num_envs, runner.num_agents))
        self.obs["lane_onehot"] = np.eye(runner.vec_env.track.num_lanes)[lanes]
        return runner.act(self.obs, explore=False)

    def step(self, runner, lanes, deviation=0.0):
        """One after_step with the post-step pose ``(lanes, deviation)``."""
        n, a = runner.num_envs, runner.num_agents
        runner.vec_env.lane_ids = np.broadcast_to(lanes, (n, a))
        runner.vec_env.lane_deviation = np.broadcast_to(deviation, (n, a))
        runner.after_step(self.obs, np.zeros(n), np.zeros(n, dtype=bool), [{}] * n)
        return runner._needs_new.copy()

    def test_fixed_length_options_end_on_time(self):
        runner, _ = self.make([SLOW_DOWN] * 3, option_duration=3)
        self.act(runner, 0)
        fired = [bool(self.step(runner, 0).all()) for _ in range(3)]
        assert fired == [False, False, True]

    def test_lane_change_targets_other_lane(self):
        runner, _ = self.make([LANE_CHANGE] * 3)
        self.act(runner, 0)
        np.testing.assert_array_equal(runner._target_lane, [[1, 1, 1]])
        np.testing.assert_array_equal(np.concatenate(self.merge_flags), [1.0] * 3)

    def test_lane_change_from_lane_one(self):
        runner, _ = self.make([LANE_CHANGE] * 3)
        self.act(runner, 1)
        np.testing.assert_array_equal(runner._target_lane, [[0, 0, 0]])
        np.testing.assert_array_equal(np.concatenate(self.merge_flags), [-1.0] * 3)

    def test_lane_change_terminates_on_arrival(self):
        runner, _ = self.make([LANE_CHANGE] * 3, lane_change_max_steps=10)
        self.act(runner, 0)
        # Not yet centred in the target lane: still running.
        assert not self.step(runner, 1, deviation=0.2).any()
        assert self.step(runner, 1, deviation=0.0).all()
        assert runner.lane_change_successes[0] == 3

    def test_lane_change_timeout(self):
        runner, _ = self.make([LANE_CHANGE] * 3, lane_change_max_steps=2)
        self.act(runner, 0)
        assert not self.step(runner, 0).any()
        assert self.step(runner, 0).all()  # timeout fires
        assert runner.lane_change_successes[0] == 0

    def test_success_counted_only_for_lane_change(self):
        runner, _ = self.make([KEEP_LANE, ACCELERATE, SLOW_DOWN], option_duration=1)
        self.act(runner, 0)
        assert self.step(runner, 0).all()  # in the target (own) lane, centred
        assert runner.lane_change_successes[0] == 0
        assert runner.lane_change_attempts[0] == 0

    def test_merge_direction_zero_for_other_options(self):
        runner, _ = self.make([ACCELERATE, SLOW_DOWN, ACCELERATE])
        self.act(runner, 1)
        np.testing.assert_array_equal(np.concatenate(self.merge_flags), [0.0] * 3)

    def test_asynchronous_termination_independent(self):
        """Agents (and envs) terminate on their own clocks."""
        runner, _ = self.make(
            [LANE_CHANGE, SLOW_DOWN, KEEP_LANE], num_envs=2, option_duration=2
        )
        self.act(runner, 0)
        # Env 0's lane changer arrives at once; env 1's is still merging.
        fired = self.step(runner, np.array([[1, 0, 0], [0, 0, 0]]))
        np.testing.assert_array_equal(fired, [[True, False, False], [False, False, False]])
        self.act(runner, 0)  # only env 0's lane changer re-selects
        fired = self.step(runner, 0)
        np.testing.assert_array_equal(fired, [[False, True, True], [False, True, True]])
        np.testing.assert_array_equal(runner.lane_change_successes, [1, 0])
        np.testing.assert_array_equal(runner.lane_change_attempts, [2, 1])

    def test_no_lane_change_on_one_lane_track(self):
        runner, _ = self.make([LANE_CHANGE] * 3, num_lanes=1)
        assert not runner._available[LANE_CHANGE]
        self.act(runner, 0)
        assert not (runner._option == LANE_CHANGE).any()
        np.testing.assert_array_equal(runner._target_lane, [[0, 0, 0]])
        assert runner.lane_change_attempts[0] == 0


class TestBusOnRunner:
    """The DTDE bus on the batched path: opponents' options come from
    what each agent last heard, not from the other agents' state."""

    def make(self, num_envs=2, latency=1, drop=0.0):
        vec, team, _ = make_setup(num_envs=num_envs)
        service = DistributedObservationService(
            team.env.agents, latency_steps=latency, drop_probability=drop, seed=0
        )
        team.observation_service = service
        return vec, team, BatchedHeroRunner(team, vec), service

    def test_records_come_from_the_bus(self):
        vec, team, runner, service = self.make(latency=2)
        obs = vec.reset(0)
        heard = []
        for _ in range(3):
            obs, rewards, dones, infos = vec.step(runner.act(obs, epsilon=0.5))
            _, experience = runner.after_step(obs, rewards, dones, infos)
            team.store(experience)
            heard.append(service.observed_options(vec.num_envs))
        # Latency 2: nothing heard after the first exchange, so the first
        # records are the keep-lane defaults, not the executing options.
        np.testing.assert_array_equal(heard[0], 0)
        history = team.agents[team.env.agents[0]].high_level.opponent_model.history
        assert len(history) == 3 * vec.num_envs
        np.testing.assert_array_equal(history.options[: vec.num_envs], 0)
        np.testing.assert_array_equal(runner._observed_other, heard[-1])
        assert service.stats()["sent"] == 3 * vec.num_envs * 6

    def test_pending_opponent_options_come_from_the_bus(self):
        vec, team, runner, service = self.make(latency=0)
        service.exchange(np.full((vec.num_envs, 3), ACCELERATE))
        runner.act(vec.reset(0), epsilon=0.5)
        np.testing.assert_array_equal(runner._pending_other, ACCELERATE)

    def test_eval_runner_leaves_the_bus_alone(self):
        from repro.core.trainer import evaluate_hero_vectorized

        vec, team, runner, service = self.make(latency=3)
        obs = vec.reset(0)
        for _ in range(4):
            obs, rewards, dones, infos = vec.step(runner.act(obs, epsilon=0.5))
            runner.after_step(obs, rewards, dones, infos)
        table, stats = service.observed_options(vec.num_envs), service.stats()
        evaluate_hero_vectorized(VectorEnv(vec.num_envs, scenario=vec.scenario), team, 2)
        evaluate_hero_vectorized(VectorEnv(1, scenario=vec.scenario), team, 2)
        np.testing.assert_array_equal(service.observed_options(vec.num_envs), table)
        assert service.stats() == stats


class TestBatchedRolloutWorker:
    def test_collect_returns_indexed_episodes(self):
        vec, team, runner = make_setup()
        worker = BatchedRolloutWorker(vec, team, runner)
        worker.reset([1, 2, 3])
        stats, _ = worker.collect(lambda episode: 0.5)
        assert stats
        indices = [stat["episode_index"] for stat in stats]
        assert all(0 <= i < vec.num_envs for i in indices)
        # The finished envs must have been relaunched with fresh indices.
        assert worker.episode_indices.max() >= vec.num_envs

    def test_collect_epsilon_follows_schedule(self):
        vec, team, runner = make_setup()
        worker = BatchedRolloutWorker(vec, team, runner)
        worker.reset([1, 2, 3])
        stats, _ = worker.collect(lambda episode: 0.1 * (episode + 1))
        for stat in stats:
            assert stat["epsilon"] == pytest.approx(
                0.1 * (stat["episode_index"] + 1)
            )


class TestTrainHeroVectorized:
    def test_train_hero_num_envs_runs_and_logs(self):
        config = TrainingConfig(seed=0, num_envs=4)
        config.scenario = small_scenario()
        env = CooperativeLaneChangeEnv(scenario=config.scenario)
        team = HeroTeam(env, np.random.default_rng(0), batch_size=8)
        logger = train_hero(
            env,
            team,
            episodes=6,
            config=config,
            num_envs=config.num_envs,
            eval_every=3,
            eval_episodes=1,
        )
        rewards = logger.values("hero/episode_reward")
        assert len(rewards) == 6
        assert np.all(np.isfinite(rewards))
        assert len(logger.values("hero/eval_episode_reward")) >= 1
        for agent in team.agents.values():
            assert len(agent.high_level.buffer) > 0

    def test_rejects_env_subclass(self):
        """Vectorizing a subclassed env would silently swap its dynamics."""

        class CustomEnv(CooperativeLaneChangeEnv):
            pass

        config = TrainingConfig(seed=0)
        config.scenario = small_scenario()
        env = CustomEnv(scenario=config.scenario)
        team = HeroTeam(env, np.random.default_rng(0), batch_size=8)
        with pytest.raises(ValueError, match="CustomEnv"):
            train_hero(env, team, episodes=2, config=config, num_envs=2)

    def test_custom_scripted_policy_is_replicated(self, monkeypatch):
        """The caller's traffic must reach the vectorized envs (via the
        scalar fallback), not be swapped for the default SlowLeader."""
        from repro.envs import ScriptedPolicy

        class CustomPolicy(ScriptedPolicy):
            def act(self, vehicle, others):
                return 0.0, 0.0

        import repro.core.trainer as trainer_module

        built = []
        original = trainer_module.VectorEnv

        def recording_vector_env(num_envs, **kwargs):
            vec = original(num_envs, **kwargs)
            built.append(vec)
            return vec

        monkeypatch.setattr(trainer_module, "VectorEnv", recording_vector_env)
        config = TrainingConfig(seed=0)
        config.scenario = small_scenario()
        policy = CustomPolicy()
        env = CooperativeLaneChangeEnv(
            scenario=config.scenario, scripted_policy=policy
        )
        team = HeroTeam(env, np.random.default_rng(0), batch_size=8)
        logger = train_hero(
            env, team, episodes=2, config=config, num_envs=2, eval_every=0
        )
        assert len(logger.values("hero/episode_reward")) == 2
        (vec,) = built
        assert not vec.fast_path  # custom traffic -> scalar fallback
        assert all(e._scripted_policy is policy for e in vec.envs)

    def test_train_hero_warns_on_scalar_fallback(self):
        """The vectorized HERO loop must say why --num-envs is not helping."""
        from repro.envs import ScriptedPolicy

        class CrawlPolicy(ScriptedPolicy):
            """No vectorized kernel, so VectorEnv takes the scalar path."""

            def act(self, vehicle, all_vehicles):
                return 0.02, 0.0

        config = TrainingConfig(seed=0)
        config.scenario = ScenarioConfig(episode_length=5)
        env = CooperativeLaneChangeEnv(
            scenario=config.scenario, scripted_policy=CrawlPolicy()
        )
        team = HeroTeam(env, np.random.default_rng(0), batch_size=32)
        with pytest.warns(RuntimeWarning, match="scalar fallback"):
            train_hero(env, team, episodes=1, config=config, num_envs=2, eval_every=0)

    def test_num_envs_defaults_from_config(self, monkeypatch):
        """train_hero must honour TrainingConfig.num_envs when the kwarg
        is omitted (the config field must not be write-only)."""
        import repro.core.trainer as trainer_module

        built = []
        original = trainer_module.VectorEnv

        def recording_vector_env(num_envs, **kwargs):
            built.append(num_envs)
            return original(num_envs, **kwargs)

        monkeypatch.setattr(trainer_module, "VectorEnv", recording_vector_env)
        config = TrainingConfig(seed=0, num_envs=2)
        config.scenario = small_scenario()
        env = CooperativeLaneChangeEnv(scenario=config.scenario)
        team = HeroTeam(env, np.random.default_rng(0), batch_size=8)
        train_hero(env, team, episodes=2, config=config, eval_every=0)
        assert built == [2]
