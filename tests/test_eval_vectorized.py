"""Tests for vectorized greedy evaluation (ISSUE 3).

The contract under test:

* ``evaluate_hero_vectorized`` / ``evaluate_marl_vectorized`` with
  ``num_envs == 1`` are **bit-for-bit** equal to the scalar
  ``evaluate_hero`` / ``evaluate_marl`` for HERO and all four baselines
  (same reset-seed stream, shape-identical greedy network forwards, no
  hidden RNG consumption),
* at ``num_envs > 1`` the evaluators replay the *identical per-episode
  reset-seed stream* — episode ``e`` always gets
  ``episode_reset_seeds(seed, episodes)[e]`` no matter which env runs it
  or in which order episodes finish,
* evaluation has no training side effects: replay buffers, opponent-model
  histories and exploration state are untouched,
* exactly ``episodes`` completed episodes are scored even when the env
  batch is larger than the episode budget.
"""

import numpy as np
import pytest

from repro.baselines import (
    evaluate_marl,
    evaluate_marl_vectorized,
    make_baseline,
    train_marl_vectorized,
)
from repro.config import ScenarioConfig, TrainingConfig
from repro.core import HeroTeam, train_hero
from repro.core.trainer import evaluate_hero, evaluate_hero_vectorized
from repro.envs import CooperativeLaneChangeEnv, VectorEnv
from repro.envs.wrappers import make_baseline_env, make_baseline_vector_env
from repro.utils.seeding import episode_reset_seeds

BASELINE_NAMES = ["idqn", "coma", "maddpg", "maac"]
METRIC_KEYS = {"episode_reward", "collision_rate", "success_rate", "mean_speed"}


def small_scenario() -> ScenarioConfig:
    return ScenarioConfig(episode_length=8)


def trained_hero(scenario, episodes=2, opponent_mode="model"):
    """A briefly-trained team, so eval runs on non-trivial weights/state."""
    config = TrainingConfig(seed=0)
    config.scenario = scenario
    env = CooperativeLaneChangeEnv(scenario=scenario)
    team = HeroTeam(
        env, np.random.default_rng(0), batch_size=8, opponent_mode=opponent_mode
    )
    train_hero(env, team, episodes=episodes, config=config, eval_every=0)
    return env, team


def trained_baseline(name, scenario, episodes=2):
    kwargs = {"batch_size": 16} if name != "coma" else {}
    env = make_baseline_env(scenario=scenario)
    algo = make_baseline(name, env, seed=3, **kwargs)
    train_marl_vectorized(
        make_baseline_vector_env(1, scenario=scenario),
        algo,
        episodes=episodes,
        seed=7,
        eval_every=0,
    )
    return env, algo


class TestBitForBitAtOneEnv:
    """Vectorized eval at num_envs=1 == scalar eval, bit for bit."""

    def test_hero_matches_scalar(self):
        scenario = small_scenario()
        env, team = trained_hero(scenario)
        scalar = evaluate_hero(env, team, episodes=4, seed=11)
        vectorized = evaluate_hero_vectorized(
            VectorEnv(1, scenario=scenario), team, episodes=4, seed=11
        )
        assert set(scalar) == METRIC_KEYS
        assert scalar == vectorized

    @pytest.mark.parametrize("opponent_mode", ["observed", "zeros"])
    def test_hero_matches_scalar_other_opponent_modes(self, opponent_mode):
        """'observed' exercises sync_observed_options (the eval runner must
        see the opponent options training left on the team)."""
        scenario = small_scenario()
        env, team = trained_hero(scenario, opponent_mode=opponent_mode)
        scalar = evaluate_hero(env, team, episodes=3, seed=5)
        vectorized = evaluate_hero_vectorized(
            VectorEnv(1, scenario=scenario), team, episodes=3, seed=5
        )
        assert scalar == vectorized

    @pytest.mark.parametrize("name", BASELINE_NAMES)
    def test_baseline_matches_scalar(self, name):
        scenario = small_scenario()
        env, algo = trained_baseline(name, scenario)
        scalar = evaluate_marl(env, algo, episodes=4, seed=11)
        vectorized = evaluate_marl_vectorized(
            make_baseline_vector_env(1, scenario=scenario), algo, episodes=4, seed=11
        )
        assert set(scalar) == METRIC_KEYS
        assert scalar == vectorized

    def test_hero_runner_reuse_across_calls(self):
        """The interleaved-eval path reuses one runner; state from a
        previous sweep must not leak into the next."""
        from repro.core import BatchedHeroRunner

        scenario = small_scenario()
        env, team = trained_hero(scenario)
        vec = VectorEnv(1, scenario=scenario)
        runner = BatchedHeroRunner(team, vec)
        first = evaluate_hero_vectorized(vec, team, episodes=3, seed=5, runner=runner)
        again = evaluate_hero_vectorized(vec, team, episodes=3, seed=5, runner=runner)
        assert first == again
        assert again == evaluate_hero(env, team, episodes=3, seed=5)

    def test_hero_rejects_foreign_runner(self):
        from repro.core import BatchedHeroRunner

        scenario = small_scenario()
        _, team = trained_hero(scenario, episodes=1)
        vec = VectorEnv(1, scenario=scenario)
        other = VectorEnv(1, scenario=scenario)
        runner = BatchedHeroRunner(team, other)
        with pytest.raises(ValueError, match="different VectorEnv"):
            evaluate_hero_vectorized(vec, team, episodes=1, runner=runner)


class TestSeedStreams:
    """Episode e always evaluates under episode_reset_seeds(seed, n)[e]."""

    def _recorded_seeds(self, monkeypatch, n_envs, episodes, seed, scenario):
        """Run a baseline eval at N>1 and record every seeded reset."""
        # Train first: training steps a VectorEnv too, and only the eval's
        # resets are recorded.
        _, algo = trained_baseline("idqn", scenario, episodes=1)
        recorded = {}
        original_reset = VectorEnv.reset
        original_reset_env = VectorEnv.reset_env

        def recording_reset(self, seeds=None):
            if seeds is not None:
                for i, value in enumerate(seeds):
                    if value is not None:
                        recorded.setdefault(("initial", i), value)
            return original_reset(self, seeds)

        def recording_reset_env(self, i, seed=None):
            if seed is not None:
                recorded[("relaunch", len(recorded))] = seed
            return original_reset_env(self, i, seed=seed)

        monkeypatch.setattr(VectorEnv, "reset", recording_reset)
        monkeypatch.setattr(VectorEnv, "reset_env", recording_reset_env)
        evaluate_marl_vectorized(
            make_baseline_vector_env(n_envs, scenario=scenario),
            algo,
            episodes=episodes,
            seed=seed,
        )
        return recorded

    def test_seed_stream_at_three_envs_matches_scalar_stream(self, monkeypatch):
        scenario = small_scenario()
        episodes, seed = 6, 13
        recorded = self._recorded_seeds(monkeypatch, 3, episodes, seed, scenario)
        expected = episode_reset_seeds(seed, episodes)
        # Envs 0..2 start episodes 0..2; every relaunch consumes the next
        # episode index in order, so the multiset of seeded resets is
        # exactly the scalar evaluator's stream.
        initial = [recorded[("initial", i)] for i in range(3)]
        np.testing.assert_array_equal(initial, expected[:3])
        relaunches = sorted(
            value for key, value in recorded.items() if key[0] == "relaunch"
        )
        assert sorted(relaunches) == sorted(int(s) for s in expected[3:])

    def test_scalar_evaluators_use_episode_reset_seeds(self, monkeypatch):
        """The scalar evaluators' seeds come from episode_reset_seeds, so
        the vectorized evaluators (which index the same spawn) can replay
        them; drawing from a sequential RNG stream would break this."""
        scenario = small_scenario()
        env, team = trained_hero(scenario, episodes=1)
        recorded = []
        original_reset = CooperativeLaneChangeEnv.reset

        def recording_reset(self, seed=None):
            recorded.append(seed)
            return original_reset(self, seed=seed)

        monkeypatch.setattr(CooperativeLaneChangeEnv, "reset", recording_reset)
        evaluate_hero(env, team, episodes=3, seed=9)
        np.testing.assert_array_equal(recorded, episode_reset_seeds(9, 3))

        recorded.clear()
        benv, algo = trained_baseline("idqn", scenario, episodes=1)
        recorded.clear()  # drop the training resets
        evaluate_marl(benv, algo, episodes=3, seed=9)
        np.testing.assert_array_equal(recorded, episode_reset_seeds(9, 3))


class TestNoTrainingSideEffects:
    def test_hero_eval_leaves_buffers_and_histories_untouched(self):
        scenario = small_scenario()
        env, team = trained_hero(scenario)
        sizes_before = {
            agent_id: (
                len(agent.high_level.buffer),
                len(agent.high_level.opponent_model.history),
            )
            for agent_id, agent in team.agents.items()
        }
        evaluate_hero_vectorized(
            VectorEnv(2, scenario=scenario), team, episodes=3, seed=1
        )
        for agent_id, agent in team.agents.items():
            assert sizes_before[agent_id] == (
                len(agent.high_level.buffer),
                len(agent.high_level.opponent_model.history),
            )

    def test_baseline_eval_leaves_buffers_and_epsilon_untouched(self):
        scenario = small_scenario()
        _, algo = trained_baseline("idqn", scenario)
        algo.epsilon = np.array([0.5, 0.25])  # per-env array from training
        sizes_before = {a: len(b) for a, b in algo.buffers.items()}
        evaluate_marl_vectorized(
            make_baseline_vector_env(3, scenario=scenario), algo, episodes=4, seed=1
        )
        assert {a: len(b) for a, b in algo.buffers.items()} == sizes_before
        np.testing.assert_array_equal(algo.epsilon, [0.5, 0.25])


class TestEpisodeAccounting:
    def test_more_envs_than_episodes_scores_exact_budget(self):
        scenario = small_scenario()
        _, algo = trained_baseline("idqn", scenario, episodes=1)
        vec = make_baseline_vector_env(4, scenario=scenario)
        metrics = evaluate_marl_vectorized(vec, algo, episodes=2, seed=3)
        scalar = evaluate_marl(
            make_baseline_env(scenario=scenario), algo, episodes=2, seed=3
        )
        # Excess envs roll out unscored episodes; the scored set is the
        # scalar evaluator's two episodes exactly.
        assert metrics == scalar

    def test_hero_more_envs_than_episodes(self):
        scenario = small_scenario()
        env, team = trained_hero(scenario, episodes=1)
        metrics = evaluate_hero_vectorized(
            VectorEnv(4, scenario=scenario), team, episodes=2, seed=3
        )
        for value in metrics.values():
            assert np.isfinite(value)
        assert set(metrics) == METRIC_KEYS
