"""Vectorized greedy-evaluation throughput: batched eval vs one env.

Not a paper table — this is the scaling guard for the evaluation hot path.
Interleaved greedy evaluations dominate short vectorized training runs
when they step one env at a time; the contract is that at ``N = 8``
evaluation envs, ``evaluate_hero_vectorized`` completes the same
evaluation-episode budget **at least 3x** faster than ``evaluate_hero``,
which steps one scalar env through a one-env runner (both run the
identical seed stream, so they score the same episodes).

``test_eval_rollout_speedup`` measures the ratio in alternating paired
windows (``bench_update_phase._time_rounds_paired``) and asserts on the
median paired ratio; the ``benchmark``-fixture test records the per-cycle
cost of one greedy batched act/step cycle that feeds the CI perf gate
(``benchmarks/check_regression.py``).
"""

from __future__ import annotations

import os

import numpy as np
from bench_update_phase import _time_rounds_paired

from repro.config import ScenarioConfig, TrainingConfig
from repro.core import BatchedHeroRunner, HeroTeam, train_hero
from repro.core.trainer import evaluate_hero, evaluate_hero_vectorized
from repro.envs import CooperativeLaneChangeEnv, VectorEnv

N_ENVS = 8
TARGET_SPEEDUP = 3.0
EVAL_EPISODES = int(os.environ.get("REPRO_BENCH_EVAL_EPISODES", "24"))


def _make_team(scenario: ScenarioConfig) -> tuple[CooperativeLaneChangeEnv, HeroTeam]:
    """A lightly-trained team so greedy eval exercises realistic options."""
    config = TrainingConfig(seed=0)
    config.scenario = scenario
    env = CooperativeLaneChangeEnv(scenario=scenario)
    team = HeroTeam(env, np.random.default_rng(0), batch_size=8)
    train_hero(env, team, episodes=2, config=config, eval_every=0)
    return env, team


def test_eval_rollout_speedup():
    """The evaluation scaling check: >= 3x at N = 8 over one env.

    Both evaluators score the same ``EVAL_EPISODES`` episodes in
    alternating paired windows, so a host speed phase lands on both sides
    of a window's ratio; the assert reads the median ratio.  On shared CI
    runners wall-clock ratios are noisy, so under ``CI`` the measurement
    is report-only (absolute regressions are caught by the perf-gate job,
    which compares single-machine means); locally the ratio is a hard
    assertion.
    """
    scenario = ScenarioConfig(episode_length=30)
    env, team = _make_team(scenario)
    vec_env = VectorEnv(N_ENVS, scenario=scenario)
    runner = BatchedHeroRunner(team, vec_env)

    def scalar_eval():
        evaluate_hero(env, team, episodes=EVAL_EPISODES, seed=0)

    def vector_eval():
        evaluate_hero_vectorized(
            vec_env, team, episodes=EVAL_EPISODES, seed=0, runner=runner
        )

    # The vector side gets TARGET_SPEEDUP times the calls so both halves
    # of a window span comparable wall time at the target ratio.
    vector_rounds = int(TARGET_SPEEDUP)
    speedup, scalar_s, vector_s = _time_rounds_paired(
        scalar_eval, vector_eval, 1, rounds_b=vector_rounds
    )
    print(
        f"\nscalar eval: {EVAL_EPISODES / scalar_s:.1f} episodes/s | "
        f"vector(N={N_ENVS}): {vector_rounds * EVAL_EPISODES / vector_s:.1f} "
        f"episodes/s | {speedup:.2f}x (median paired ratio)"
    )
    if os.environ.get("CI"):
        if speedup < TARGET_SPEEDUP:
            print(
                f"WARNING: {speedup:.2f}x below the {TARGET_SPEEDUP}x target "
                "(report-only on shared CI runners)"
            )
        return
    assert speedup >= TARGET_SPEEDUP, (
        f"vectorized greedy eval only {speedup:.2f}x over scalar "
        f"(need >= {TARGET_SPEEDUP}x): {vector_s / vector_rounds:.3f}s vs "
        f"{scalar_s:.3f}s for {EVAL_EPISODES} episodes"
    )


def test_eval_vector_cycle(benchmark):
    """One greedy batched act/step cycle (N=8) for the perf gate."""
    scenario = ScenarioConfig(episode_length=30)
    _, team = _make_team(scenario)
    vec_env = VectorEnv(N_ENVS, scenario=scenario)
    runner = BatchedHeroRunner(team, vec_env)
    state = {"obs": vec_env.reset(0)}

    def cycle():
        actions = runner.act(state["obs"], epsilon=0.0, explore=False)
        obs, _, dones, _ = vec_env.step(actions)
        for i in np.flatnonzero(dones):
            runner.start_episode(i)
        state["obs"] = obs

    benchmark(cycle)


def test_vectorized_eval_matches_scalar_sample():
    """Cheap cross-check that the batched greedy path is live and agrees
    with the scalar-env evaluator at one env (the full equivalence matrix
    lives in tests/test_eval_vectorized.py)."""
    scenario = ScenarioConfig(episode_length=10)
    env, team = _make_team(scenario)
    scalar = evaluate_hero(env, team, episodes=2, seed=5)
    vectorized = evaluate_hero_vectorized(
        VectorEnv(1, scenario=scenario), team, episodes=2, seed=5
    )
    assert scalar == vectorized
