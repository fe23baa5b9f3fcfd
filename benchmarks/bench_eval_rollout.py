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

``test_recorded_eval_scoring_speedup`` guards the training loops' side:
a run's interleaved evaluations, recorded at their cadence and scored
after training in one wide rollout (``score_hero_records``), against
the same evaluations run one by one on a reused small batch, the way
the loops ran them before.  It is not gated.
"""

from __future__ import annotations

import os

import numpy as np
from bench_update_phase import _time_rounds_paired

from repro.config import ScenarioConfig, TrainingConfig
from repro.core import BatchedHeroRunner, HeroTeam, train_hero
from repro.core.trainer import (
    evaluate_hero,
    evaluate_hero_vectorized,
    score_hero_records,
)
from repro.core.update_engine import gather_family
from repro.envs import CooperativeLaneChangeEnv, EnvReplicaFactory, VectorEnv
from repro.experiments.common import bench_scenario
from repro.utils.evaluation import EvalRecord, is_eval_point

N_ENVS = 8
TARGET_SPEEDUP = 3.0
EVAL_EPISODES = int(os.environ.get("REPRO_BENCH_EVAL_EPISODES", "24"))
# The perfbench `team` shape: 112 HERO episodes (scale 0.008) with the
# default cadence, eval_every = 112 // 40 = 2, records 57 evaluations of
# 3 episodes each.
TEAM_EPISODES = 112
SCORING_TARGET = 2.5


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


def test_recorded_eval_scoring_speedup():
    """Scoring a `team`-shape run's 57 records in one batch: >= 2.5x over
    57 evaluations on a reused 3-env batch.

    Both sides score the same episodes with the same seeds; the
    per-evaluation side is what the training loops ran at each cadence
    point before they recorded instead.  Paired windows as in
    :func:`test_eval_rollout_speedup`; report-only under ``CI``.
    """
    scenario = bench_scenario()
    env, team = _make_team(scenario)
    factory = EnvReplicaFactory.from_env(env)
    every = TEAM_EPISODES // 40
    steps = [e for e in range(TEAM_EPISODES) if is_eval_point(e, every, TEAM_EPISODES)]
    observed = [a.high_level._last_observed_options for a in team.agents.values()]
    vectors = {name: gather_family(m) for name, m in team.acting_families().items()}
    records = [EvalRecord(step, 500 + step, vectors, observed) for step in steps]
    vec_env = VectorEnv(3, env_fns=[factory] * 3)
    runner = BatchedHeroRunner(team, vec_env)

    def per_evaluation():
        for record in records:
            evaluate_hero_vectorized(vec_env, team, 3, record.seed, runner=runner)

    def one_batch():
        score_hero_records(factory, team, records, 3)

    speedup, per_eval_s, batch_s = _time_rounds_paired(
        per_evaluation, one_batch, 1, rounds_b=2
    )
    print(
        f"\n{len(records)} evaluations: one by one {per_eval_s:.3f}s | one batch "
        f"{batch_s / 2:.3f}s | {speedup:.2f}x (median paired ratio)"
    )
    if os.environ.get("CI"):
        if speedup < SCORING_TARGET:
            print(
                f"WARNING: {speedup:.2f}x below the {SCORING_TARGET}x target "
                "(report-only on shared CI runners)"
            )
        return
    assert speedup >= SCORING_TARGET, (
        f"scoring {len(records)} records in one batch only {speedup:.2f}x over "
        f"one evaluation at a time (need >= {SCORING_TARGET}x)"
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
