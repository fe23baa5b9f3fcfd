"""Vectorized-baseline throughput: batched IDQN rollouts vs scalar.

Not a paper table — this is the scaling guard for the baseline training
hot path added by ISSUE 2.  The contract: at ``N = 8`` vectorized envs the
batched rollout (``act_batch`` + ``VectorBaselineEnv.step`` +
``observe_batch``) must sustain **at least 3x** the aggregate
env-steps/sec of the scalar path (one env, per-agent Python loops through
``IndependentDQN.act``).

``test_baseline_rollout_speedup`` measures the ratio in alternating paired
windows (``bench_update_phase._time_rounds_paired``) and asserts on the
median paired ratio; the ``benchmark``-fixture test records the per-cycle
cost that feeds the CI perf gate (``benchmarks/check_regression.py``).
"""

from __future__ import annotations

import os

import numpy as np
from bench_update_phase import _time_rounds_paired

from repro.baselines import make_baseline
from repro.envs import make_baseline_env, make_baseline_vector_env

N_ENVS = 8
TARGET_SPEEDUP = 3.0
ROLLOUT_STEPS = int(os.environ.get("REPRO_BENCH_ROLLOUT_STEPS", "300"))
EPSILON = 0.1  # mid-training exploration: both branches of the act path run


def _scalar_rollout():
    """One call: ``N_ENVS`` env-steps of the scalar baseline stack."""
    env = make_baseline_env()
    algo = make_baseline("idqn", env, seed=0)
    algo.epsilon = EPSILON
    state = {"obs": env.reset(seed=0)}

    def run():
        for _ in range(N_ENVS):
            obs = state["obs"]
            actions = algo.act(obs, explore=True)
            next_obs, rewards, dones, _ = env.step(actions)
            algo.observe(obs, actions, rewards, next_obs, dones)
            state["obs"] = env.reset() if dones["__all__"] else next_obs

    return run


def _vector_rollout():
    """One call: one batched act/step/observe cycle of ``N_ENVS`` envs, the
    same env-step count as a scalar call."""
    vec_env = make_baseline_vector_env(N_ENVS)
    algo = make_baseline("idqn", vec_env, seed=0)
    algo.epsilon = EPSILON
    state = {"obs": vec_env.reset(0)}

    def run():
        obs = state["obs"]
        actions = algo.act_batch(obs, explore=True)
        next_obs, rewards, dones, _ = vec_env.step(actions)
        algo.observe_batch(obs, actions, rewards, next_obs, dones)
        state["obs"] = next_obs

    return run


def test_baseline_rollout_speedup():
    """The ISSUE 2 acceptance check: >= 3x at N = 8.

    Both rollouts advance in alternating paired windows, so a host speed
    phase lands on both sides of a window's ratio; the assert reads the
    median ratio.  On shared CI runners wall-clock ratios are noisy, so
    under ``CI`` the measurement is report-only (regressions are caught by
    the perf-gate job, which compares single-machine means); locally the
    ratio is a hard assertion.
    """
    # A window times ROLLOUT_STEPS / 2 scalar env-steps; the vector side
    # gets TARGET_SPEEDUP times the calls so both halves span comparable
    # wall time at the target ratio.
    rounds = max(ROLLOUT_STEPS // (2 * N_ENVS), 1)
    vector_rounds = int(rounds * TARGET_SPEEDUP)
    speedup, scalar_s, vector_s = _time_rounds_paired(
        _scalar_rollout(), _vector_rollout(), rounds, rounds_b=vector_rounds
    )
    scalar = rounds * N_ENVS / scalar_s
    vector = vector_rounds * N_ENVS / vector_s
    print(
        f"\nscalar idqn: {scalar:.0f} env-steps/s | "
        f"vector(N={N_ENVS}): {vector:.0f} env-steps/s | "
        f"{speedup:.2f}x (median paired ratio)"
    )
    if os.environ.get("CI"):
        if speedup < TARGET_SPEEDUP:
            print(
                f"WARNING: {speedup:.2f}x below the {TARGET_SPEEDUP}x target "
                "(report-only on shared CI runners)"
            )
        return
    assert speedup >= TARGET_SPEEDUP, (
        f"vectorized baseline rollout only {speedup:.2f}x over scalar "
        f"(need >= {TARGET_SPEEDUP}x): {vector:.0f} vs {scalar:.0f} env-steps/s"
    )


def test_baseline_vector_cycle(benchmark):
    """One batched act/step/observe cycle (N=8) for the perf gate."""
    vec_env = make_baseline_vector_env(N_ENVS)
    algo = make_baseline("idqn", vec_env, seed=0)
    algo.epsilon = EPSILON
    state = {"obs": vec_env.reset(0)}

    def cycle():
        actions = algo.act_batch(state["obs"], explore=True)
        next_obs, rewards, dones, _ = vec_env.step(actions)
        algo.observe_batch(state["obs"], actions, rewards, next_obs, dones)
        state["obs"] = next_obs

    benchmark(cycle)


def test_vectorized_training_matches_scalar_sample():
    """Cheap cross-check that the batched act path is live and agrees with
    the scalar algorithm at one env (the full equivalence matrix lives in
    tests/test_baseline_vectorized.py)."""
    env = make_baseline_env()
    vec_env = make_baseline_vector_env(1)
    algo_scalar = make_baseline("idqn", env, seed=0)
    algo_vec = make_baseline("idqn", vec_env, seed=0)
    algo_scalar.epsilon = algo_vec.epsilon = EPSILON
    assert vec_env.fast_path
    obs = env.reset(seed=0)
    stacked = vec_env.reset([0])
    for k, agent in enumerate(env.agents):
        np.testing.assert_array_equal(stacked[0, k], obs[agent])
    for _ in range(5):
        scalar_actions = algo_scalar.act(obs, explore=True)
        batch_actions = algo_vec.act_batch(stacked, explore=True)
        assert all(
            batch_actions[0, k] == scalar_actions[agent]
            for k, agent in enumerate(env.agents)
        )
        obs, _, dones, _ = env.step(scalar_actions)
        stacked, _, _, _ = vec_env.step(batch_actions)
        if dones["__all__"]:  # re-seed both sides across the reset boundary
            obs = env.reset(seed=123)
            stacked = vec_env.reset_env(0, seed=123)[None]
        for k, agent in enumerate(env.agents):
            np.testing.assert_array_equal(stacked[0, k], obs[agent])
