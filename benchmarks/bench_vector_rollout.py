"""Vectorized-rollout throughput: one N=8 batch vs eight one-env batches.

Not a paper table — this is the scaling guard for the training hot path.
The contract: at ``N = 8`` vectorized envs the batched rollout
(``VectorEnv`` + ``BatchedHeroRunner``) must sustain **at least 4x** the
aggregate env-steps/sec of the same cycle on a one-env ``VectorEnv``,
which is what training at the CLI's default ``--num-envs 1`` runs.

``test_vector_rollout_speedup`` measures the ratio in alternating paired
windows (``bench_update_phase._time_rounds_paired``) and asserts on the
median paired ratio; the ``benchmark``-fixture tests record the per-step
costs that feed the CI perf gate (``benchmarks/check_regression.py``).
"""

from __future__ import annotations

import os

import numpy as np
from bench_update_phase import _time_rounds_paired

from repro.core.batched import BatchedHeroRunner
from repro.core.hero import HeroTeam
from repro.envs import CooperativeLaneChangeEnv, VectorEnv

N_ENVS = 8
TARGET_SPEEDUP = 4.0
ROLLOUT_STEPS = int(os.environ.get("REPRO_BENCH_ROLLOUT_STEPS", "300"))


def _cycle(num_envs: int):
    """One act/step/after_step cycle of a ``num_envs`` batch (VectorEnv +
    BatchedHeroRunner)."""
    vec_env = VectorEnv(num_envs)
    team = HeroTeam(CooperativeLaneChangeEnv(), np.random.default_rng(0))
    runner = BatchedHeroRunner(team, vec_env)
    state = {"obs": vec_env.reset(0)}

    def cycle():
        actions = runner.act(state["obs"], epsilon=0.1, explore=True)
        state["obs"], rewards, dones, infos = vec_env.step(actions)
        runner.after_step(state["obs"], rewards, dones, infos)

    return cycle


def _one_env_rollout():
    """One call: ``N_ENVS`` one-env cycles, the ``--num-envs 1`` loop."""
    cycle = _cycle(1)

    def run():
        for _ in range(N_ENVS):
            cycle()

    return run


def test_vector_rollout_speedup():
    """The headline acceptance check: >= 4x at N = 8 over one env.

    Both rollouts advance in alternating paired windows, so a host speed
    phase lands on both sides of a window's ratio; the assert reads the
    median ratio.  On shared CI runners wall-clock ratios are noisy, so
    under ``CI`` the measurement is report-only (regressions are caught by
    the perf-gate job, which compares single-machine means); locally the
    ratio is a hard assertion.
    """
    # A window times ROLLOUT_STEPS / 2 one-env env-steps; the N=8 side
    # gets TARGET_SPEEDUP times the calls so both halves span comparable
    # wall time at the target ratio.
    rounds = max(ROLLOUT_STEPS // (2 * N_ENVS), 1)
    vector_rounds = int(rounds * TARGET_SPEEDUP)
    speedup, one_env_s, vector_s = _time_rounds_paired(
        _one_env_rollout(), _cycle(N_ENVS), rounds, rounds_b=vector_rounds
    )
    one_env = rounds * N_ENVS / one_env_s
    vector = vector_rounds * N_ENVS / vector_s
    print(
        f"\none-env: {one_env:.0f} env-steps/s | "
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
        f"vectorized rollout only {speedup:.2f}x over one env "
        f"(need >= {TARGET_SPEEDUP}x): {vector:.0f} vs {one_env:.0f} env-steps/s"
    )


def test_vector_env_step(benchmark):
    """One vectorized env step (N=8, fixed actions) for the perf gate."""
    vec_env = VectorEnv(N_ENVS)
    vec_env.reset(0)
    rng = np.random.default_rng(0)
    actions = rng.uniform(
        [0.0, -0.5], [0.3, 0.5], size=(N_ENVS, vec_env.num_agents, 2)
    )
    benchmark(lambda: vec_env.step(actions))


def test_batched_rollout_step(benchmark):
    """One full act/step/after_step cycle of the batched rollout."""
    benchmark(_cycle(N_ENVS))


def test_vector_env_matches_scalar_sample():
    """Cheap cross-check that the fast path is active and agrees bitwise."""
    vec_env = VectorEnv(2)
    assert vec_env.fast_path
    scalar = CooperativeLaneChangeEnv()
    obs_vec = vec_env.reset([7, 8])
    obs_scalar = scalar.reset(seed=7)
    rng = np.random.default_rng(3)
    for _ in range(5):
        actions = rng.uniform([0.0, -0.5], [0.3, 0.5], size=(2, vec_env.num_agents, 2))
        obs_vec, _, _, _ = vec_env.step(actions)
        action_dict = {
            agent: actions[0, k] for k, agent in enumerate(scalar.agents)
        }
        obs_scalar, _, dones, _ = scalar.step(action_dict)
        if dones["__all__"]:
            obs_scalar = scalar.reset()
        for k, agent in enumerate(scalar.agents):
            for key, value in obs_scalar[agent].items():
                np.testing.assert_array_equal(obs_vec[key][0, k], value)
