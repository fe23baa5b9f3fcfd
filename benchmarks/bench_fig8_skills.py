"""Fig. 8 — low-level skill training benchmark (lane keeping, lane change).

Measures one full Algorithm-2 skill-training run at a documented scale and
prints the two reward curves with the paper's shape checks (both converge;
lane change has an exploration phase before take-off).

``test_concurrent_skill_training_speedup`` guards the two-process
Algorithm 2: ``train_low_level_skills`` (lane change in a child process
while the parent trains lane keeping) against the same two
``train_skill`` calls run one after the other, on the ``skills`` workload's
configuration (benchmark scenario, fused updates, 20 episodes per skill).
The two sides are timed in alternating rounds and the median paired ratio
must reach **1.15x**.  Same policy as the other local ratio asserts:
report-only under ``CI``; with fewer than two usable CPUs the ratio cannot
show, so it prints ``unverified`` instead of asserting.  Bitwise equality
of the two sides is locked by ``tests/test_skill_training.py``.
"""

import os

import numpy as np
from bench_update_phase import _time_rounds_paired, _usable_cpus

from repro.config import TrainingConfig
from repro.core import SkillLibrary, UpdateEngine, train_low_level_skills, train_skill
from repro.envs import LaneChangeEnv, LaneKeepingEnv, low_level_obs_dim
from repro.experiments.common import bench_scenario
from repro.experiments.fig8 import report_fig8, run_fig8

SCALE = float(os.environ.get("REPRO_BENCH_SCALE_FIG8", "0.02"))
RATIO_EPISODES = 20  # per skill: the skills workload's pass
RATIO_ROUNDS = 12
TARGET_CONCURRENT_SPEEDUP = 1.15


def test_fig8_skill_training(benchmark):
    outputs = benchmark.pedantic(
        run_fig8, kwargs={"scale": SCALE, "seed": 0}, rounds=1, iterations=1
    )
    keeping = outputs["a_lane_keeping"]
    change = outputs["b_lane_change"]
    assert len(keeping) > 0 and len(change) > 0
    assert np.all(np.isfinite(keeping)) and np.all(np.isfinite(change))

    checks = report_fig8(outputs)
    passed = sum(1 for _, ok in checks if ok)
    print(f"\nFig. 8 shape checks passed: {passed}/{len(checks)}")
    # Convergence of the skills is required at any scale — they are the
    # substrate for every other experiment.
    assert keeping[-max(len(keeping) // 3, 1):].mean() > keeping[: max(len(keeping) // 3, 1)].mean()


def _skills_config() -> TrainingConfig:
    config = TrainingConfig(seed=7)
    config.scenario = bench_scenario()
    return config


def _sequential_skills(config: TrainingConfig) -> None:
    """Algorithm 2 as two train_skill calls, one after the other."""
    skills = SkillLibrary(
        low_level_obs_dim(config.scenario),
        np.random.default_rng(config.seed),
        hyper=config.hyper,
    )
    for agent, env_cls, seed, prefix in (
        (skills.driving_in_lane, LaneKeepingEnv, config.seed, "lane_keeping"),
        (skills.lane_change, LaneChangeEnv, config.seed + 1, "lane_change"),
    ):
        train_skill(
            env_cls(config.scenario, config.rewards),
            agent,
            episodes=RATIO_EPISODES,
            seed=seed,
            log_prefix=prefix,
            engine=UpdateEngine(agent),
        )


def test_concurrent_skill_training_speedup():
    config = _skills_config()
    speedup, sequential_s, concurrent_s = _time_rounds_paired(
        lambda: _sequential_skills(config),
        lambda: train_low_level_skills(config, episodes=RATIO_EPISODES),
        rounds=1,
        repeats=RATIO_ROUNDS,
    )
    cpus = _usable_cpus()
    print(
        f"\nAlgorithm 2, {RATIO_EPISODES} episodes per skill, {cpus} usable CPUs: "
        f"sequential {sequential_s:.3f} s | concurrent {concurrent_s:.3f} s | "
        f"median paired ratio {speedup:.2f}x over {RATIO_ROUNDS} rounds"
    )
    if cpus < 2:
        print(
            f"unverified: {cpus} usable CPU (the {TARGET_CONCURRENT_SPEEDUP}x "
            "assertion needs two, one per skill)"
        )
        return
    if os.environ.get("CI"):
        if speedup < TARGET_CONCURRENT_SPEEDUP:
            print(
                f"WARNING: {speedup:.2f}x below the {TARGET_CONCURRENT_SPEEDUP}x "
                "target (report-only on shared CI runners)"
            )
        return
    assert speedup >= TARGET_CONCURRENT_SPEEDUP, (
        f"concurrent Algorithm 2 only {speedup:.2f}x over sequential skill "
        f"training (need >= {TARGET_CONCURRENT_SPEEDUP}x): {concurrent_s:.3f} s "
        f"vs {sequential_s:.3f} s"
    )
