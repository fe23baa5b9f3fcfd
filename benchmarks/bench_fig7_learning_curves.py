"""Fig. 7 — learning-curve benchmark (reward / collision / merge success).

Regenerates the three panels of Fig. 7 for HERO and the four baselines and
prints the early/mid/late curve summaries plus the paper's shape checks.
The heavy training happens once in the session-scoped ``shared_sweep``
fixture; the benchmark itself measures the per-episode evaluation cost of
each trained controller (the quantity that determines how long a sweep
takes at any scale).

``test_methods_side_by_side_speedup`` guards the side-by-side sweep:
``train_all_methods`` plus ``run_table2`` with the methods trained and
scored in worker processes, against the same calls forced in-process by
a one-CPU affinity, on the ``team`` workload's shape (8 envs, fused
updates, the skill floor) at bench scale.  The two sides are timed in
alternating rounds and the median paired ratio must reach **1.3x**.
Same policy as the other local ratio asserts: report-only under ``CI``;
with fewer than two usable CPUs it prints ``unverified``.  Bitwise
equality of the two sides is locked by ``tests/test_experiments.py``.
"""

import os
from unittest import mock

import numpy as np
from bench_update_phase import _time_rounds_paired, _usable_cpus

from repro.envs import make_baseline_env
from repro.experiments.common import train_all_methods
from repro.experiments.fig7 import PANELS, report_fig7, run_fig7
from repro.experiments.table2 import run_table2

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.01"))
RATIO_ROUNDS = 4
TARGET_SIDE_BY_SIDE_SPEEDUP = 1.3


def test_fig7_panels_and_shape(shared_sweep, benchmark):
    outputs = run_fig7(result=shared_sweep)

    for panel in PANELS:
        series = outputs["panels"][panel]
        assert set(series) == set(shared_sweep.methods)
        for method, values in series.items():
            assert len(values) > 0, f"{method} has no {panel} series"
            assert np.all(np.isfinite(values))

    checks = report_fig7(outputs)
    passed = sum(1 for _, ok in checks if ok)
    print(f"\nFig. 7 shape checks passed: {passed}/{len(checks)} "
          f"(at bench scale; docs/REPRODUCING.md gives full-scale commands)")

    # Benchmark: one greedy evaluation episode of the trained HERO team.
    hero = shared_sweep.methods["hero"]
    env = hero.controller.env

    def evaluate_once():
        return hero.evaluate(env, episodes=1, eval_seed=123)

    result = benchmark(evaluate_once)
    assert 0.0 <= result["collision_rate"] <= 1.0


def test_fig7_baseline_evaluation_cost(shared_sweep, benchmark):
    """Evaluation throughput of the discrete-action baseline stack."""
    idqn = shared_sweep.methods["idqn"]
    env = make_baseline_env(
        scenario=shared_sweep.scenario, rewards=shared_sweep.rewards
    )

    def evaluate_once():
        return idqn.evaluate(env, episodes=1, eval_seed=123)

    result = benchmark(evaluate_once)
    assert 0.0 <= result["collision_rate"] <= 1.0


def _sweep_and_table2(seed: int = 7) -> None:
    result = train_all_methods(
        scale=SCALE, seed=seed, skill_scale=0.0, num_envs=8
    )
    run_table2(seed=seed, result=result)


def _in_process_sweep_and_table2() -> None:
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}):
        _sweep_and_table2()


def test_methods_side_by_side_speedup():
    speedup, in_process_s, side_by_side_s = _time_rounds_paired(
        _in_process_sweep_and_table2,
        _sweep_and_table2,
        rounds=1,
        repeats=RATIO_ROUNDS,
    )
    cpus = _usable_cpus()
    print(
        f"\ntrain_all_methods + run_table2 at scale {SCALE}, {cpus} usable "
        f"CPUs: in-process {in_process_s:.3f} s | side by side "
        f"{side_by_side_s:.3f} s | median paired ratio {speedup:.2f}x over "
        f"{RATIO_ROUNDS} rounds"
    )
    if cpus < 2:
        print(
            f"unverified: {cpus} usable CPU (the {TARGET_SIDE_BY_SIDE_SPEEDUP}x "
            "assertion needs two)"
        )
        return
    if os.environ.get("CI"):
        if speedup < TARGET_SIDE_BY_SIDE_SPEEDUP:
            print(
                f"WARNING: {speedup:.2f}x below the {TARGET_SIDE_BY_SIDE_SPEEDUP}x "
                "target (report-only on shared CI runners)"
            )
        return
    assert speedup >= TARGET_SIDE_BY_SIDE_SPEEDUP, (
        f"side-by-side methods only {speedup:.2f}x over in-process training "
        f"and scoring (need >= {TARGET_SIDE_BY_SIDE_SPEEDUP}x): "
        f"{side_by_side_s:.3f} s vs {in_process_s:.3f} s"
    )
