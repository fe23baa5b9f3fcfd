"""Fig. 7 — learning-curve benchmark (reward / collision / merge success).

Regenerates the three panels of Fig. 7 for HERO and the four baselines and
prints the early/mid/late curve summaries plus the paper's shape checks.
The heavy training happens once in the session-scoped ``shared_sweep``
fixture; the benchmark itself measures the per-episode evaluation cost of
each trained controller (the quantity that determines how long a sweep
takes at any scale).
"""

import numpy as np

from repro.envs import make_baseline_env
from repro.experiments.fig7 import PANELS, report_fig7, run_fig7


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
