"""Fig. 10 — opponent-model loss benchmark.

Trains HERO alone (the opponent models train inside Algorithm 1) and
prints the per-opponent NLL curves from vehicle 2's perspective with the
paper's shape checks (losses decrease; convergence speeds differ).
"""

import copy

import numpy as np

from repro.core import UpdateEngine
from repro.experiments.fig10 import report_fig10, run_fig10


def test_fig10_opponent_model_loss(shared_sweep, benchmark):
    outputs = run_fig10(result=shared_sweep)
    curves = outputs["curves"]
    assert len(curves) >= 2, "expected one NLL curve per modeled opponent"
    for name, values in curves.items():
        assert len(values) > 0
        assert np.all(np.isfinite(values))

    checks = report_fig10(outputs)
    passed = sum(1 for _, ok in checks if ok)
    print(f"\nFig. 10 shape checks passed: {passed}/{len(checks)}")

    # Benchmark: one gradient round of (a copy of) the trained team on its
    # update engine; every agent's opponent predictors train in the
    # engine's opponent family, beside the critics and actors.
    team = copy.deepcopy(shared_sweep.methods["hero"].controller)
    result = benchmark(UpdateEngine(team).update)
    assert any(key.endswith("_nll") for key in result)
    assert all(np.isfinite(v) for v in result.values())
