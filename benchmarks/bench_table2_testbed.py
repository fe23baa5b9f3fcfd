"""Table II — domain-shifted testbed evaluation benchmark.

Evaluates every trained method for 20 episodes on the perturbed testbed
(docs/REPRODUCING.md, "Substitutions": the stand-in for the physical
Smartbot track) and prints the measured rows next to the paper's rows.
"""

from repro.experiments.table2 import report_table2, run_table2


def test_table2_testbed_rows(shared_sweep, benchmark):
    outputs = benchmark.pedantic(
        run_table2,
        kwargs={"result": shared_sweep, "eval_episodes": 20},
        rounds=1,
        iterations=1,
    )
    rows = outputs["rows"]
    assert set(rows) == set(shared_sweep.methods)
    for method, metrics in rows.items():
        assert 0.0 <= metrics["collision_rate"] <= 1.0
        assert 0.0 <= metrics["success_rate"] <= 1.0
        assert metrics["mean_speed"] >= 0.0

    checks = report_table2(outputs)
    passed = sum(1 for _, ok in checks if ok)
    print(f"\nTable II shape checks passed: {passed}/{len(checks)}")
