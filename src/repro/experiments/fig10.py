"""Fig. 10 — opponent-model loss from one vehicle's perspective.

The paper plots vehicle 2's loss when modeling vehicle 1 (fast
convergence) and vehicle 3 (slower; converges only after ~12k episodes at
paper scale). Shape targets:

* every opponent-model NLL decreases over training,
* the per-opponent convergence speeds differ (they model different
  interaction strengths).
"""

from __future__ import annotations

import numpy as np

from .common import ExperimentResult, train_all_methods
from .reporting import curve_summary, print_learning_curves, shape_check

OBSERVER = "vehicle_1"  # "vehicle 2" in the paper's 1-based numbering


def run_fig10(
    scale: float = 0.02,
    seed: int = 0,
    result: ExperimentResult | None = None,
    num_envs: int = 1,
    async_actors: bool = False,
    max_staleness: int = 0,
    num_actors: int = 1,
) -> dict:
    result = result or train_all_methods(
        scale=scale,
        seed=seed,
        methods=["hero"],
        num_envs=num_envs,
        async_actors=async_actors,
        max_staleness=max_staleness,
        num_actors=num_actors,
    )
    logger = result.methods["hero"].logger
    curves = {}
    for name in logger.names():
        if name.startswith(f"hero/{OBSERVER}/opponent_") and name.endswith("_nll"):
            short = name.split("/")[-1].replace("_nll", "")
            curves[short] = logger.values(name)
    return {"curves": curves, "result": result}


def report_fig10(outputs: dict) -> list[tuple[str, bool]]:
    curves = outputs["curves"]
    print_learning_curves(
        f"Fig. 10 opponent-model NLL ({OBSERVER}'s perspective)",
        curves,
        higher_is_better=False,
    )
    checks = []
    summaries = {name: curve_summary(values) for name, values in curves.items()}
    for name, summary in summaries.items():
        checks.append(
            shape_check(
                f"{name} model loss decreases",
                summary["late"] < summary["early"],
                f"early={summary['early']:.3f} late={summary['late']:.3f}",
            )
        )
    if len(summaries) >= 2:
        speeds = {
            name: summary["early"] - summary["late"]
            for name, summary in summaries.items()
        }
        values = sorted(speeds.values())
        checks.append(
            shape_check(
                "per-opponent convergence speeds differ",
                not np.isclose(values[0], values[-1], atol=1e-3),
                ", ".join(f"{k}={v:.3f}" for k, v in speeds.items()),
            )
        )
    return checks
