"""Fig. 11 — mean vehicle speed of each trained method in simulation.

Shape targets (paper: HERO highest at ~0.08, MAAC lowest at ~0.048):

* HERO achieves the highest mean speed,
* the spread between the fastest and slowest methods is material
  (cooperation lets HERO keep moving instead of crawling).
"""

from __future__ import annotations

from ..envs import make_baseline_env
from ..utils.jobs import Job, run_jobs
from .common import ExperimentResult, train_all_methods
from .reporting import _separated, print_metric_table, shape_check


def run_fig11(
    scale: float = 0.02,
    seed: int = 0,
    eval_episodes: int = 10,
    result: ExperimentResult | None = None,
    num_envs: int = 1,
    async_actors: bool = False,
    max_staleness: int = 0,
    num_actors: int = 1,
) -> dict:
    result = result or train_all_methods(
        scale=scale,
        seed=seed,
        num_envs=num_envs,
        async_actors=async_actors,
        max_staleness=max_staleness,
        num_actors=num_actors,
    )
    # The methods are scored side by side, one job each; every score is
    # bitwise the one computed in this process.
    names = list(result.methods)
    scores = run_jobs(
        Job(f"fig11 {name}", _simulated_score, (name, result, seed, eval_episodes))
        for name in names
    )
    return {
        "mean_speed": {name: m["mean_speed"] for name, m in zip(names, scores)},
        "collision_rate": {name: m["collision_rate"] for name, m in zip(names, scores)},
        "result": result,
    }


def _simulated_score(name: str, result: ExperimentResult, seed: int, eval_episodes: int) -> dict:
    """One method's greedy evaluation in simulation (a run_jobs job)."""
    trained = result.methods[name]
    if name == "hero":
        # Any scalar env of the scenario works; reuse the team's.
        env = trained.controller.env
    else:
        env = make_baseline_env(scenario=result.scenario, rewards=result.rewards)
    return trained.evaluate(env, eval_episodes, seed + 100)


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
        compared = {"hero": speeds["hero"], **others}
        checks.append(
            shape_check(
                "HERO reaches the highest mean speed among non-crashing policies",
                speeds["hero"] >= max(others.values()) - 1e-9 and _separated(compared),
                ", ".join(f"{k}={v:.3f}" for k, v in sorted(speeds.items())),
            )
        )
    if "maac" in speeds and len(speeds) > 1:
        checks.append(
            shape_check(
                "MAAC is the slowest converged policy (paper: 0.048 lowest)",
                speeds["maac"] <= min(v for k, v in speeds.items() if k != "maac") + 1e-9
                and _separated(speeds),
                f"maac={speeds['maac']:.3f}",
            )
        )
    return checks
