"""Fig. 7 — learning curves of HERO vs the four baselines.

Panels: (a) mean episode reward, (b) collision rate, (c) lane-change
(merge) success rate. Shape targets from the paper:

* HERO reaches the highest episode reward (and the highest curve floor),
* almost every method lowers its collision rate by the end except MADDPG,
* Independent DQN's success rate collapses toward 0 (it learns to crawl
  behind the congestion instead of merging) while HERO merges reliably.
"""

from __future__ import annotations

import numpy as np

from .common import ExperimentResult, train_all_methods
from .reporting import _separated, curve_summary, print_learning_curves, shape_check

PANELS = {
    "a_mean_episode_reward": ("eval_episode_reward", True),
    "b_collision_rate": ("eval_collision_rate", False),
    "c_merge_success_rate": ("eval_merge_success_rate", True),
}


def run_fig7(
    scale: float = 0.02,
    seed: int = 0,
    result: ExperimentResult | None = None,
    num_envs: int = 1,
    fused_updates: bool = False,
    async_actors: bool = False,
    max_staleness: int = 0,
    num_actors: int = 1,
) -> dict:
    """Train all methods and collect the three Fig. 7 panels.

    Curves are the periodic *greedy-evaluation* series (exploration-free),
    matching how learning curves are reported; the raw training-rollout
    series remain available in each method's logger.  With ``num_envs > 1``
    both training rollouts and these interleaved evaluations run
    vectorized (``evaluate_hero_vectorized`` / ``evaluate_marl_vectorized``),
    so the curves arrive at batched-rollout speed end to end.
    """
    result = result or train_all_methods(
        scale=scale,
        seed=seed,
        num_envs=num_envs,
        fused_updates=fused_updates,
        async_actors=async_actors,
        max_staleness=max_staleness,
        num_actors=num_actors,
    )
    panels: dict[str, dict[str, np.ndarray]] = {}
    for panel, (metric, _) in PANELS.items():
        panels[panel] = {
            method: result.series(method, metric) for method in result.methods
        }
    return {"panels": panels, "result": result}


def report_fig7(outputs: dict) -> list[tuple[str, bool]]:
    """Print the three panels and evaluate the paper's shape claims."""
    panels = outputs["panels"]
    checks = []
    for panel, (metric, higher_better) in PANELS.items():
        print_learning_curves(
            f"Fig. 7({panel[0]}) {metric}", panels[panel], higher_is_better=higher_better
        )

    late = {
        method: curve_summary(values)["tail"]
        for method, values in panels["a_mean_episode_reward"].items()
    }
    hero_best = late.get("hero", -np.inf) >= max(
        v for k, v in late.items() if k != "hero"
    ) - 1e-9 and _separated(late)
    checks.append(
        shape_check(
            "HERO reaches the highest converged episode reward",
            hero_best,
            ", ".join(f"{k}={v:.2f}" for k, v in sorted(late.items())),
        )
    )

    collisions = {
        method: curve_summary(values)["tail"]
        for method, values in panels["b_collision_rate"].items()
    }
    if "hero" in collisions:
        others = [v for k, v in collisions.items() if k not in ("hero",)]
        checks.append(
            shape_check(
                "HERO is among the lowest converged collision rates",
                collisions["hero"] <= min(others) + 0.15 and _separated(collisions),
                ", ".join(f"{k}={v:.2f}" for k, v in sorted(collisions.items())),
            )
        )
    if "maddpg" in collisions:
        checks.append(
            shape_check(
                "MADDPG keeps a comparatively high collision rate",
                collisions["maddpg"] >= np.median(list(collisions.values())) - 1e-9
                and _separated(collisions),
                f"maddpg={collisions['maddpg']:.2f}",
            )
        )

    success = {
        method: curve_summary(values)["tail"]
        for method, values in panels["c_merge_success_rate"].items()
    }
    if "hero" in success and "idqn" in success:
        checks.append(
            shape_check(
                "HERO merges far more reliably than Independent DQN",
                success["hero"] > success["idqn"] + 0.1,
                f"hero={success['hero']:.2f} idqn={success['idqn']:.2f}",
            )
        )
    return checks
