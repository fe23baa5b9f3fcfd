"""Table II — evaluation on the (simulated) real-world testbed.

Paper rows (collision rate / success rate / mean speed over 20 episodes):

    COMA            0.35 / 0.65 / 0.0634
    Independent DQN 1.0  / 0.0  / 0.0540
    MAAC            0.25 / 0.65 / 0.0625
    MADDPG          0.95 / 0.5  / 0.0703
    Ours (HERO)     0.2  / 0.8  / 0.072

Shape targets under our domain-shift testbed (DESIGN.md §2):

* HERO keeps the lowest collision rate and the highest success rate,
* Independent DQN degrades the most (its brittle greedy policy breaks
  under sensor noise and actuation delay),
* MADDPG stays collision-prone.
"""

from __future__ import annotations

import os

from ..config import TestbedConfig
from ..envs import (
    CooperativeLaneChangeEnv,
    DiscreteActionWrapper,
    FlattenObservationWrapper,
    RealWorldTestbed,
)
from .common import METHOD_NAMES, ExperimentResult, TrainedMethod, train_all_methods
from .reporting import _separated, print_metric_table, shape_check

PAPER_ROWS = {
    "coma": {"collision_rate": 0.35, "success_rate": 0.65, "mean_speed": 0.06344},
    "idqn": {"collision_rate": 1.0, "success_rate": 0.0, "mean_speed": 0.05395},
    "maac": {"collision_rate": 0.25, "success_rate": 0.65, "mean_speed": 0.0625},
    "maddpg": {"collision_rate": 0.95, "success_rate": 0.5, "mean_speed": 0.07029},
    "hero": {"collision_rate": 0.2, "success_rate": 0.8, "mean_speed": 0.072},
}


def _testbed_env_for(name: str, result: ExperimentResult, trained, seed: int):
    """Build the domain-shifted env matching the method's training stack."""
    config = TestbedConfig()
    if name == "hero":
        base = trained.controller.env  # any env of the team's scenario would do
        return RealWorldTestbed(base, config, seed=seed)
    base = CooperativeLaneChangeEnv(scenario=result.scenario, rewards=result.rewards)
    shifted = RealWorldTestbed(base, config, seed=seed)
    return DiscreteActionWrapper(_FlattenShifted(shifted))


class _FlattenShifted:
    """Flatten dict observations coming out of the testbed wrapper."""

    def __init__(self, env: RealWorldTestbed):
        self.env = env
        self.agents = list(env.agents)
        self.action_spaces = dict(env.action_spaces)
        self.observation_spaces = dict(env.observation_spaces)

    def reset(self, seed=None):
        obs = self.env.reset(seed)
        return {a: FlattenObservationWrapper.flatten(o) for a, o in obs.items()}

    def step(self, actions):
        obs, rewards, dones, info = self.env.step(actions)
        return (
            {a: FlattenObservationWrapper.flatten(o) for a, o in obs.items()},
            rewards,
            dones,
            info,
        )


def _checkpoint_paths(checkpoint_dir: str, methods: list[str]) -> dict[str, str]:
    return {name: os.path.join(checkpoint_dir, f"{name}.npz") for name in methods}


def _load_methods(checkpoint_dir: str, methods: list[str]) -> ExperimentResult | None:
    """Rebuild a full sweep result from persisted checkpoints, if complete."""
    paths = _checkpoint_paths(checkpoint_dir, methods)
    if not all(os.path.exists(p) for p in paths.values()):
        return None
    loaded = {name: TrainedMethod.from_checkpoint(p) for name, p in paths.items()}
    any_method = next(iter(loaded.values()))
    return ExperimentResult(
        methods=loaded,
        scenario=any_method.scenario,
        rewards=any_method.rewards,
    )


def _persist_methods(result: ExperimentResult, checkpoint_dir: str) -> dict[str, str]:
    """Write one serving checkpoint per trained method; returns the paths."""
    os.makedirs(checkpoint_dir, exist_ok=True)
    paths = _checkpoint_paths(checkpoint_dir, list(result.methods))
    for name, trained in result.methods.items():
        trained.to_checkpoint(paths[name])
    return paths


def run_table2(
    scale: float = 0.02,
    seed: int = 0,
    eval_episodes: int = 20,
    result: ExperimentResult | None = None,
    num_envs: int = 1,
    fused_updates: bool = False,
    async_actors: bool = False,
    max_staleness: int = 0,
    num_actors: int = 1,
    checkpoint_dir: str | None = None,
) -> dict:
    """Train all methods (vectorized when ``num_envs > 1``, including the
    interleaved greedy evaluations) and score each on the domain-shifted
    testbed.

    The final Table 2 evaluation itself stays scalar regardless of
    ``num_envs``: :class:`~repro.envs.testbed.RealWorldTestbed` injects
    per-step sensor noise and actuation delay that the stacked
    ``VectorEnv`` kernels cannot express, so these 20 episodes step one
    env at a time.  That is not a trivial cost at small scales: in a
    traced run of the end-to-end benchmark's ``team`` workload (112
    training episodes per method, 2-vCPU Xeon VM) the testbed's scalar
    steps take 1.3 s of a 16.6 s pass.

    ``checkpoint_dir`` (optional) persists each trained method as a
    versioned serving checkpoint (``<dir>/<method>.npz``).  If the
    directory already holds a checkpoint for every method, the testbed
    phase reloads them instead of retraining — training curves are not
    part of a checkpoint, so a reloaded sweep reports testbed rows only.
    """
    if result is None and checkpoint_dir is not None:
        result = _load_methods(checkpoint_dir, METHOD_NAMES)
    freshly_trained = result is None
    result = result or train_all_methods(
        scale=scale,
        seed=seed,
        num_envs=num_envs,
        fused_updates=fused_updates,
        async_actors=async_actors,
        max_staleness=max_staleness,
        num_actors=num_actors,
    )
    if freshly_trained and checkpoint_dir is not None:
        _persist_methods(result, checkpoint_dir)
    rows = {}
    for name, trained in result.methods.items():
        env = _testbed_env_for(name, result, trained, seed + 7)
        metrics = trained.evaluate(env, eval_episodes, seed + 200)
        rows[name] = {
            "collision_rate": metrics["collision_rate"],
            "success_rate": metrics["success_rate"],
            "mean_speed": metrics["mean_speed"],
        }
    return {"rows": rows, "paper": PAPER_ROWS, "result": result}


def report_table2(outputs: dict) -> list[tuple[str, bool]]:
    rows = outputs["rows"]
    print_metric_table(
        "Table II (measured, domain-shifted testbed)",
        rows,
        columns=["collision_rate", "success_rate", "mean_speed"],
    )
    print_metric_table(
        "Table II (paper, physical testbed)",
        {k: v for k, v in outputs["paper"].items() if k in rows},
        columns=["collision_rate", "success_rate", "mean_speed"],
    )
    checks = []
    collisions = {k: v["collision_rate"] for k, v in rows.items()}
    successes = {k: v["success_rate"] for k, v in rows.items()}
    if "hero" in rows:
        others = [k for k in rows if k != "hero"]
        if others:
            checks.append(
                shape_check(
                    "HERO has the lowest testbed collision rate",
                    collisions["hero"] <= min(collisions[k] for k in others) + 0.1
                    and _separated(collisions),
                )
            )
            checks.append(
                shape_check(
                    "HERO has the highest testbed success rate",
                    successes["hero"] >= max(successes[k] for k in others) - 0.1
                    and _separated(successes),
                )
            )
    if "idqn" in rows and "hero" in rows:
        pair = {k: successes[k] for k in ("hero", "idqn")}
        checks.append(
            shape_check(
                "Independent DQN degrades under domain shift",
                pair["idqn"] <= pair["hero"] and _separated(pair),
            )
        )
    return checks
