#!/usr/bin/env python
"""CI smoke: one Table 2 matrix cell per baseline on the training loop.

Trains one baseline for a handful of episodes with ``--num-envs``
vectorized env copies (the exact stack ``repro run table2 --num-envs N``
uses) and evaluates its domain-shifted Table 2 testbed cell.

``--dtype float32`` runs the whole cell (training and evaluation) under
the reduced-precision compute path: the numbers differ from float64
within the tolerance contract documented in docs/ARCHITECTURE.md
(Precision).  Every gradient step runs through ``core.update_engine``
(IDQN, MADDPG and MAAC on their fused engines, COMA on its own update);
``tests/test_update_engine.py`` holds each engine to its per-network
reference at both dtypes.

Usage::

    PYTHONPATH=src python benchmarks/smoke_table2_cell.py idqn \
        --episodes 2 --num-envs 2 --dtype float32
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.baselines import BASELINES
from repro.config import RewardConfig, TestbedConfig
from repro.envs import CooperativeLaneChangeEnv, DiscreteActionWrapper, RealWorldTestbed
from repro.experiments.common import bench_scenario, train_baseline_method
from repro.experiments.table2 import _FlattenShifted
from repro.nn.tensor import default_dtype


def run_cell(name: str, episodes: int, num_envs: int, seed: int) -> dict:
    """Train one baseline vectorized and evaluate its Table 2 cell."""
    scenario = bench_scenario()
    rewards = RewardConfig()
    trained = train_baseline_method(
        name,
        scenario,
        rewards,
        episodes=episodes,
        seed=seed,
        num_envs=num_envs,
    )
    recorded = len(trained.logger.values(f"{name}/episode_reward"))
    if recorded != episodes:
        raise SystemExit(f"{name}: logged {recorded} episodes, expected {episodes}")

    base = CooperativeLaneChangeEnv(scenario=scenario, rewards=rewards)
    shifted = RealWorldTestbed(base, TestbedConfig(), seed=seed + 7)
    testbed = DiscreteActionWrapper(_FlattenShifted(shifted))
    metrics = trained.evaluate(testbed, 2, seed + 200)
    for key, value in metrics.items():
        if not np.isfinite(value):
            raise SystemExit(f"{name}: testbed metric {key} is not finite")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", choices=sorted(BASELINES))
    parser.add_argument("--episodes", type=int, default=2)
    parser.add_argument("--num-envs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--dtype",
        choices=["float64", "float32"],
        default="float64",
        help="compute dtype for the whole cell (training and evaluation)",
    )
    args = parser.parse_args(argv)

    with default_dtype(args.dtype):
        metrics = run_cell(args.baseline, args.episodes, args.num_envs, args.seed)
    row = " ".join(f"{key}={value:.4f}" for key, value in sorted(metrics.items()))
    print(
        f"table2[{args.baseline}] (num_envs={args.num_envs}, "
        f"dtype={args.dtype}): {row}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
