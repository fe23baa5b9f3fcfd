#!/usr/bin/env python
"""CI smoke: one Table 2 matrix cell per baseline on the training loop.

Trains one baseline for a handful of episodes with ``--num-envs``
vectorized env copies (the exact stack ``repro run table2 --num-envs N``
uses) and evaluates its domain-shifted Table 2 testbed cell.

``--dtype float32`` runs the whole cell (training, evaluation and any
drift check) under the reduced-precision compute path: the numbers
differ from float64 within the tolerance contract documented in
docs/ARCHITECTURE.md (Precision).

``--fused-updates`` routes the cell's gradient phases through
``core.update_engine`` (all five methods dispatch natively, including
the MADDPG/MAAC cross-family engines) and adds a fused-vs-plain drift
check: fresh identically-seeded algorithms through
``train_marl_vectorized`` at ``num_envs=1`` (the CLI's default
``--num-envs 1`` loop), plain and fused, must log metric series that
agree at the engines' per-dtype *tolerance* contract — fused gradients
reduce in a different summation order than the per-agent tape, so this
check is close-to, not bit-for-bit.

Usage::

    PYTHONPATH=src python benchmarks/smoke_table2_cell.py idqn \
        --episodes 2 --num-envs 2 --dtype float32
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.baselines import BASELINES, make_baseline, train_marl_vectorized
from repro.config import RewardConfig, TestbedConfig
from repro.envs import (
    CooperativeLaneChangeEnv,
    DiscreteActionWrapper,
    RealWorldTestbed,
    make_baseline_vector_env,
)
from repro.experiments.common import bench_scenario, train_baseline_method
from repro.experiments.table2 import _FlattenShifted
from repro.nn.tensor import default_dtype


def run_cell(
    name: str,
    episodes: int,
    num_envs: int,
    seed: int,
    fused_updates: bool = False,
) -> dict:
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
        fused_updates=fused_updates,
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


def check_fused_drift(name: str, episodes: int, seed: int, dtype: str) -> None:
    """Fused-updates training must track the plain loop within tolerance.

    The fused engines carry a *tolerance* contract, not a bitwise one
    (batched GEMMs and the ones-GEMV bias adjoint reduce in a different
    summation order than the per-agent tape), so the logged metric series
    are compared at the documented per-dtype tolerances
    (docs/ARCHITECTURE.md, Update engine) rather than bit-for-bit.
    """
    scenario = bench_scenario()
    kwargs = {"batch_size": 16} if name != "coma" else {}

    def train(fused: bool):
        vec_env = make_baseline_vector_env(1, scenario=scenario)
        algo = make_baseline(name, vec_env, seed=seed, **kwargs)
        return train_marl_vectorized(
            vec_env, algo, episodes=episodes, seed=seed, fused_updates=fused
        )

    log_plain = train(False)
    log_fused = train(True)
    if log_plain.names() != log_fused.names():
        raise SystemExit(
            f"{name}: metric names drifted (fused-vs-plain): "
            f"{sorted(set(log_plain.names()) ^ set(log_fused.names()))}"
        )
    rtol, atol = (1e-6, 1e-8) if dtype == "float64" else (1e-3, 1e-5)
    for metric in log_plain.names():
        plain = log_plain.values(metric)
        fused = log_fused.values(metric)
        if not np.allclose(plain, fused, rtol=rtol, atol=atol):
            raise SystemExit(
                f"{name}: fused-vs-plain drift in {metric} beyond "
                f"rtol={rtol}/atol={atol} ({dtype}): {plain} != {fused}"
            )


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
        help="compute dtype for the whole cell (training, eval, drift check)",
    )
    parser.add_argument(
        "--fused-updates",
        action="store_true",
        help=(
            "run the cell's gradient phases through core.update_engine "
            "and add a fused-vs-plain tolerance drift check"
        ),
    )
    args = parser.parse_args(argv)

    with default_dtype(args.dtype):
        metrics = run_cell(
            args.baseline,
            args.episodes,
            args.num_envs,
            args.seed,
            fused_updates=args.fused_updates,
        )
        row = " ".join(f"{key}={value:.4f}" for key, value in sorted(metrics.items()))
        print(
            f"table2[{args.baseline}] (num_envs={args.num_envs}, "
            f"dtype={args.dtype}, fused_updates={args.fused_updates}): {row}"
        )

        if args.fused_updates:
            check_fused_drift(args.baseline, args.episodes, args.seed, args.dtype)
            print(
                f"table2[{args.baseline}]: fused updates track the plain "
                f"loop within the {args.dtype} tolerance contract"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
