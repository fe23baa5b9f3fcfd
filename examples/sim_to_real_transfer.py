"""Sim-to-real transfer study (Sec. V-E / Table II).

Trains HERO and a baseline in the clean simulator, then evaluates both on
the domain-shifted testbed (sensor noise, actuation delay, drive-train
variation — docs/REPRODUCING.md, "Substitutions") and prints the
degradation of each method, the quantity Table II reports.

Usage::

    python examples/sim_to_real_transfer.py --scale 0.02
"""

import argparse

from repro.experiments import train_all_methods
from repro.experiments.table2 import report_table2, run_table2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--eval-episodes", type=int, default=20)
    parser.add_argument(
        "--methods", nargs="+", default=["hero", "idqn"],
        help="methods to transfer (default: hero idqn — the extremes in Table II)",
    )
    args = parser.parse_args()

    print(f"Training {args.methods} in the clean simulator (scale={args.scale})...")
    result = train_all_methods(scale=args.scale, seed=args.seed, methods=args.methods)

    # In-simulation reference numbers first.
    print("\nIn-simulation evaluation:")
    from repro.envs import make_baseline_env

    for name, trained in result.methods.items():
        if name == "hero":
            env = trained.controller.env
        else:
            env = make_baseline_env(scenario=result.scenario, rewards=result.rewards)
        metrics = trained.evaluate(env, args.eval_episodes, args.seed + 50)
        print(
            f"  {name:8s} collision={metrics['collision_rate']:.2f} "
            f"success={metrics['success_rate']:.2f} speed={metrics['mean_speed']:.4f}"
        )

    print("\nDomain-shifted testbed evaluation (Table II):")
    outputs = run_table2(
        result=result, eval_episodes=args.eval_episodes, seed=args.seed
    )
    report_table2(outputs)


if __name__ == "__main__":
    main()
