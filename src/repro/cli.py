"""Command-line entry point: ``python -m repro <command>``.

Commands::

    python -m repro list                         # registered experiments
    python -m repro run fig7 --scale 0.02        # run one experiment
    python -m repro run-all --scale 0.01         # run every experiment
    python -m repro watch --seed 3               # render a scripted episode
    python -m repro checkpoint create --method hero --out team.npz
    python -m repro checkpoint info team.npz     # inspect a checkpoint
    python -m repro serve team.npz --port 7355   # socket inference service

The ``run`` command is the same harness the benchmarks call; it prints the
paper-style tables/curves and the [OK]/[MISS] shape checks.  ``serve``
loads a versioned checkpoint (docs/SERVING.md) and answers observation
requests with micro-batched greedy actions.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_list(_args) -> int:
    from .experiments import EXPERIMENTS

    print(f"{'id':8s} {'workload':45s} title")
    for exp_id, experiment in sorted(EXPERIMENTS.items()):
        print(f"{exp_id:8s} {experiment.workload:45s} {experiment.title}")
    return 0


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _show_fallback_warnings() -> None:
    """Always surface vectorization-fallback RuntimeWarnings on the CLI.

    The training loops warn (once per call site by default) when a config
    falls off the VectorEnv fast path; a sweep runs many loops, so force
    every occurrence of that specific warning through — users asking for
    --num-envs should see exactly why that flag is not helping.  Scoped by
    message so unrelated RuntimeWarnings keep the default
    once-per-location behaviour.
    """
    import warnings

    warnings.filterwarnings(
        "always", category=RuntimeWarning, message=r".*scalar fallback"
    )


def _cmd_run(args) -> int:
    from .experiments import run_experiment

    _show_fallback_warnings()
    run_experiment(
        args.experiment,
        scale=args.scale,
        seed=args.seed,
        num_envs=args.num_envs,
        fused_updates=args.fused_updates,
        async_actors=args.async_actors,
        max_staleness=args.max_staleness,
        num_actors=args.num_actors,
        checkpoint_dir=args.checkpoint_dir,
        dtype=args.dtype,
    )
    return 0


def _cmd_run_all(args) -> int:
    from .experiments import EXPERIMENTS, run_experiment

    _show_fallback_warnings()
    for exp_id in sorted(EXPERIMENTS):
        print(f"\n######## {exp_id} ########")
        run_experiment(
            exp_id,
            scale=args.scale,
            seed=args.seed,
            num_envs=args.num_envs,
            fused_updates=args.fused_updates,
            async_actors=args.async_actors,
            max_staleness=args.max_staleness,
            num_actors=args.num_actors,
            dtype=args.dtype,
        )
    return 0


def _cmd_watch(args) -> int:
    """Render one episode of the scripted cooperative plan as ASCII frames."""
    from .envs import (
        CooperativeLaneChangeEnv,
        lane_change_command,
        lane_keep_command,
    )
    from .envs.render import print_episode
    from .experiments.common import bench_scenario

    env = CooperativeLaneChangeEnv(scenario=bench_scenario())

    def scripted_policy(observations):
        actions = {}
        for i, agent in enumerate(env.agents):
            vehicle = env.vehicle(agent)
            if i == 0 and env._t >= 1 and vehicle.lane_id == 0:
                actions[agent] = lane_change_command(vehicle, 1, 0.15, 0.2)
            elif i == 0:
                actions[agent] = lane_keep_command(vehicle, 0.1)
            else:
                actions[agent] = lane_keep_command(vehicle, 0.06)
        return actions

    print_episode(env, scripted_policy, seed=args.seed, every=args.every)
    return 0


def _cmd_serve(args) -> int:
    """Serve a checkpoint over the socket front-end until interrupted."""
    import time

    from .serving import PolicyServer, load_policy

    policy = load_policy(args.checkpoint)
    server = PolicyServer(
        policy,
        num_slots=args.num_slots,
        max_batch_size=args.max_batch_size,
        max_wait_us=args.max_wait_us,
    )
    with server:
        host, port = server.serve(args.host, args.port)
        print(
            f"serving {policy.method} policy from {args.checkpoint} "
            f"on {host}:{port} ({args.num_slots} slots, "
            f"max batch {server.max_batch_size})"
        )
        print("press Ctrl-C to stop")
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            print("\nstopping")
    return 0


def _cmd_checkpoint_info(args) -> int:
    from .serving import load_checkpoint

    ckpt = load_checkpoint(args.path)
    meta = ckpt.meta
    print(f"method:      {ckpt.method}")
    print(
        f"parameters:  {ckpt.flat_params.size} {ckpt.dtype.name} values "
        f"in {len(meta['keys'])} arrays "
        f"({ckpt.flat_params.nbytes} bytes)"
    )
    scenario = meta["scenario"]
    print(
        f"scenario:    {scenario['num_learning_vehicles']} learning + "
        f"{scenario['num_scripted_vehicles']} scripted vehicles, "
        f"{scenario['num_lanes']} lanes, "
        f"episode_length={scenario['episode_length']}"
    )
    if meta["build"]:
        print(f"build:       {meta['build']}")
    if meta.get("extra"):
        print(f"extra:       {meta['extra']}")
    return 0


def _cmd_checkpoint_create(args) -> int:
    """Train a (small-scale) method and persist it as a serving checkpoint."""
    from .config import RewardConfig
    from .experiments.common import (
        bench_scenario,
        episodes_from_scale,
        train_baseline_method,
        train_hero_method,
    )

    _show_fallback_warnings()
    scenario = bench_scenario()
    rewards = RewardConfig()
    episodes = episodes_from_scale(args.scale)
    if args.method == "hero":
        trained = train_hero_method(
            scenario,
            rewards,
            episodes,
            skill_episodes=max(episodes, 250),
            seed=args.seed,
            num_envs=args.num_envs,
        )
    else:
        trained = train_baseline_method(
            args.method,
            scenario,
            rewards,
            episodes,
            seed=args.seed,
            num_envs=args.num_envs,
        )
    trained.to_checkpoint(args.out)
    print(f"wrote {args.method} checkpoint ({episodes} episodes) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="run one experiment harness")
    run.add_argument("experiment", help="fig7 | fig8 | fig10 | fig11 | table2")
    run.add_argument("--scale", type=float, default=0.01)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--num-envs",
        type=_positive_int,
        default=1,
        help=(
            "vectorized env copies for training AND the interleaved greedy "
            "evaluations, for HERO and all four baselines (1 = a one-env "
            "batch)"
        ),
    )
    run.add_argument(
        "--fused-updates",
        action="store_true",
        help=(
            "batch gradient updates across architecturally identical "
            "networks (core.update_engine): HERO critics/actors/opponent "
            "models and IDQN update as stacked families; tolerance-"
            "equivalent to the default per-network loop, not bitwise"
        ),
    )
    run.add_argument(
        "--async-actors",
        action="store_true",
        help=(
            "run rollouts in a separate actor process on the async "
            "actor-learner stack (distributed.actor_learner; HERO and "
            "IDQN; other baselines warn and stay synchronous)"
        ),
    )
    run.add_argument(
        "--max-staleness",
        type=int,
        default=0,
        help=(
            "snapshot-staleness budget for --async-actors, in collection "
            "rounds: 0 = lockstep barrier, bitwise identical to the "
            "synchronous loop; > 0 lets the actor run ahead of the newest "
            "policy snapshot and logs <prefix>/snapshot_staleness"
        ),
    )
    run.add_argument(
        "--num-actors",
        type=_positive_int,
        default=1,
        help=(
            "rollout actor processes for --async-actors; more than one "
            "needs --max-staleness > 0 (lockstep runs one actor): each "
            "actor collects its own slice of the episode universe and "
            "collection throughput scales with the count"
        ),
    )
    run.add_argument(
        "--dtype",
        choices=["float64", "float32"],
        default="float64",
        help=(
            "floating-point compute precision for the whole run: float64 "
            "(default) is bitwise-identical to the original "
            "implementation; float32 speeds the BLAS-bound update phase "
            "and halves snapshot/queue/shm payloads under the documented "
            "tolerance contract (docs/ARCHITECTURE.md, Precision)"
        ),
    )
    run.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "persist each trained method as a serving checkpoint "
            "(<dir>/<method>.npz) and reload instead of retraining when "
            "the directory is complete (table2 only)"
        ),
    )
    run.set_defaults(func=_cmd_run)

    run_all = sub.add_parser("run-all", help="run every experiment harness")
    run_all.add_argument("--scale", type=float, default=0.01)
    run_all.add_argument("--seed", type=int, default=0)
    run_all.add_argument(
        "--num-envs",
        type=_positive_int,
        default=1,
        help=(
            "vectorized env copies for training AND the interleaved greedy "
            "evaluations, for HERO and all four baselines (1 = a one-env "
            "batch)"
        ),
    )
    run_all.add_argument(
        "--fused-updates",
        action="store_true",
        help=(
            "batch gradient updates across architecturally identical "
            "networks (core.update_engine): HERO critics/actors/opponent "
            "models and IDQN update as stacked families; tolerance-"
            "equivalent to the default per-network loop, not bitwise"
        ),
    )
    run_all.add_argument(
        "--async-actors",
        action="store_true",
        help=(
            "run rollouts in a separate actor process on the async "
            "actor-learner stack (distributed.actor_learner; HERO and "
            "IDQN; other baselines warn and stay synchronous)"
        ),
    )
    run_all.add_argument(
        "--max-staleness",
        type=int,
        default=0,
        help=(
            "snapshot-staleness budget for --async-actors, in collection "
            "rounds: 0 = lockstep barrier, bitwise identical to the "
            "synchronous loop; > 0 lets the actor run ahead of the newest "
            "policy snapshot and logs <prefix>/snapshot_staleness"
        ),
    )
    run_all.add_argument(
        "--num-actors",
        type=_positive_int,
        default=1,
        help=(
            "rollout actor processes for --async-actors; more than one "
            "needs --max-staleness > 0 (lockstep runs one actor): each "
            "actor collects its own slice of the episode universe and "
            "collection throughput scales with the count"
        ),
    )
    run_all.add_argument(
        "--dtype",
        choices=["float64", "float32"],
        default="float64",
        help=(
            "floating-point compute precision for every experiment in the "
            "sweep (see `run --dtype`)"
        ),
    )
    run_all.set_defaults(func=_cmd_run_all)

    watch = sub.add_parser("watch", help="render a scripted episode as ASCII")
    watch.add_argument("--seed", type=int, default=0)
    watch.add_argument("--every", type=int, default=5)
    watch.set_defaults(func=_cmd_watch)

    serve = sub.add_parser(
        "serve", help="serve a policy checkpoint over a socket"
    )
    serve.add_argument("checkpoint", help="path to a .npz serving checkpoint")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 = pick a free port")
    serve.add_argument(
        "--num-slots",
        type=_positive_int,
        default=4,
        help=(
            "concurrent client state rows; HERO keeps per-slot option "
            "state, and served actions are bitwise-equal to the vectorized "
            "evaluator when every slot submits each step"
        ),
    )
    serve.add_argument(
        "--max-batch-size",
        type=_positive_int,
        default=None,
        help="requests fused per forward pass (default: --num-slots)",
    )
    serve.add_argument(
        "--max-wait-us",
        type=float,
        default=200.0,
        help="micro-batcher flush deadline for a partial batch, microseconds",
    )
    serve.set_defaults(func=_cmd_serve)

    checkpoint = sub.add_parser(
        "checkpoint", help="create or inspect policy checkpoints"
    )
    ckpt_sub = checkpoint.add_subparsers(dest="action", required=True)
    info = ckpt_sub.add_parser("info", help="print checkpoint metadata")
    info.add_argument("path")
    info.set_defaults(func=_cmd_checkpoint_info)
    create = ckpt_sub.add_parser(
        "create", help="train a method at small scale and checkpoint it"
    )
    create.add_argument(
        "--method",
        default="hero",
        choices=["hero", "idqn", "coma", "maddpg", "maac"],
    )
    create.add_argument("--scale", type=float, default=0.002)
    create.add_argument("--seed", type=int, default=0)
    create.add_argument("--num-envs", type=_positive_int, default=1)
    create.add_argument("--out", required=True, help="output .npz path")
    create.set_defaults(func=_cmd_checkpoint_create)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "async_actors", False):
        from .distributed.actor_learner import check_fanout

        try:
            check_fanout(args.max_staleness, args.num_actors)
        except ValueError as exc:
            parser.error(f"argument --num-actors/--max-staleness: {exc}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
