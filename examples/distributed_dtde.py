"""Distributed training over a lossy, delayed vehicle-to-vehicle bus.

The paper's observability model (Sec. III-A): each agent only sees the
*historical* states and options of the others. This example routes those
observations through :class:`repro.distributed.MessageBus` with latency
and packet loss, trains HERO in that fully-distributed regime, and prints
bus statistics alongside learning metrics.

It closes with the repo's *other* distribution axis next to it:

* the ``distributed/`` package distributes **observations** (the paper's
  DTDE semantics — what each agent may see);
* the async actor–learner stack
  (:mod:`repro.distributed.actor_learner`) distributes **rollout
  collection vs. gradient updates** across processes: an actor pushes
  transition batches through a shared-memory ring while the learner
  trains on versioned parameter snapshots.  ``max_staleness=0`` is a
  lockstep barrier, bitwise equal to the synchronous loop;
  ``max_staleness > 0`` overlaps the two phases.

Usage::

    python examples/distributed_dtde.py --latency 2 --drop 0.2 \
        --episodes 200 --async-episodes 20
"""

import argparse
import time

import numpy as np

from repro.config import TrainingConfig
from repro.core import HeroTeam, train_hero, train_low_level_skills
from repro.distributed import DistributedObservationService
from repro.envs import CooperativeLaneChangeEnv
from repro.experiments.common import bench_scenario


def async_actor_learner_demo(
    config: TrainingConfig, episodes: int, num_envs: int = 4, max_staleness: int = 1
):
    """Short async actor–learner run: rollouts in a child process.

    The actor process steps ``num_envs`` env copies and ships transition
    batches over a shared-memory queue; the learner applies updates and
    publishes versioned parameter snapshots.  With ``max_staleness > 0``
    the actor may collect against a snapshot up to that many rounds old,
    overlapping collection with updates — the logged
    ``hero/snapshot_staleness`` series shows how far behind it actually
    ran.
    """
    env = CooperativeLaneChangeEnv(scenario=config.scenario, rewards=config.rewards)
    team = HeroTeam(env, np.random.default_rng(config.seed), batch_size=32)
    start = time.perf_counter()
    logger = train_hero(
        env,
        team,
        episodes=episodes,
        config=config,
        num_envs=num_envs,
        async_actors=True,
        max_staleness=max_staleness,
    )
    elapsed = time.perf_counter() - start
    staleness = logger.values("hero/snapshot_staleness")
    print(
        f"\nasync actor-learner: {episodes} episodes, {num_envs} envs in the "
        f"actor process, staleness budget {max_staleness} -> observed "
        f"mean {staleness.mean():.2f} / max {staleness.max():.0f} "
        f"({elapsed:.1f}s)"
    )
    print(
        "  max_staleness=0 would be a lockstep barrier: bitwise equal to "
        "the synchronous vectorized loop (locked by tests)."
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--latency", type=int, default=1, help="bus latency in env steps")
    parser.add_argument("--drop", type=float, default=0.1, help="message drop probability")
    parser.add_argument("--episodes", type=int, default=200)
    parser.add_argument("--skill-episodes", type=int, default=250)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--async-episodes",
        type=int,
        default=12,
        help="episodes for the closing async actor-learner demo (0 skips it)",
    )
    parser.add_argument(
        "--max-staleness",
        type=int,
        default=1,
        help="snapshot-staleness budget for the async demo (0 = lockstep)",
    )
    args = parser.parse_args()

    config = TrainingConfig(seed=args.seed)
    config.scenario = bench_scenario()
    config.epsilon_decay_episodes = max(args.episodes // 2, 1)

    skills, _ = train_low_level_skills(config, episodes=args.skill_episodes)
    env = CooperativeLaneChangeEnv(scenario=config.scenario, rewards=config.rewards)

    service = DistributedObservationService(
        env.agents,
        latency_steps=args.latency,
        drop_probability=args.drop,
        seed=args.seed,
    )
    team = HeroTeam(
        env, np.random.default_rng(args.seed), hyper=config.hyper,
        skills=skills, observation_service=service, batch_size=128, lr=2e-3,
    )
    logger = train_hero(
        env, team, episodes=args.episodes, config=config, updates_per_episode=4
    )

    print(f"\nbus: latency={args.latency} steps, drop={args.drop:.0%}")
    for name, value in service.bus.stats().items():
        print(f"  {name:10s} {value}")
    print(f"\nfinal eval reward:    {logger.latest('hero/eval_episode_reward'):.2f}")
    print(f"final eval collision: {logger.latest('hero/eval_collision_rate'):.2f}")
    print(
        "\nEach agent learned its opponents' options purely from delayed, "
        "lossy broadcasts — the paper's DTDE setting."
    )

    if args.async_episodes > 0:
        async_actor_learner_demo(
            config, episodes=args.async_episodes, max_staleness=args.max_staleness
        )
    print(
        "distributed/ shards what agents may observe; actor_learner shards "
        "when collection and updates happen — orthogonal, composable axes."
    )


if __name__ == "__main__":
    main()
