#!/usr/bin/env python
"""CI smoke: async actor–learner cycles with bitwise lockstep drift checks.

Runs HERO (``train_hero``) and IDQN (``train_marl_vectorized``) for a
handful of episodes on the async actor–learner stack — the exact stack
``repro run ... --async-actors`` uses — and guards its equivalence
contract:

* lockstep (``max_staleness=0``, one actor): the async run must log
  metric series **bit-for-bit identical** to the synchronous vectorized
  loop and end with identical weights and replay rows (HERO: every
  agent's replay buffer and opponent history; IDQN: every agent's replay
  buffer) — a short run's logs can agree while the experience it stored
  differs;
* staleness mode (``--max-staleness > 0``): the run must complete the
  full episode budget and log a ``snapshot_staleness`` series bounded by
  the budget, and every interleaved evaluation of the cadence
  (``0, eval_every, ..., episodes - 1``) must be logged at its step,
  recorded by the learner and scored after training (HERO and IDQN);
* every run, synchronous or async, leaves no child process behind.

Usage::

    PYTHONPATH=src python benchmarks/smoke_async_cycle.py \
        --episodes 3 --num-envs 2 --max-staleness 2 --num-actors 2

``--num-actors N`` fans the staleness run's collection out over N actor
processes, each walking its own slice of the episode universe; lockstep
always runs one actor.
"""

from __future__ import annotations

import argparse
import multiprocessing as mp
import sys

import numpy as np

from repro.baselines import make_baseline, train_marl_vectorized
from repro.config import ScenarioConfig, TrainingConfig
from repro.core import HeroTeam, train_hero
from repro.envs import CooperativeLaneChangeEnv, make_baseline_vector_env

SCENARIO = ScenarioConfig(episode_length=10)
EVAL_EVERY = 2


def _check_no_children(name: str) -> None:
    children = mp.active_children()
    if children:
        raise SystemExit(f"{name}: run left child processes behind: {children}")


def _final_state(weights: dict, buffers: dict) -> dict:
    """Final weights plus each named ring buffer's written rows and cursor
    (what the buffer's pickle carries)."""
    state = dict(weights)
    for prefix, buffer in buffers.items():
        for key, value in buffer.__getstate__().items():
            state[f"{prefix}.{key}"] = value
    return state


def _hero_run(
    episodes: int,
    num_envs: int,
    seed: int,
    *,
    async_actors: bool,
    max_staleness: int = 0,
    num_actors: int = 1,
):
    config = TrainingConfig(seed=seed)
    config.scenario = SCENARIO
    env = CooperativeLaneChangeEnv(scenario=SCENARIO)
    team = HeroTeam(env, np.random.default_rng(seed), batch_size=32)
    logger = train_hero(
        env,
        team,
        episodes=episodes,
        config=config,
        num_envs=num_envs,
        eval_every=EVAL_EVERY,
        eval_episodes=2,
        async_actors=async_actors,
        max_staleness=max_staleness,
        num_actors=num_actors,
    )
    _check_no_children("hero")
    buffers = {}
    for agent_id, agent in team.agents.items():
        buffers[f"{agent_id}.replay"] = agent.high_level.buffer
        buffers[f"{agent_id}.history"] = agent.high_level.opponent_model.history
    return logger, _final_state(team.state_dict(), buffers)


def _idqn_run(
    episodes: int,
    num_envs: int,
    seed: int,
    *,
    async_actors: bool,
    max_staleness: int = 0,
    num_actors: int = 1,
):
    vec_env = make_baseline_vector_env(num_envs, scenario=SCENARIO)
    algo = make_baseline(
        "idqn", vec_env, seed=seed, batch_size=16, buffer_capacity=500
    )
    try:
        logger = train_marl_vectorized(
            vec_env,
            algo,
            episodes=episodes,
            seed=seed,
            eval_every=EVAL_EVERY,
            eval_episodes=2,
            async_actors=async_actors,
            max_staleness=max_staleness,
            num_actors=num_actors,
        )
    finally:
        vec_env.close()
    _check_no_children("idqn")
    buffers = {f"{agent_id}.replay": b for agent_id, b in algo.buffers.items()}
    return logger, _final_state(algo.state_dict(), buffers)


def _assert_logs_equal(name: str, what: str, log_a, log_b) -> None:
    if sorted(log_a.names()) != sorted(log_b.names()):
        raise SystemExit(
            f"{name}: metric names drifted ({what}): "
            f"{sorted(set(log_a.names()) ^ set(log_b.names()))}"
        )
    for metric in log_a.names():
        if not np.array_equal(log_a.steps(metric), log_b.steps(metric)):
            raise SystemExit(f"{name}: {what} drift in {metric} steps")
        if not np.array_equal(log_a.values(metric), log_b.values(metric)):
            raise SystemExit(
                f"{name}: {what} drift in {metric}: "
                f"{log_a.values(metric)} != {log_b.values(metric)}"
            )


def _assert_states_equal(name: str, what: str, state_a: dict, state_b: dict) -> None:
    if state_a.keys() != state_b.keys():
        raise SystemExit(
            f"{name}: final state keys drifted ({what}): "
            f"{sorted(state_a.keys() ^ state_b.keys())}"
        )
    for key in state_a:
        if not np.array_equal(state_a[key], state_b[key]):
            raise SystemExit(f"{name}: {what} drift in final {key}")


def check_lockstep(train, name: str, prefix: str, episodes, num_envs, seed) -> None:
    """Async lockstep must match the synchronous loop bit-for-bit: logs,
    final weights and stored experience."""
    what = "async-lockstep-vs-sync"
    log_sync, state_sync = train(episodes, num_envs, seed, async_actors=False)
    log_async, state_async = train(episodes, num_envs, seed, async_actors=True)
    _assert_logs_equal(name, what, log_sync, log_async)
    _assert_states_equal(name, what, state_sync, state_async)
    print(
        f"{name}: {what}: no drift in logs, weights or buffers over "
        f"{episodes} episodes"
    )


def check_staleness(
    train, name: str, prefix: str, episodes, num_envs, seed, budget: int, num_actors
) -> None:
    """Staleness mode must finish the budget and log bounded staleness."""
    logger, _ = train(
        episodes,
        num_envs,
        seed,
        async_actors=True,
        max_staleness=budget,
        num_actors=num_actors,
    )
    recorded = logger.values(f"{prefix}/episode_reward").size
    if recorded != episodes:
        raise SystemExit(
            f"{name}: staleness run logged {recorded} episodes, "
            f"expected {episodes}"
        )
    staleness = logger.values(f"{prefix}/snapshot_staleness")
    if staleness.size == 0:
        raise SystemExit(f"{name}: staleness run logged no snapshot_staleness")
    if (staleness < 0).any() or (staleness > budget).any():
        raise SystemExit(
            f"{name}: snapshot staleness {staleness} escaped the "
            f"budget [0, {budget}]"
        )
    cadence = sorted(set(range(0, episodes, EVAL_EVERY)) | {episodes - 1})
    evals = {m: logger.steps(m).tolist() for m in logger.names() if "/eval_" in m}
    if not evals or any(steps != cadence for steps in evals.values()):
        raise SystemExit(
            f"{name}: eval series logged at steps {evals}, expected {cadence}"
        )
    print(
        f"{name}: staleness budget {budget}: {episodes} episodes, observed "
        f"staleness mean {staleness.mean():.2f} / max {staleness.max():.0f}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--episodes", type=int, default=3)
    parser.add_argument("--num-envs", type=int, default=2)
    parser.add_argument("--max-staleness", type=int, default=2)
    parser.add_argument("--num-actors", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    for train, name, prefix in (
        (_hero_run, "hero", "hero"),
        (_idqn_run, "idqn", "idqn"),
    ):
        check_lockstep(train, name, prefix, args.episodes, args.num_envs, args.seed)
        if args.max_staleness > 0:
            check_staleness(
                train,
                name,
                prefix,
                args.episodes,
                args.num_envs,
                args.seed,
                args.max_staleness,
                args.num_actors,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
