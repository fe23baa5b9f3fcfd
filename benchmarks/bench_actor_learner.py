"""Async actor–learner overlap scaling + shared-memory plumbing cost.

Not a paper table — this is the scaling guard for the async training
stack added by ISSUE 6.  The contract: with ``N = 32`` envs and a
staleness budget of 2 rounds, HERO training on the actor–learner stack
(``--async-actors``) must sustain **at least 1.3x** the episodes/sec of
the synchronous vectorized loop, because rollout collection in the actor
process overlaps the learner's gradient phase instead of alternating
with it.

Overlap needs real parallelism, so the ratio is only measurable where
the two processes can run side by side: the hard assertion is skipped on
CI runners (shared, noisy; regressions are caught by the perf-gate job)
and on hosts with fewer than four usable CPUs.  Bitwise lockstep
equivalence is locked separately by ``tests/test_actor_learner.py``.

``test_actor_fanout_speedup`` is the ISSUE 8 scaling check on top: two
actors collecting in staleness mode must beat one actor by **at least
1.5x** episodes/sec with updates disabled (pure collection throughput).
On hosts where neither ratio is measurable (CI, or fewer than four
usable CPUs) both speedup tests degrade to a single correctness-only
cycle each — the async stack still runs end to end, nothing is asserted
about time.

``test_actor_learner_roundtrip`` records the per-round cost of the
shared-memory plumbing itself — one parameter-snapshot publish/read plus
one transition-payload put/get — and ``test_actor_fanin_roundtrip`` the
cost of draining a 2-ring round through the :class:`ActorFanIn` merge
that staleness fan-out uses; both feed the CI perf gate
(``benchmarks/check_regression.py``).
"""

from __future__ import annotations

import os
import time

import numpy as np
from bench_update_phase import _usable_cpus

from repro.config import ScenarioConfig, TrainingConfig
from repro.core import HeroTeam, train_hero
from repro.distributed import (
    ActorFanIn,
    ParameterServer,
    RolloutPayload,
    ShmRingQueue,
    encode_rng_state,
)
from repro.envs import CooperativeLaneChangeEnv

N_ENVS = 32
EPISODES = int(os.environ.get("REPRO_BENCH_ASYNC_EPISODES", "12"))
TARGET_SPEEDUP = 1.3
TARGET_FANOUT_SPEEDUP = 1.5
MAX_STALENESS = 2


def _enforcing() -> tuple[bool, int]:
    """Whether speedup ratios are measurable here (and the CPU count)."""
    cpus = _usable_cpus()
    return not os.environ.get("CI") and cpus >= 4, cpus


def _hero_train_time(
    async_actors: bool,
    *,
    num_actors: int = 1,
    updates_per_episode: int = 4,
) -> float:
    """Wall-clock seconds for one short HERO training run at N_ENVS."""
    scenario = ScenarioConfig(episode_length=30)
    config = TrainingConfig(seed=0)
    config.scenario = scenario
    env = CooperativeLaneChangeEnv(scenario=scenario)
    team = HeroTeam(env, np.random.default_rng(0), batch_size=128)
    start = time.perf_counter()
    train_hero(
        env,
        team,
        episodes=EPISODES,
        config=config,
        num_envs=N_ENVS,
        eval_every=0,
        updates_per_episode=updates_per_episode,
        async_actors=async_actors,
        max_staleness=MAX_STALENESS if async_actors else 0,
        num_actors=num_actors if async_actors else 1,
    )
    return time.perf_counter() - start


def test_async_overlap_speedup():
    """The ISSUE 6 acceptance check: >= 1.3x at N=32, staleness budget 2.

    Hard assertion only where overlap is physically possible and
    measurable: not on shared CI runners and not on hosts with fewer
    than four usable CPUs (the actor and learner would time-slice one
    core and measure scheduler overhead instead of overlap).  When not
    enforcing, one unasserted cycle per mode keeps the path exercised.
    """
    enforce, cpus = _enforcing()
    reps = 2 if enforce else 1
    sync_time = min(_hero_train_time(False) for _ in range(reps))
    async_time = min(_hero_train_time(True) for _ in range(reps))
    speedup = sync_time / async_time
    print(
        f"\nN={N_ENVS} envs, {EPISODES} episodes, usable CPUs={cpus}: "
        f"sync {sync_time:.2f}s | async(staleness={MAX_STALENESS}) "
        f"{async_time:.2f}s ({speedup:.2f}x)"
    )
    if not enforce:
        print(
            f"correctness-only: CI={bool(os.environ.get('CI'))}, {cpus} usable "
            f"CPUs (hard {TARGET_SPEEDUP}x assertion needs a local >=4-CPU host)"
        )
        return
    assert speedup >= TARGET_SPEEDUP, (
        f"async actor-learner only {speedup:.2f}x over the synchronous loop "
        f"at N={N_ENVS} (need >= {TARGET_SPEEDUP}x)"
    )


def test_actor_fanout_speedup():
    """The ISSUE 8 acceptance check: 2 actors >= 1.5x collection throughput.

    Updates are disabled so the measurement isolates what fan-out
    actually scales — rollout collection; the learner's gradient phase is
    identical at any N.  Same enforcement policy as the overlap check:
    hard assertion only off-CI with four or more usable CPUs, otherwise
    one correctness-only cycle per width.
    """
    enforce, cpus = _enforcing()
    reps = 2 if enforce else 1
    single = min(
        _hero_train_time(True, num_actors=1, updates_per_episode=0)
        for _ in range(reps)
    )
    fanout = min(
        _hero_train_time(True, num_actors=2, updates_per_episode=0)
        for _ in range(reps)
    )
    speedup = single / fanout
    print(
        f"\nN={N_ENVS} envs, {EPISODES} episodes, usable CPUs={cpus}: "
        f"1 actor {single:.2f}s | 2 actors {fanout:.2f}s ({speedup:.2f}x)"
    )
    if not enforce:
        print(
            f"correctness-only: CI={bool(os.environ.get('CI'))}, {cpus} usable "
            f"CPUs (hard {TARGET_FANOUT_SPEEDUP}x assertion needs a local "
            f">=4-CPU host)"
        )
        return
    assert speedup >= TARGET_FANOUT_SPEEDUP, (
        f"2-actor fan-out only {speedup:.2f}x over a single actor at "
        f"N={N_ENVS} (need >= {TARGET_FANOUT_SPEEDUP}x)"
    )


def test_actor_learner_roundtrip(benchmark):
    """One snapshot publish/read + payload put/get for the perf gate.

    Sizes mirror a real HERO round: a ~100k-parameter flat snapshot with
    8 RNG sidecar slots through the double-buffered parameter server,
    and a ~64KB transition payload through the shared-memory ring.  The
    mean tracks the per-round plumbing overhead the async stack adds on
    top of collection and updates (serialisation, copies, seqlock).
    """
    vectors = {
        "actors": np.random.default_rng(0).standard_normal(100_000),
        "opponents": np.random.default_rng(1).standard_normal(30_000),
    }
    rng = np.random.default_rng(2)
    rng_words = np.stack([encode_rng_state(rng)] * 8)
    server = ParameterServer(
        {name: vec.size for name, vec in vectors.items()}, num_rngs=8
    )
    queue = ShmRingQueue(capacity=8 << 20)
    payload = RolloutPayload(
        round_index=0,
        version_used=0,
        data={"events": np.zeros((64, 128)), "stats": np.zeros(64)},
        rng_states=rng_words,
    )

    def cycle():
        version = server.publish(vectors, rng_words)
        server.read(min_version=version, timeout=5.0)
        queue.put(payload)
        queue.get(timeout=5.0)

    try:
        benchmark(cycle)
    finally:
        queue.release()
        server.release()


def test_actor_fanin_roundtrip(benchmark):
    """One 2-ring merge round through the fan-in, for the gate.

    Mirrors two staleness fan-out actors shipping one round each: each
    ring receives a ~64KB payload and the learner drains both through
    :class:`ActorFanIn`'s first-available ``get()``.  The mean tracks the
    merge overhead the fan-out adds on top of the single-ring put/get
    (round-robin scan, per-call abort poll, poll backoff).
    """
    payload = RolloutPayload(
        round_index=0,
        version_used=0,
        data={"events": np.zeros((64, 128)), "stats": np.zeros(64)},
        rng_states=np.stack([encode_rng_state(np.random.default_rng(2))] * 8),
    )
    queues = [ShmRingQueue(capacity=8 << 20) for _ in range(2)]
    fan_in = ActorFanIn(queues)

    def cycle():
        for queue in queues:
            queue.put(payload)
        for _ in queues:
            fan_in.get(timeout=5.0)

    try:
        benchmark(cycle)
    finally:
        for queue in queues:
            queue.release()
