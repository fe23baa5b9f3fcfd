"""Async actor–learner stack: equivalence, staleness, and lifecycle locks.

The contract under test (``repro.distributed.actor_learner``):

* ``async_actors`` with ``max_staleness=0`` (lockstep barrier) runs one
  actor and is **bit-for-bit** equal to the synchronous vectorized loop —
  metrics, logged steps and final network weights — for HERO
  (``train_hero``) and IDQN (``train_marl_vectorized``), plain and fused,
  on a two-env and on a one-env batch;
  asking it for more actors is a ``ValueError`` (and a CLI usage error)
  before any actor process starts;
* ``max_staleness > 0`` runs, logs a per-round snapshot-staleness series
  bounded by the budget, and still produces the full metric set;
* the shared-memory transition queue exerts backpressure: a producer
  that outruns the consumer blocks instead of growing the queue;
* an actor crash — an exception inside the actor's env batch — surfaces
  as a ``RuntimeError`` naming the failing actor, not a hang;
* a finished (or failed) run leaves no orphan processes and unlinks
  every shared-memory segment it created.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.baselines import make_baseline, train_marl_vectorized
from repro.config import ScenarioConfig, TrainingConfig
from repro.core import HeroTeam, train_hero
from repro.distributed import ParameterServer, ShmRingQueue
from repro.distributed import actor_learner
from repro.envs import (
    CooperativeLaneChangeEnv,
    EnvReplicaFactory,
    StationaryObstacle,
    VectorBaselineEnv,
    VectorEnv,
    make_baseline_vector_env,
)

SCENARIO = ScenarioConfig(episode_length=5)


def _hero_run(
    async_actors: bool,
    *,
    fused: bool = False,
    max_staleness: int = 0,
    num_actors: int = 1,
    num_envs: int = 2,
):
    config = TrainingConfig(seed=0)
    config.scenario = SCENARIO
    env = CooperativeLaneChangeEnv(scenario=SCENARIO)
    team = HeroTeam(env, np.random.default_rng(0), batch_size=32)
    logger = train_hero(
        env,
        team,
        episodes=3,
        config=config,
        num_envs=num_envs,
        eval_every=2,
        eval_episodes=2,
        fused_updates=fused,
        async_actors=async_actors,
        max_staleness=max_staleness,
        num_actors=num_actors,
    )
    return logger, team


def _idqn_run(
    async_actors: bool,
    *,
    fused: bool = False,
    max_staleness: int = 0,
    num_actors: int = 1,
    num_envs: int = 2,
):
    vec_env = make_baseline_vector_env(num_envs, scenario=SCENARIO)
    algo = make_baseline("idqn", vec_env, seed=3, batch_size=16, buffer_capacity=500)
    try:
        logger = train_marl_vectorized(
            vec_env,
            algo,
            episodes=4,
            seed=5,
            eval_every=2,
            eval_episodes=2,
            fused_updates=fused,
            async_actors=async_actors,
            max_staleness=max_staleness,
            num_actors=num_actors,
        )
    finally:
        vec_env.close()
    return logger, algo


# Compute each (method, fused, num_envs) synchronous reference once per
# test session.
_SYNC_CACHE: dict = {}


def _sync_reference(method: str, fused: bool, num_envs: int = 2):
    key = (method, fused, num_envs)
    if key not in _SYNC_CACHE:
        run = _hero_run if method == "hero" else _idqn_run
        _SYNC_CACHE[key] = run(False, fused=fused, num_envs=num_envs)
    return _SYNC_CACHE[key]


def _assert_logs_equal(log_a, log_b):
    assert sorted(log_a.names()) == sorted(log_b.names())
    for name in log_a.names():
        np.testing.assert_array_equal(log_a.steps(name), log_b.steps(name), err_msg=name)
        np.testing.assert_array_equal(
            log_a.values(name), log_b.values(name), err_msg=name
        )


# ----------------------------------------------------------------------
# Lockstep bitwise equivalence (lockstep runs one actor; the parameter
# keeps that width in the test ids), on a two-env and a one-env batch
# ----------------------------------------------------------------------
LOCKSTEP_LAYOUTS = pytest.mark.parametrize(
    "num_actors, num_envs", [(1, 2), (1, 1)], ids=["1", "1-num_envs1"]
)


@LOCKSTEP_LAYOUTS
@pytest.mark.parametrize("fused", [False, True], ids=["plain", "fused"])
def test_hero_lockstep_matches_sync_bitwise(fused, num_actors, num_envs):
    log_sync, team_sync = _sync_reference("hero", fused, num_envs)
    log_async, team_async = _hero_run(
        True, fused=fused, num_actors=num_actors, num_envs=num_envs
    )
    _assert_logs_equal(log_sync, log_async)
    state_sync, state_async = team_sync.state_dict(), team_async.state_dict()
    assert state_sync.keys() == state_async.keys()
    for key in state_sync:
        np.testing.assert_array_equal(state_sync[key], state_async[key], err_msg=key)


@LOCKSTEP_LAYOUTS
@pytest.mark.parametrize("fused", [False, True], ids=["plain", "fused"])
def test_idqn_lockstep_matches_sync_bitwise(fused, num_actors, num_envs):
    log_sync, algo_sync = _sync_reference("idqn", fused, num_envs)
    log_async, algo_async = _idqn_run(
        True, fused=fused, num_actors=num_actors, num_envs=num_envs
    )
    _assert_logs_equal(log_sync, log_async)
    for agent in algo_sync.agent_ids:
        for p_sync, p_async in zip(
            algo_sync.q_networks[agent].trunk.parameters(),
            algo_async.q_networks[agent].trunk.parameters(),
        ):
            np.testing.assert_array_equal(p_sync.data, p_async.data, err_msg=agent)


def test_idqn_lockstep_matches_sync_bitwise_on_custom_traffic():
    """The actors replicate the caller's batch: under StationaryObstacle
    traffic, on the default grid and on a 2-command grid, lockstep async
    must still match the synchronous loop."""

    def run(async_actors: bool, levels: dict):
        factory = EnvReplicaFactory(scenario=SCENARIO, scripted_policy=StationaryObstacle())
        vec_env = VectorBaselineEnv(VectorEnv(2, env_fns=[factory] * 2), **levels)
        algo = make_baseline("idqn", vec_env, seed=3, batch_size=16, buffer_capacity=500)
        logger = train_marl_vectorized(
            vec_env,
            algo,
            episodes=4,
            seed=5,
            eval_every=2,
            eval_episodes=2,
            async_actors=async_actors,
        )
        return logger, algo

    two_commands = {"linear_levels": (0.05, 0.1), "angular_levels": (0.0,)}
    for levels in ({}, two_commands):
        log_sync, algo_sync = run(False, levels)
        log_async, algo_async = run(True, levels)
        _assert_logs_equal(log_sync, log_async)
        for agent in algo_sync.agent_ids:
            for p_sync, p_async in zip(
                algo_sync.q_networks[agent].trunk.parameters(),
                algo_async.q_networks[agent].trunk.parameters(),
            ):
                np.testing.assert_array_equal(p_sync.data, p_async.data, err_msg=agent)


def test_lockstep_fanout_is_rejected_before_any_actor_starts(monkeypatch, capsys):
    """Lockstep runs one actor: asking both learners for two raises
    ``ValueError`` before any actor process starts, and the CLI exits with
    a usage error before any training.  Staleness fan-out stays legal."""

    def no_actors(*args):
        pytest.fail("an actor process was started")

    monkeypatch.setattr(actor_learner, "_start_actors", no_actors)
    with pytest.raises(ValueError, match="max_staleness > 0"):
        _hero_run(True, num_actors=2)
    with pytest.raises(ValueError, match="max_staleness > 0"):
        _idqn_run(True, num_actors=2)

    from repro import experiments
    from repro.cli import main

    runs = []
    monkeypatch.setattr(experiments, "run_experiment", lambda *a, **k: runs.append(k))
    fanout = ["run", "fig7", "--async-actors", "--num-actors", "2"]
    with pytest.raises(SystemExit) as excinfo:
        main(fanout)
    assert excinfo.value.code == 2
    assert "max_staleness > 0" in capsys.readouterr().err
    assert runs == []
    assert main(fanout + ["--max-staleness", "1"]) == 0
    assert main(["run", "fig7", "--num-actors", "2"]) == 0
    assert [run["num_actors"] for run in runs] == [2, 2]


def test_non_idqn_baseline_falls_back_with_warning():
    vec_env = make_baseline_vector_env(2, scenario=SCENARIO)
    algo = make_baseline("coma", vec_env, seed=3)
    try:
        with pytest.warns(RuntimeWarning, match="IDQN only"):
            train_marl_vectorized(
                vec_env, algo, episodes=1, seed=5, eval_every=0, async_actors=True
            )
    finally:
        vec_env.close()


# ----------------------------------------------------------------------
# Staleness mode + lifecycle (shared run: versions, orphans, shm)
# ----------------------------------------------------------------------
_CREATED_SEGMENTS: list[str] = []


class _RecordingServer(ParameterServer):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _CREATED_SEGMENTS.append(self._name)


class _RecordingQueue(ShmRingQueue):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _CREATED_SEGMENTS.append(self._name)


def test_staleness_run_logs_bounded_versions_and_cleans_up(monkeypatch):
    monkeypatch.setattr(actor_learner, "ParameterServer", _RecordingServer)
    monkeypatch.setattr(actor_learner, "ShmRingQueue", _RecordingQueue)
    _CREATED_SEGMENTS.clear()
    before = {proc.pid for proc in mp.active_children()}

    logger, _ = _hero_run(True, max_staleness=2)

    staleness = logger.values("hero/snapshot_staleness")
    assert staleness.size > 0
    assert (staleness >= 0).all() and (staleness <= 2).all()
    rounds = logger.steps("hero/snapshot_staleness")
    assert (np.diff(rounds) > 0).all(), "rounds must be logged monotonically"
    # Staleness mode must not drop episodes: the full metric set is there.
    assert logger.values("hero/episode_reward").size == 3

    after = {proc.pid for proc in mp.active_children()}
    assert after <= before, "async run leaked processes"
    assert len(_CREATED_SEGMENTS) == 2  # parameter server + transition queue
    for name in _CREATED_SEGMENTS:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_idqn_staleness_fanout_partitions_episodes_and_cleans_up(monkeypatch):
    """N=3 staleness fan-out: stride-partitioned collection must still log
    every episode exactly once, keep staleness within budget, produce a
    per-actor series for every collecting actor, and unlink one ring per
    actor plus the parameter server."""
    monkeypatch.setattr(actor_learner, "ParameterServer", _RecordingServer)
    monkeypatch.setattr(actor_learner, "ShmRingQueue", _RecordingQueue)
    _CREATED_SEGMENTS.clear()
    before = {proc.pid for proc in mp.active_children()}

    logger, _ = _idqn_run(True, max_staleness=2, num_actors=3)

    # Episodes 0..3 each logged exactly once, in order.
    np.testing.assert_array_equal(logger.steps("idqn/episode_reward"), np.arange(4))
    aggregate = logger.values("idqn/snapshot_staleness")
    assert aggregate.size > 0
    assert (aggregate >= 0).all() and (aggregate <= 2).all()
    # With episodes=4 and num_envs=2 every actor owns at least one budget
    # episode (universe 6, stride 3), so each must have shipped rounds.
    per_actor = [
        name for name in logger.names() if "snapshot_staleness/actor" in name
    ]
    assert sorted(per_actor) == [
        f"idqn/snapshot_staleness/actor{k}" for k in range(3)
    ]
    assert sum(logger.values(name).size for name in per_actor) == aggregate.size

    after = {proc.pid for proc in mp.active_children()}
    assert after <= before, "async fan-out run leaked processes"
    assert len(_CREATED_SEGMENTS) == 4  # parameter server + one ring per actor
    for name in _CREATED_SEGMENTS:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_hero_staleness_fanout_keeps_full_metric_set():
    """N=2 staleness fan-out for HERO: partitioned collection must not
    drop episodes and every logged staleness stays within budget."""
    logger, _ = _hero_run(True, max_staleness=2, num_actors=2)
    assert logger.values("hero/episode_reward").size == 3
    aggregate = logger.values("hero/snapshot_staleness")
    assert aggregate.size > 0
    assert (aggregate >= 0).all() and (aggregate <= 2).all()
    per_actor = [
        name for name in logger.names() if "snapshot_staleness/actor" in name
    ]
    # Which actors ship depends on scheduling, but every shipped round is
    # attributed to a real actor and the per-actor series partition the
    # aggregate.
    assert per_actor, "no per-actor staleness series logged"
    assert set(per_actor) <= {
        f"hero/snapshot_staleness/actor{k}" for k in range(2)
    }
    assert sum(logger.values(name).size for name in per_actor) == aggregate.size


# ----------------------------------------------------------------------
# Queue backpressure
# ----------------------------------------------------------------------
def _producer_main(queue: ShmRingQueue, frames: int):
    for index in range(frames):
        queue.put(("frame", index, np.zeros(64)))


def test_queue_backpressure_throttles_producer():
    ctx = mp.get_context("spawn")
    # Capacity fits ~2 frames; the producer must block, not overrun.
    queue = ShmRingQueue(capacity=2048, context=ctx)
    producer = ctx.Process(target=_producer_main, args=(queue, 10))
    producer.start()
    try:
        deadline = time.monotonic() + 10.0
        while queue.qsize_bytes() == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.3)  # give the producer time to (wrongly) finish
        assert producer.is_alive(), "producer should be blocked on the full ring"
        for index in range(10):
            tag, got, payload = queue.get(timeout=10.0)
            assert (tag, got) == ("frame", index)
            np.testing.assert_array_equal(payload, np.zeros(64))
        producer.join(timeout=10.0)
        assert producer.exitcode == 0
    finally:
        if producer.is_alive():
            producer.terminate()
            producer.join()
        queue.release()


# ----------------------------------------------------------------------
# Crash propagation
# ----------------------------------------------------------------------
class _ExplodingEnv(CooperativeLaneChangeEnv):
    def step(self, actions):
        raise RuntimeError("injected failure")


class _ExplodingFactory(EnvReplicaFactory):
    """Drop-in for EnvReplicaFactory that builds exploding replicas."""

    def __call__(self):
        return _ExplodingEnv(scenario=self.scenario)


def test_actor_crash_names_failing_shard(monkeypatch):
    monkeypatch.setattr(actor_learner, "EnvReplicaFactory", _ExplodingFactory)
    before = {proc.pid for proc in mp.active_children()}
    config = TrainingConfig(seed=0)
    config.scenario = SCENARIO
    env = CooperativeLaneChangeEnv(scenario=SCENARIO)
    team = HeroTeam(env, np.random.default_rng(0), batch_size=32)
    with pytest.raises(RuntimeError, match=r"(?s)async actor 0 failed.*injected failure"):
        train_hero(
            env,
            team,
            episodes=3,
            config=config,
            num_envs=4,
            eval_every=0,
            async_actors=True,
        )
    after = {proc.pid for proc in mp.active_children()}
    assert after <= before, "failed async run leaked processes"
