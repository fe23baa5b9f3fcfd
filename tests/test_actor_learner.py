"""Async actor–learner stack: equivalence, staleness, and lifecycle locks.

The contract under test (``repro.distributed.actor_learner``):

* ``async_actors`` with ``max_staleness=0`` (lockstep barrier) runs one
  actor and is **bit-for-bit** equal to the synchronous vectorized loop —
  metrics, logged steps and final network weights — for HERO
  (``train_hero``) and IDQN (``train_marl_vectorized``), on a two-env and
  on a one-env batch;
  asking it for more actors is a ``ValueError`` (and a CLI usage error)
  before any actor process starts;
* ``max_staleness > 0`` runs, logs a per-round snapshot-staleness series
  bounded by the budget, and still produces the full metric set;
* the shared-memory transition queue exerts backpressure: a producer
  that outruns the consumer blocks instead of growing the queue;
* an actor crash — an exception inside the actor's env batch — surfaces
  as a ``RuntimeError`` naming the failing actor, not a hang, and an
  exception while scoring the recorded evaluations (after the stack shut
  down) surfaces from ``train_hero`` as it was raised;
* a finished (or failed) run leaves no orphan processes and unlinks
  every shared-memory segment it created, also when an actor fails to
  start after others did, and only the creating process unlinks: a
  forked child's release leaves the segment in place;
* the actors start with the default start method, and lockstep stays
  bitwise under a ``spawn`` default too, where the actor spec (the
  learner's own team included) is pickled at start;
* every actor's spec carries the learner's own controller and none of
  the fields a rebuild would need, with its own RNG streams (actor 0's
  are the single-actor run's), and the parameter server publishes in
  the acting families' dtype;
* a family's snapshot is exported straight out of the learner's update
  engine's flat buffer, and members no engine bound are refused.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.baselines import make_baseline, train_marl_vectorized
from repro.config import ScenarioConfig, TrainingConfig
from repro.core import HeroTeam, train_hero
from repro.core import trainer as trainer_module
from repro.core.update_engine import UpdateEngine, gather_family, iter_family_params
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
from repro.nn.tensor import default_dtype

SCENARIO = ScenarioConfig(episode_length=5)


def _hero_run(
    async_actors: bool,
    *,
    max_staleness: int = 0,
    num_actors: int = 1,
    num_envs: int = 2,
    episodes: int = 3,
):
    config = TrainingConfig(seed=0)
    config.scenario = SCENARIO
    env = CooperativeLaneChangeEnv(scenario=SCENARIO)
    team = HeroTeam(env, np.random.default_rng(0), batch_size=32)
    logger = train_hero(
        env,
        team,
        episodes=episodes,
        config=config,
        num_envs=num_envs,
        eval_every=2,
        eval_episodes=2,
        async_actors=async_actors,
        max_staleness=max_staleness,
        num_actors=num_actors,
    )
    return logger, team


def _idqn_run(
    async_actors: bool,
    *,
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
            async_actors=async_actors,
            max_staleness=max_staleness,
            num_actors=num_actors,
        )
    finally:
        vec_env.close()
    return logger, algo


# Compute each (method, num_envs) synchronous reference once per test
# session.
_SYNC_CACHE: dict = {}


def _sync_reference(method: str, num_envs: int = 2):
    key = (method, num_envs)
    if key not in _SYNC_CACHE:
        run = _hero_run if method == "hero" else _idqn_run
        _SYNC_CACHE[key] = run(False, num_envs=num_envs)
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
def test_hero_lockstep_matches_sync_bitwise(num_actors, num_envs):
    log_sync, team_sync = _sync_reference("hero", num_envs)
    log_async, team_async = _hero_run(True, num_actors=num_actors, num_envs=num_envs)
    _assert_logs_equal(log_sync, log_async)
    state_sync, state_async = team_sync.state_dict(), team_async.state_dict()
    assert state_sync.keys() == state_async.keys()
    for key in state_sync:
        np.testing.assert_array_equal(state_sync[key], state_async[key], err_msg=key)


def test_hero_lockstep_matches_sync_bitwise_under_spawn(spawn_default):
    """Under a ``spawn`` default the actor acts on a copy of the learner's
    team unpickled from its spec; the run stays bitwise."""
    log_sync, team_sync = _sync_reference("hero")
    log_async, team_async = _hero_run(True)
    _assert_logs_equal(log_sync, log_async)
    state_sync, state_async = team_sync.state_dict(), team_async.state_dict()
    for key in state_sync:
        np.testing.assert_array_equal(state_sync[key], state_async[key], err_msg=key)
    assert mp.active_children() == []


@LOCKSTEP_LAYOUTS
def test_idqn_lockstep_matches_sync_bitwise(num_actors, num_envs):
    log_sync, algo_sync = _sync_reference("idqn", num_envs)
    log_async, algo_async = _idqn_run(True, num_actors=num_actors, num_envs=num_envs)
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
    # Env batches built by this process (forked children record into
    # their own copies of the list).
    built = []
    original = trainer_module.VectorEnv

    def recording_vector_env(*args, **kwargs):
        built.append(os.getpid())
        return original(*args, **kwargs)

    monkeypatch.setattr(trainer_module, "VectorEnv", recording_vector_env)

    logger, _ = _hero_run(True, max_staleness=2)
    # The learner builds one env batch: the rollout that scores the
    # recorded evaluations once the actors are gone.
    assert built == [os.getpid()]

    staleness = logger.values("hero/snapshot_staleness")
    assert staleness.size > 0
    assert (staleness >= 0).all() and (staleness <= 2).all()
    rounds = logger.steps("hero/snapshot_staleness")
    assert (np.diff(rounds) > 0).all(), "rounds must be logged monotonically"
    # Staleness mode must not drop episodes: the full metric set is there.
    assert logger.values("hero/episode_reward").size == 3

    after = {proc.pid for proc in mp.active_children()}
    assert after <= before, "async run leaked processes"
    # Parameter server and the transition queue.
    assert len(_CREATED_SEGMENTS) == 2
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
    # Every interleaved evaluation was recorded and scored: eval_every=2
    # over 3 episodes evaluates after episodes 0 and 2 (the last).
    evals = [name for name in logger.names() if "/eval_" in name]
    assert len(evals) == 4, evals
    for name in evals:
        np.testing.assert_array_equal(logger.steps(name), [0, 2], err_msg=name)


def test_hero_fanout_anneals_exploration_once_across_actors():
    """Actor k's e-th episode explores at the schedule's episode
    k + num_actors * e (IDQN's stride), so the actors walk the epsilon
    schedule once between them instead of each restarting it: no two
    logged episodes share an epsilon."""
    logger, _ = _hero_run(True, max_staleness=2, num_actors=2, episodes=12)
    epsilons = logger.values("hero/epsilon").tolist()
    assert len(epsilons) == 12
    assert len(set(epsilons)) == 12, epsilons


# ----------------------------------------------------------------------
# Segment ownership under fork
# ----------------------------------------------------------------------
def _release_in_child(handle) -> None:
    handle.release()


@pytest.mark.parametrize(
    "make",
    [lambda: ShmRingQueue(capacity=1024), lambda: ParameterServer({"w": 4})],
    ids=["queue", "server"],
)
def test_forked_child_release_keeps_the_segment(make):
    """A forked child inherits the creator's object; its release closes
    only its own mapping, and the creator's release unlinks."""
    handle = make()
    name = handle._name
    child = mp.get_context("fork").Process(target=_release_in_child, args=(handle,))
    child.start()
    child.join(timeout=10.0)
    assert child.exitcode == 0
    attached = shared_memory.SharedMemory(name=name)
    attached.close()
    handle.release()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


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


class _ScoreFailingEnv(CooperativeLaneChangeEnv):
    """Replica that raises on its first step."""

    def step(self, actions):
        raise RuntimeError("injected scoring failure")


class _ScoreFailingFactory(EnvReplicaFactory):
    def __call__(self):
        return _ScoreFailingEnv(scenario=self.scenario)


@pytest.mark.parametrize("max_staleness", [0, 2], ids=["lockstep", "staleness"])
def test_scoring_error_surfaces_after_the_stack_shut_down(monkeypatch, max_staleness):
    """Scoring runs in train_hero once the async stack has returned: an
    exception inside it surfaces as raised, with every actor joined and
    every segment unlinked.  Only the scoring rollout builds its replicas
    through trainer's factory (the actors use actor_learner's)."""
    monkeypatch.setattr(trainer_module, "EnvReplicaFactory", _ScoreFailingFactory)
    monkeypatch.setattr(actor_learner, "ParameterServer", _RecordingServer)
    monkeypatch.setattr(actor_learner, "ShmRingQueue", _RecordingQueue)
    _CREATED_SEGMENTS.clear()
    with pytest.raises(RuntimeError, match="injected scoring failure"):
        _hero_run(True, max_staleness=max_staleness)
    assert mp.active_children() == []
    assert len(_CREATED_SEGMENTS) == 2  # parameter server + one ring
    for name in _CREATED_SEGMENTS:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


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


class _SecondStartFails(mp.Process):
    """Actor process whose second instance fails to start, as a failed
    fork would."""

    def start(self):
        if self.name.endswith("-actor-1"):
            raise OSError("injected start failure")
        super().start()


def _assert_stack_cleaned_up(before: set, segments: int) -> None:
    after = {proc.pid for proc in mp.active_children()}
    assert after <= before, "an actor outlived the failed start"
    assert len(_CREATED_SEGMENTS) == segments
    for name in _CREATED_SEGMENTS:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


@pytest.mark.parametrize("method", ["hero", "idqn"])
def test_failed_actor_start_stops_the_started_actors(monkeypatch, method):
    """Two staleness actors, the second fails to start: the error
    surfaces, the first actor is stopped and joined, and the parameter
    server and both rings are unlinked."""
    monkeypatch.setattr(mp, "Process", _SecondStartFails)
    monkeypatch.setattr(actor_learner, "ParameterServer", _RecordingServer)
    monkeypatch.setattr(actor_learner, "ShmRingQueue", _RecordingQueue)
    _CREATED_SEGMENTS.clear()
    before = {proc.pid for proc in mp.active_children()}
    run = _hero_run if method == "hero" else _idqn_run
    with pytest.raises(OSError, match="injected start failure"):
        run(True, max_staleness=2, num_actors=2)
    _assert_stack_cleaned_up(before, segments=3)


def _refuse_pickling(self):
    raise TypeError("injected: this team cannot be pickled")


def test_unpicklable_team_fails_at_start_under_spawn(spawn_default, monkeypatch):
    """Under ``spawn`` the actor spec carries the learner's team, pickled
    at ``Process.start()``: a team that cannot be pickled raises there and
    the stack still unlinks its segments."""
    monkeypatch.setattr(HeroTeam, "__getstate__", _refuse_pickling, raising=False)
    monkeypatch.setattr(actor_learner, "ParameterServer", _RecordingServer)
    monkeypatch.setattr(actor_learner, "ShmRingQueue", _RecordingQueue)
    _CREATED_SEGMENTS.clear()
    before = {proc.pid for proc in mp.active_children()}
    with pytest.raises(TypeError, match="cannot be pickled"):
        _hero_run(True)
    _assert_stack_cleaned_up(before, segments=2)


# ----------------------------------------------------------------------
# Actor specs and snapshot exporters
# ----------------------------------------------------------------------
# The fields an actor needed to rebuild its controller before it acted on
# a copy of the learner's own.
_REBUILD_FIELDS = {
    "hyper", "option_set_args", "opponent_mode", "batch_size", "team_state",
    "skill_rng", "agent_ids", "obs_dim", "num_actions", "hidden_dim",
}


class _ActorsStarting(Exception):
    """Stops a run where its actors would start."""


def _controller(method: str):
    """A fresh HERO team or IDQN algorithm and a function that trains it
    on the async stack."""
    if method == "hero":
        config = TrainingConfig(seed=0)
        config.scenario = SCENARIO
        env = CooperativeLaneChangeEnv(scenario=SCENARIO)
        team = HeroTeam(env, np.random.default_rng(0), batch_size=32)
        return team, lambda **kwargs: train_hero(
            env, team, episodes=3, config=config, num_envs=2, eval_every=2,
            eval_episodes=2, async_actors=True, **kwargs,
        )
    vec_env = make_baseline_vector_env(2, scenario=SCENARIO)
    algo = make_baseline("idqn", vec_env, seed=3, batch_size=16, buffer_capacity=500)
    return algo, lambda **kwargs: train_marl_vectorized(
        vec_env, algo, episodes=4, seed=5, eval_every=2, eval_episodes=2,
        async_actors=True, **kwargs,
    )


def _actor_specs(monkeypatch, method: str, num_actors: int):
    """The learner's controller and what its staleness actors would start
    with: their kind, specs and rings and the server's dtype."""
    seen = {}

    def capture(kind, server, queues, specs, started):
        seen.update(kind=kind, specs=specs, rings=len(queues), dtype=server.dtype)
        raise _ActorsStarting

    monkeypatch.setattr(actor_learner, "_start_actors", capture)
    controller, run = _controller(method)
    with pytest.raises(_ActorsStarting):
        run(max_staleness=2, num_actors=num_actors)
    return controller, seen


@pytest.mark.parametrize("method", ["hero", "idqn"])
def test_actor_specs_carry_the_learners_own_controller(monkeypatch, method):
    """Two float32 staleness actors are each handed the learner's own
    controller (inherited or pickled at start, never rebuilt), none of
    the rebuild fields, their own id and RNG streams and the learner's
    dtype; the server publishes float32; actor 0's streams, and HERO's
    env seeds, are the single-actor run's."""
    with default_dtype("float32"):
        controller, seen = _actor_specs(monkeypatch, method, num_actors=2)
        _, alone = _actor_specs(monkeypatch, method, num_actors=1)
    specs = seen["specs"]
    assert (seen["kind"], seen["rings"], seen["dtype"]) == (method, 2, np.float32)
    assert [spec["actor_id"] for spec in specs] == [0, 1]
    for spec in specs:
        assert spec["controller"] is controller
        assert not _REBUILD_FIELDS & spec.keys()
        assert (spec["num_actors"], spec["max_staleness"]) == (2, 2)
        assert spec["dtype"] == "float32"
    first, second = (np.stack(spec["actor_rng"]) for spec in specs)
    assert not np.array_equal(first, second)
    np.testing.assert_array_equal(first, np.stack(alone["specs"][0]["actor_rng"]))
    if method == "hero":
        assert specs[0]["seed_sets"][0] == alone["specs"][0]["seed_sets"][0]
        assert specs[0]["seed_sets"][0] != specs[0]["seed_sets"][1]


@pytest.mark.parametrize("method", ["hero", "idqn"])
def test_exporter_reads_a_fused_buffer_in_place(method):
    """The update engine's flat buffer is published without a copy, and
    each export holds the family's current parameters; members that no
    engine bound tile no buffer and are refused."""
    controller, _ = _controller(method)
    acting = actor_learner._hero_acting if method == "hero" else actor_learner._idqn_acting
    for members in acting(controller)[0].values():
        with pytest.raises(RuntimeError, match="UpdateEngine"):
            actor_learner._make_exporter(members)
    UpdateEngine(controller)
    for members in acting(controller)[0].values():
        export = actor_learner._make_exporter(members)
        first = next(iter_family_params(members)).data
        assert np.shares_memory(export(), first)
        np.testing.assert_array_equal(export(), gather_family(members))
        first += 1.0
        np.testing.assert_array_equal(export(), gather_family(members))
