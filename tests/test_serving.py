"""Tests for the serving stack (ISSUE 7).

The contract under test:

* checkpoint round trips are **bitwise**: flat vector → rebuild →
  re-export reproduces both every parameter array and the flat vector,
* all five methods expose the unified
  ``state_dict/load_state_dict/save/load`` persistence contract
  (``MARLAlgorithm`` supplies the default implementation),
* served greedy actions are bitwise-equal to the vectorized evaluators'
  at batch sizes {1, 7, 32} (HERO and IDQN) when every slot submits each
  step,
* the micro-batcher honours its flush policy (max-batch-size / max-wait),
  routes results to the right futures under concurrent load, survives
  handler failures, and drains on close,
* corrupted / version-mismatched archives fail with ``CheckpointError``,
* archives whose scenario records the retired camera fields still load
  and serve their policy, unless they record image observations,
* checkpoints hot-reload into a running server between batches.
"""

import dataclasses
import os
import pickle
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import (
    CheckpointError,
    HeroTeam,
    ObservationRequest,
    PolicyClient,
    PolicyServer,
    TrainingConfig,
    load_checkpoint,
    load_policy,
    make_baseline,
    save_checkpoint,
    train_hero,
)
from repro.config import ScenarioConfig
from repro.core.batched import BatchedHeroRunner
from repro.distributed.protocol import encode_json_meta
from repro.envs import CooperativeLaneChangeEnv, VectorEnv
from repro.envs.wrappers import make_baseline_env, make_baseline_vector_env
from repro.experiments.common import ExperimentResult, TrainedMethod
from repro.experiments.table2 import _load_methods, _persist_methods
from repro.serving import (
    CHECKPOINT_FORMAT_VERSION,
    BatcherClosed,
    MicroBatcher,
    split_hero_batch,
)
from repro.serving.server import MAX_FRAME_BYTES, _recv_frame

BASELINE_NAMES = ["idqn", "coma", "maddpg", "maac"]


def small_scenario() -> ScenarioConfig:
    return ScenarioConfig(episode_length=8)


def fresh_team(seed=3, scenario=None, **kwargs) -> HeroTeam:
    env = CooperativeLaneChangeEnv(scenario=scenario or small_scenario())
    return HeroTeam(env, np.random.default_rng(seed), **kwargs)


def assert_state_equal(s1, s2):
    assert set(s1) == set(s2)
    for key in s1:
        assert np.array_equal(s1[key], s2[key]), key


# ---------------------------------------------------------------------------
# Checkpoint round trips
# ---------------------------------------------------------------------------


def test_hero_checkpoint_roundtrip_bitwise(tmp_path):
    team = fresh_team(seed=11)
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team, scenario=team.env.scenario, rewards=team.env.rewards)
    loaded = load_policy(path)
    assert loaded.method == "hero"
    assert_state_equal(team.state_dict(), loaded.controller.state_dict())
    # Re-export: flat vector and metadata bytes are reproduced exactly.
    path2 = tmp_path / "hero2.npz"
    save_checkpoint(
        path2, loaded.controller, scenario=loaded.scenario, rewards=loaded.rewards
    )
    ckpt1, ckpt2 = load_checkpoint(path), load_checkpoint(path2)
    assert np.array_equal(ckpt1.flat_params, ckpt2.flat_params)
    assert ckpt1.meta["keys"] == ckpt2.meta["keys"]


def test_hero_checkpoint_preserves_build_and_configs(tmp_path):
    scenario = ScenarioConfig(episode_length=12, num_learning_vehicles=2)
    env = CooperativeLaneChangeEnv(scenario=scenario)
    team = HeroTeam(
        env, np.random.default_rng(0), opponent_mode="observed", batch_size=64
    )
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team, scenario=scenario, rewards=env.rewards)
    loaded = load_policy(path)
    assert loaded.scenario == scenario
    first = next(iter(loaded.controller.agents.values())).high_level
    assert first.opponent_mode == "observed"
    assert first.batch_size == 64


@pytest.mark.parametrize("name", BASELINE_NAMES)
def test_baseline_checkpoint_roundtrip_bitwise(name, tmp_path):
    env = make_baseline_env(scenario=small_scenario())
    algo = make_baseline(name, env, seed=5)
    path = tmp_path / f"{name}.npz"
    save_checkpoint(path, algo, scenario=small_scenario())
    loaded = load_policy(path)
    assert loaded.method == name
    assert_state_equal(algo.state_dict(), loaded.controller.state_dict())


@pytest.mark.parametrize("name", BASELINE_NAMES)
def test_unified_persistence_contract(name, tmp_path):
    """state_dict/load_state_dict/save/load — the MARLAlgorithm defaults."""
    env = make_baseline_env(scenario=small_scenario())
    source = make_baseline(name, env, seed=1)
    target = make_baseline(name, env, seed=2)  # different init
    state = source.state_dict()
    assert state  # targets + critics + actors discovered generically
    target.load_state_dict(state)
    assert_state_equal(source.state_dict(), target.state_dict())
    # npz save/load round trip
    path = tmp_path / f"{name}_raw.npz"
    source.save(path)
    third = make_baseline(name, env, seed=9)
    third.load(path)
    assert_state_equal(source.state_dict(), third.state_dict())


def test_load_state_dict_strict_mismatch():
    env = make_baseline_env(scenario=small_scenario())
    algo = make_baseline("idqn", env, seed=1)
    state = algo.state_dict()
    state.pop(next(iter(state)))
    with pytest.raises(KeyError, match="missing"):
        algo.load_state_dict(state)
    state = algo.state_dict()
    state["not.a.real.key"] = np.zeros(3)
    with pytest.raises(KeyError, match="unexpected"):
        algo.load_state_dict(state)


def test_train_hero_checkpoint_path(tmp_path):
    scenario = small_scenario()
    config = TrainingConfig(seed=0)
    config.scenario = scenario
    env = CooperativeLaneChangeEnv(scenario=scenario)
    team = HeroTeam(env, np.random.default_rng(0), batch_size=8)
    path = tmp_path / "trained.npz"
    train_hero(
        env, team, episodes=1, config=config, eval_every=0,
        checkpoint_path=str(path),
    )
    loaded = load_policy(path)
    assert_state_equal(team.state_dict(), loaded.controller.state_dict())
    assert loaded.checkpoint.meta["extra"]["seed"] == 0


# ---------------------------------------------------------------------------
# Corrupted / incompatible archives
# ---------------------------------------------------------------------------


def test_load_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.npz"
    path.write_bytes(b"this is not an npz archive")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_load_checkpoint_rejects_missing_keys(tmp_path):
    path = tmp_path / "wrong.npz"
    np.savez(path, unrelated=np.zeros(4))
    with pytest.raises(CheckpointError, match="missing archive keys"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_version_mismatch(tmp_path):
    team = fresh_team()
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team)
    with np.load(path) as archive:
        entries = {name: archive[name] for name in archive.files}
    entries["format_version"] = np.int64(99)
    np.savez(path, **entries)
    with pytest.raises(CheckpointError, match="99") as excinfo:
        load_checkpoint(path)
    assert str(CHECKPOINT_FORMAT_VERSION) in str(excinfo.value)


def test_load_checkpoint_rejects_corrupted_meta(tmp_path):
    team = fresh_team()
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team)
    with np.load(path) as archive:
        entries = {name: archive[name] for name in archive.files}
    entries["meta"] = np.frombuffer(b"{broken json", dtype=np.uint8).copy()
    np.savez(path, **entries)
    with pytest.raises(CheckpointError, match="metadata"):
        load_checkpoint(path)


def test_load_policy_rejects_unknown_method(tmp_path):
    team = fresh_team()
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team)
    ckpt = load_checkpoint(path)
    meta = dict(ckpt.meta)
    meta["method"] = "not-a-method"
    np.savez(
        path,
        format_version=np.int64(CHECKPOINT_FORMAT_VERSION),
        meta=encode_json_meta(meta),
        flat_params=ckpt.flat_params,
    )
    with pytest.raises(CheckpointError, match="not-a-method"):
        load_policy(path)


_RETIRED_DEFAULTS = {"camera_size": 16, "camera_range": 2.0}


def _rewrite_with_camera_fields(
    path,
    observation_mode,
    keys=("camera_size", "camera_range", "observation_mode"),
    format_version=CHECKPOINT_FORMAT_VERSION,
):
    """Give the archive's scenario the fields every build with the
    camera pipeline wrote: ``camera_size``, ``camera_range`` and
    ``observation_mode`` (the first two at their old defaults), or only
    the ``keys`` named.  ``format_version=1`` also drops the ``dtype``
    field, which format 1 predates."""
    ckpt = load_checkpoint(path)
    meta = dict(ckpt.meta)
    retired = dict(_RETIRED_DEFAULTS, observation_mode=observation_mode)
    meta["scenario"] = dict(meta["scenario"], **{key: retired[key] for key in keys})
    if format_version == 1:
        del meta["dtype"]
    np.savez(
        path,
        format_version=np.int64(format_version),
        meta=encode_json_meta(meta),
        flat_params=ckpt.flat_params,
    )


def test_archive_with_camera_fields_serves_the_saved_policy(tmp_path):
    scenario = small_scenario()
    team = fresh_team(seed=8, scenario=scenario)
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team, scenario=scenario, rewards=team.env.rewards)
    _rewrite_with_camera_fields(path, "features")
    loaded = load_policy(path)
    assert loaded.scenario == scenario
    assert_state_equal(team.state_dict(), loaded.controller.state_dict())
    # Served greedy actions equal the saved controller's own.
    vec_env = VectorEnv(3, scenario=scenario)
    saved_runner = BatchedHeroRunner(team, vec_env)
    with PolicyServer(loaded, num_slots=3, max_wait_us=10e6) as srv:
        _drive_hero_parity(srv, saved_runner, vec_env, steps=10)


def test_archive_with_image_observations_is_refused(tmp_path):
    team = fresh_team()
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team)
    _rewrite_with_camera_fields(path, "image")
    with pytest.raises(CheckpointError, match="observation_mode='image'"):
        load_policy(path)


def test_archive_written_by_this_build_records_no_retired_keys(tmp_path):
    """New archives carry only live scenario fields, so an earlier build
    reads them with the retired fields at their defaults."""
    team = fresh_team()
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team, scenario=small_scenario())
    recorded = set(load_checkpoint(path).meta["scenario"])
    assert recorded == {field.name for field in dataclasses.fields(ScenarioConfig)}
    assert recorded.isdisjoint({"observation_mode", "camera_size", "camera_range"})


@pytest.mark.parametrize("key", ["observation_mode", "camera_size", "camera_range"])
def test_archive_with_one_retired_key_loads(key, tmp_path):
    scenario = small_scenario()
    team = fresh_team(seed=4, scenario=scenario)
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team, scenario=scenario)
    _rewrite_with_camera_fields(path, "features", keys=(key,))
    loaded = load_policy(path)
    assert loaded.scenario == scenario
    assert_state_equal(team.state_dict(), loaded.controller.state_dict())


def test_retired_keys_do_not_hide_unknown_scenario_fields(tmp_path):
    """Only the three camera keys are dropped; any other unknown field
    still marks the archive as corrupted."""
    team = fresh_team()
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team)
    _rewrite_with_camera_fields(path, "features")
    ckpt = load_checkpoint(path)
    meta = dict(ckpt.meta)
    meta["scenario"] = dict(meta["scenario"], lidar_fov=1.0)
    np.savez(
        path,
        format_version=np.int64(CHECKPOINT_FORMAT_VERSION),
        meta=encode_json_meta(meta),
        flat_params=ckpt.flat_params,
    )
    with pytest.raises(CheckpointError, match="corrupted checkpoint config"):
        load_policy(path)


def test_format1_archive_with_camera_fields_loads(tmp_path):
    """Format-1 archives predate both the dtype field and the camera's
    removal; they load as float64 with their scenario intact."""
    scenario = small_scenario()
    team = fresh_team(seed=6, scenario=scenario)
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team, scenario=scenario)
    _rewrite_with_camera_fields(path, "features", format_version=1)
    loaded = load_policy(path)
    assert loaded.scenario == scenario
    assert_state_equal(team.state_dict(), loaded.controller.state_dict())


@pytest.mark.parametrize("name", BASELINE_NAMES)
def test_baseline_archive_with_camera_fields_loads(name, tmp_path):
    env = make_baseline_env(scenario=small_scenario())
    algo = make_baseline(name, env, seed=5)
    path = tmp_path / f"{name}.npz"
    save_checkpoint(path, algo, scenario=small_scenario())
    _rewrite_with_camera_fields(path, "features")
    loaded = load_policy(path)
    assert loaded.method == name
    assert loaded.scenario == small_scenario()
    assert_state_equal(algo.state_dict(), loaded.controller.state_dict())


# ---------------------------------------------------------------------------
# Micro-batcher
# ---------------------------------------------------------------------------


def test_batcher_flushes_when_full():
    done = threading.Event()

    def handler(batch):
        done.set()
        return [x * 2 for x in batch]

    with MicroBatcher(handler, max_batch_size=4, max_wait_us=30e6) as batcher:
        futures = [batcher.submit(i) for i in range(4)]
        assert [f.result(timeout=10) for f in futures] == [0, 2, 4, 6]
        assert batcher.batch_sizes[0] == 4  # flushed on size, not timeout


def test_batcher_flushes_on_timeout():
    with MicroBatcher(lambda b: list(b), max_batch_size=64, max_wait_us=5_000) as b:
        future = b.submit("lonely")
        assert future.result(timeout=10) == "lonely"
        assert b.batch_sizes == [1]


def test_batcher_handler_error_fails_batch_not_worker():
    def handler(batch):
        if "bad" in batch:
            raise ValueError("poisoned batch")
        return batch

    with MicroBatcher(handler, max_batch_size=1, max_wait_us=1_000) as b:
        bad = b.submit("bad")
        with pytest.raises(ValueError, match="poisoned"):
            bad.result(timeout=10)
        assert b.submit("fine").result(timeout=10) == "fine"


def test_batcher_result_count_mismatch_is_an_error():
    with MicroBatcher(lambda batch: [], max_batch_size=1, max_wait_us=1_000) as b:
        with pytest.raises(RuntimeError, match="returned 0 results"):
            b.submit("x").result(timeout=10)


def test_batcher_close_drains_then_rejects():
    batcher = MicroBatcher(lambda b: list(b), max_batch_size=256, max_wait_us=30e6)
    futures = [batcher.submit(i) for i in range(10)]
    batcher.close()  # must flush the queued 10 before stopping
    assert [f.result(timeout=10) for f in futures] == list(range(10))
    with pytest.raises(BatcherClosed):
        batcher.submit(11)


def test_batcher_concurrent_routing_stress():
    """16 threads x 50 unique payloads: every result routed to its future."""
    with MicroBatcher(
        lambda batch: [x * 2 for x in batch], max_batch_size=16, max_wait_us=500
    ) as batcher:
        failures = []

        def client(base):
            for i in range(50):
                payload = base * 1000 + i
                result = batcher.submit(payload).result(timeout=30)
                if result != payload * 2:
                    failures.append((payload, result))

        threads = [threading.Thread(target=client, args=(t,)) for t in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures


# ---------------------------------------------------------------------------
# Served-action parity (the tentpole contract)
# ---------------------------------------------------------------------------


def _drive_hero_parity(server, ref_runner, vec_env, steps):
    """Step the env with reference actions; assert served == reference."""
    ref_runner.sync_observed_options()
    ref_runner.start_all()
    n = vec_env.num_envs
    obs = vec_env.reset(list(range(n)))
    for step in range(steps):
        ref_actions = ref_runner.act(obs, epsilon=0.0, explore=False)
        requests = split_hero_batch(obs, vec_env.agent_d, vec_env.agent_heading)
        futures = [server.submit_async(r) for r in requests]
        served = np.stack([f.result(timeout=30) for f in futures])
        assert np.array_equal(ref_actions, served), f"divergence at step {step}"
        obs, _, dones, _ = vec_env.step(ref_actions)
        for i in np.flatnonzero(dones):
            ref_runner.start_episode(int(i))
            server.reset_slot(int(i))


@pytest.mark.parametrize("batch", [1, 7, 32])
def test_served_hero_parity(batch, tmp_path):
    """Served greedy actions == evaluate_hero_vectorized's runner, bitwise."""
    scenario = small_scenario()
    team = fresh_team(seed=2, scenario=scenario)
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team, scenario=scenario, rewards=team.env.rewards)

    vec_env = VectorEnv(batch, scenario=scenario)
    ref_runner = BatchedHeroRunner(load_policy(path).controller, vec_env)
    with PolicyServer(load_policy(path), num_slots=batch, max_wait_us=10e6) as srv:
        _drive_hero_parity(srv, ref_runner, vec_env, steps=10)


def test_served_hero_parity_observed_mode(tmp_path):
    scenario = small_scenario()
    team = fresh_team(seed=4, scenario=scenario, opponent_mode="observed")
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team, scenario=scenario)
    vec_env = VectorEnv(3, scenario=scenario)
    ref_runner = BatchedHeroRunner(load_policy(path).controller, vec_env)
    with PolicyServer(load_policy(path), num_slots=3, max_wait_us=10e6) as srv:
        _drive_hero_parity(srv, ref_runner, vec_env, steps=10)


def test_served_hero_partial_batches_stay_greedy(tmp_path):
    """Partial flushes route through the subset runner without corrupting
    per-slot state: a full-batch step before and after still matches."""
    scenario = small_scenario()
    team = fresh_team(seed=6, scenario=scenario)
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team, scenario=scenario)
    vec_env = VectorEnv(4, scenario=scenario)
    loaded = load_policy(path)
    with PolicyServer(loaded, num_slots=4, max_batch_size=4, max_wait_us=3_000) as srv:
        obs = vec_env.reset(list(range(4)))
        requests = split_hero_batch(obs, vec_env.agent_d, vec_env.agent_heading)
        # Submit only two slots: the batcher times out and flushes a partial
        # batch through the subset path.
        futures = [srv.submit_async(requests[i]) for i in (1, 3)]
        partial = [f.result(timeout=30) for f in futures]
        assert all(a.shape == (vec_env.num_agents, 2) for a in partial)
        # The other two slots still answer, and every slot keeps its state.
        futures = [srv.submit_async(requests[i]) for i in (0, 2)]
        rest = [f.result(timeout=30) for f in futures]
        assert all(np.isfinite(a).all() for a in rest)


@pytest.mark.parametrize("batch", [1, 7, 32])
def test_served_idqn_parity(batch, tmp_path):
    """Served baseline actions == act_batch(explore=False), bitwise."""
    scenario = small_scenario()
    env = make_baseline_env(scenario=scenario)
    algo = make_baseline("idqn", env, seed=5)
    path = tmp_path / "idqn.npz"
    save_checkpoint(path, algo, scenario=scenario)
    loaded = load_policy(path)

    vec = make_baseline_vector_env(batch, scenario=scenario)
    try:
        obs = vec.reset(list(range(batch)))
        with PolicyServer(loaded, num_slots=batch, max_wait_us=10e6) as srv:
            for _ in range(6):
                ref = loaded.controller.act_batch(obs, explore=False)
                futures = [
                    srv.submit_async(ObservationRequest(slot=i, obs=obs[i]))
                    for i in range(batch)
                ]
                served = np.stack([f.result(timeout=30) for f in futures])
                assert np.array_equal(ref, served)
                obs = vec.step(ref)[0]
    finally:
        vec.vec_env.close()


def test_server_rejects_bad_slots(tmp_path):
    team = fresh_team()
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team, scenario=team.env.scenario)
    with PolicyServer(load_policy(path), num_slots=2, max_wait_us=10e6) as srv:
        vec_env = VectorEnv(2, scenario=team.env.scenario)
        obs = vec_env.reset([0, 1])
        requests = split_hero_batch(obs, vec_env.agent_d, vec_env.agent_heading)
        bad = ObservationRequest(
            slot=7, obs=requests[0].obs, d=requests[0].d, heading=requests[0].heading
        )
        future = srv.submit_async(bad)
        # Out-of-range slot fails fast; the server survives.
        with pytest.raises(ValueError, match="out of range"):
            # The lone bad request flushes on max_batch_size=2? No — pair it.
            srv.submit(requests[1])
        with pytest.raises(ValueError, match="out of range"):
            future.result(timeout=30)
        with pytest.raises(ValueError):
            srv.reset_slot(9)


# ---------------------------------------------------------------------------
# Hot reload + socket front-end
# ---------------------------------------------------------------------------


def test_hot_reload_swaps_policy(tmp_path):
    scenario = small_scenario()
    team_a = fresh_team(seed=1, scenario=scenario)
    team_b = fresh_team(seed=99, scenario=scenario)
    path_a, path_b = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(path_a, team_a, scenario=scenario)
    save_checkpoint(path_b, team_b, scenario=scenario)

    vec_env = VectorEnv(2, scenario=scenario)
    ref_b = BatchedHeroRunner(load_policy(path_b).controller, vec_env)
    with PolicyServer(load_policy(path_a), num_slots=2, max_wait_us=10e6) as srv:
        srv.reload(path_b)
        for i in range(2):
            srv.reset_slot(i)
        _drive_hero_parity(srv, ref_b, vec_env, steps=6)


def test_hot_reload_rejects_wrong_method(tmp_path):
    team = fresh_team()
    env = make_baseline_env(scenario=small_scenario())
    algo = make_baseline("idqn", env, seed=0)
    hero_path, idqn_path = tmp_path / "hero.npz", tmp_path / "idqn.npz"
    save_checkpoint(hero_path, team, scenario=team.env.scenario)
    save_checkpoint(idqn_path, algo, scenario=small_scenario())
    with PolicyServer(load_policy(hero_path), num_slots=1) as srv:
        with pytest.raises(CheckpointError, match="idqn"):
            srv.reload(idqn_path)


def test_socket_roundtrip_matches_in_process(tmp_path):
    scenario = small_scenario()
    team = fresh_team(seed=8, scenario=scenario)
    path = tmp_path / "hero.npz"
    save_checkpoint(path, team, scenario=scenario)
    vec_env = VectorEnv(2, scenario=scenario)
    ref_runner = BatchedHeroRunner(load_policy(path).controller, vec_env)
    ref_runner.start_all()
    obs = vec_env.reset([0, 1])
    with PolicyServer(load_policy(path), num_slots=2, max_wait_us=10e6) as srv:
        host, port = srv.serve()
        clients = [PolicyClient(host, port) for _ in range(2)]
        try:
            info = clients[0].info()
            assert info.method == "hero"
            assert info.num_slots == 2
            for step in range(4):
                ref_actions = ref_runner.act(obs, epsilon=0.0, explore=False)
                requests = split_hero_batch(
                    obs, vec_env.agent_d, vec_env.agent_heading
                )
                served = [None, None]

                def call(i, req, out=served, cs=clients):
                    out[i] = cs[i].act(req)

                threads = [
                    threading.Thread(target=call, args=(i, requests[i]))
                    for i in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert np.array_equal(ref_actions, np.stack(served))
                obs, _, dones, _ = vec_env.step(ref_actions)
                for i in np.flatnonzero(dones):
                    ref_runner.start_episode(int(i))
                    assert clients[int(i)].reset_slot(int(i)) is True
            # Server-side errors come back as error frames, not hangs.
            with pytest.raises(RuntimeError, match="out of range"):
                clients[0].reset_slot(55)
        finally:
            for c in clients:
                c.close()


def test_socket_frame_sent_one_byte_at_a_time_round_trips():
    scenario = small_scenario()
    vec_env = VectorEnv(1, scenario=scenario)
    obs = vec_env.reset([4])
    (request,) = split_hero_batch(obs, vec_env.agent_d, vec_env.agent_heading)
    data = pickle.dumps(("act", request))
    frame = struct.pack(">Q", len(data)) + data
    with PolicyServer(fresh_team(seed=8, scenario=scenario), num_slots=1) as srv:
        host, port = srv.serve()
        with socket.create_connection((host, port), timeout=30) as raw:
            raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for k in range(len(frame)):
                raw.sendall(frame[k : k + 1])
                time.sleep(0.0002)
            status, action = _recv_frame(raw)
        assert status == "ok"
        srv.reset_slot(0)
        assert np.array_equal(action, srv.submit(request))


def test_oversized_frame_closes_only_that_connection():
    with PolicyServer(fresh_team(seed=8), num_slots=1) as srv:
        host, port = srv.serve()
        with PolicyClient(host, port) as good:
            assert good.info().method == "hero"
            with socket.create_connection((host, port), timeout=30) as bad:
                bad.sendall(struct.pack(">Q", MAX_FRAME_BYTES + 1))
                try:
                    closed = bad.recv(1) == b""
                except ConnectionResetError:
                    closed = True
                assert closed
            assert good.info().num_slots == 1
            with PolicyClient(host, port) as late:
                assert late.reset_slot(0) is True


# ---------------------------------------------------------------------------
# TrainedMethod persistence + table2 plumbing
# ---------------------------------------------------------------------------


def test_trained_method_checkpoint_roundtrip(tmp_path):
    scenario = small_scenario()
    team = fresh_team(seed=12, scenario=scenario)
    method = TrainedMethod(
        "hero", None, controller=team,
        scenario=scenario, rewards=team.env.rewards,
    )
    path = tmp_path / "hero.npz"
    method.to_checkpoint(path)
    reloaded = TrainedMethod.from_checkpoint(path)
    assert reloaded.name == "hero"
    assert reloaded.scenario == scenario
    assert_state_equal(team.state_dict(), reloaded.controller.state_dict())
    # The reloaded method evaluates end to end.
    metrics = reloaded.evaluate(reloaded.controller.env, 1, 0)
    assert "collision_rate" in metrics


def test_trained_method_requires_controller(tmp_path):
    method = TrainedMethod("hero", None)
    with pytest.raises(ValueError, match="no controller"):
        method.to_checkpoint(tmp_path / "x.npz")


def test_table2_persist_and_load_helpers(tmp_path):
    scenario = small_scenario()
    env = make_baseline_env(scenario=scenario)
    algo = make_baseline("idqn", env, seed=2)
    result = ExperimentResult(scenario=scenario)
    result.methods["idqn"] = TrainedMethod(
        "idqn", None, controller=algo,
        scenario=scenario, rewards=result.rewards,
    )
    paths = _persist_methods(result, str(tmp_path / "ckpts"))
    assert os.path.exists(paths["idqn"])
    reloaded = _load_methods(str(tmp_path / "ckpts"), ["idqn"])
    assert reloaded is not None
    assert reloaded.scenario == scenario
    assert_state_equal(
        algo.state_dict(), reloaded.methods["idqn"].controller.state_dict()
    )
    # Incomplete directories fall back to training.
    assert _load_methods(str(tmp_path / "ckpts"), ["idqn", "hero"]) is None


def test_public_surface_exports():
    import repro

    for name in (
        "load_policy", "save_checkpoint", "load_checkpoint", "PolicyServer",
        "PolicyClient", "MicroBatcher", "TrainingConfig", "train_hero",
        "HeroTeam", "make_baseline",
    ):
        assert name in repro.__all__
        assert getattr(repro, name) is not None
