"""Fault injection for the N-actor fan-out: kill one actor mid-round.

One of two actors dies inside its collection loop — via ``os._exit`` (no
teardown, exit code 17) and via ``SIGKILL`` (exit code -9).  The learner
must surface a ``RuntimeError`` naming the dead actor process, unlink
every shared-memory segment the run created (parameter server plus one
ring per actor), and leave no orphan processes behind.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.config import ScenarioConfig, TrainingConfig
from repro.core import HeroTeam, train_hero
from repro.distributed import ParameterServer, ShmRingQueue, actor_learner
from repro.envs import CooperativeLaneChangeEnv, EnvReplicaFactory

SCENARIO = ScenarioConfig(episode_length=5)

# The second of two actors is the victim; actor 0 keeps collecting, so
# the learner sees the death while mid-merge, not at startup.
_VICTIM = "hero-actor-1"

_SEGMENTS: list[str] = []


class _RecordingServer(ParameterServer):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _SEGMENTS.append(self._name)


class _RecordingQueue(ShmRingQueue):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _SEGMENTS.append(self._name)


class _ExitEnv(CooperativeLaneChangeEnv):
    """Replica that hard-exits the victim actor on its first step."""

    def step(self, actions):
        if mp.current_process().name == _VICTIM:
            os._exit(17)
        return super().step(actions)


class _SigkillEnv(CooperativeLaneChangeEnv):
    """Replica that SIGKILLs the victim actor on its first step."""

    def step(self, actions):
        if mp.current_process().name == _VICTIM:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().step(actions)


class _ExitFactory(EnvReplicaFactory):
    """Drop-in for EnvReplicaFactory building :class:`_ExitEnv` replicas."""

    env_cls = _ExitEnv

    def __call__(self):
        return self.env_cls(scenario=self.scenario)


class _SigkillFactory(_ExitFactory):
    env_cls = _SigkillEnv


@pytest.mark.parametrize(
    "factory_cls", [_ExitFactory, _SigkillFactory], ids=["os_exit", "sigkill"]
)
def test_killed_actor_is_named_and_run_cleans_up(monkeypatch, factory_cls):
    monkeypatch.setattr(actor_learner, "EnvReplicaFactory", factory_cls)
    monkeypatch.setattr(actor_learner, "ParameterServer", _RecordingServer)
    monkeypatch.setattr(actor_learner, "ShmRingQueue", _RecordingQueue)
    _SEGMENTS.clear()
    before = {proc.pid for proc in mp.active_children()}

    config = TrainingConfig(seed=0)
    config.scenario = SCENARIO
    env = CooperativeLaneChangeEnv(scenario=SCENARIO)
    team = HeroTeam(env, np.random.default_rng(0), batch_size=32)
    with pytest.raises(RuntimeError, match=_VICTIM):
        train_hero(
            env,
            team,
            episodes=3,
            config=config,
            num_envs=2,
            eval_every=0,
            async_actors=True,
            num_actors=2,
        )

    after = {proc.pid for proc in mp.active_children()}
    assert after <= before, "failed fan-out run leaked processes"
    assert len(_SEGMENTS) == 3  # parameter server + one ring per actor
    for name in _SEGMENTS:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
