"""Algorithm 2 on two processes: ``train_low_level_skills`` trains lane
change in a child process while the parent trains lane keeping.

The contract under test: the result is bitwise that of the two sequential
``train_skill`` calls (skill state dicts, ``log_alpha``, both RNG states,
the replay buffers and their cursors, the logged series) at float64 and
float32, under the platform's start method and under ``spawn``; a child that raises or dies surfaces in the
parent naming the skill, and no process outlives the call.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.core import SkillLibrary, train_skill
from repro.core import trainer
from repro.core.trainer import train_low_level_skills
from repro.envs import LaneChangeEnv, LaneKeepingEnv, low_level_obs_dim
from repro.experiments.common import bench_scenario
from repro.nn.tensor import default_dtype
from repro.utils import MetricLogger

# Six episodes per skill: past the 64-transition warm-up of both skills,
# so each trains through dozens of SAC updates.
EPISODES = 6
SKILLS = ("driving_in_lane", "lane_change")


def _config(seed: int = 3) -> TrainingConfig:
    config = TrainingConfig(seed=seed)
    config.scenario = bench_scenario()
    return config


def _library(config: TrainingConfig, seed: int) -> SkillLibrary:
    return SkillLibrary(
        low_level_obs_dim(config.scenario), np.random.default_rng(seed),
        hyper=config.hyper,
    )


def _sequential(config, episodes, skills=None, logger=None):
    """The reference: Algorithm 2 as two train_skill calls in turn."""
    logger = logger or MetricLogger()
    skills = skills or _library(config, config.seed)
    for agent, env_cls, seed, prefix in (
        (skills.driving_in_lane, LaneKeepingEnv, config.seed, "lane_keeping"),
        (skills.lane_change, LaneChangeEnv, config.seed + 1, "lane_change"),
    ):
        train_skill(
            env_cls(config.scenario, config.rewards),
            agent,
            episodes=episodes,
            seed=seed,
            logger=logger,
            log_prefix=prefix,
        )
    return skills, logger


def _assert_bitwise(result, reference) -> None:
    (skills, logger), (ref_skills, ref_logger) = result, reference
    state, ref_state = skills.state_dict(), ref_skills.state_dict()
    assert list(state) == list(ref_state)
    for key in ref_state:
        assert state[key].dtype == ref_state[key].dtype, key
        np.testing.assert_array_equal(state[key], ref_state[key], err_msg=key)
    for name in SKILLS:
        agent, ref = getattr(skills, name), getattr(ref_skills, name)
        assert agent._log_alpha == ref._log_alpha, name
        assert agent._rng.bit_generator.state == ref._rng.bit_generator.state, name
        buffer, ref_buffer = agent.buffer, ref.buffer
        assert (buffer._index, buffer._size) == (ref_buffer._index, ref_buffer._size)
        assert buffer._size > agent.batch_size // 4, name  # updates ran
        for field in ("obs", "actions", "rewards", "next_obs", "dones"):
            np.testing.assert_array_equal(
                getattr(buffer, field), getattr(ref_buffer, field), err_msg=field
            )
    assert logger.names() == ref_logger.names()
    assert list(logger.to_dict()) == list(ref_logger.to_dict())
    for name in ref_logger.names():
        np.testing.assert_array_equal(logger.steps(name), ref_logger.steps(name))
        np.testing.assert_array_equal(
            logger.values(name), ref_logger.values(name), err_msg=name
        )
    assert mp.active_children() == []


class TestBitwiseEqualsSequential:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_fresh_library(self, dtype):
        config = _config()
        with default_dtype(dtype):
            result = train_low_level_skills(config, EPISODES)
            reference = _sequential(config, EPISODES)
        _assert_bitwise(result, reference)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_supplied_library_and_logger_trained_twice(self, dtype):
        """A caller's library and logger, trained by two calls: the second
        call continues from the adopted agent (parameters, ``log_alpha``,
        RNG, replay; each call's engine starts its own optimiser state), as
        it would after sequential training."""
        config = _config(seed=11)

        def run(train):
            skills, logger = _library(config, 5), MetricLogger()
            logger.log("caller/series", 1.0, 0)
            out = train(config, EPISODES, skills=skills, logger=logger)
            assert out[0] is skills and out[1] is logger
            return train(config, 3, skills=skills, logger=logger)

        with default_dtype(dtype):
            _assert_bitwise(run(train_low_level_skills), run(_sequential))

    def test_spawn_start_method(self, spawn_default):
        """Under spawn the agent crosses to the child by pickle, and the
        child replays the parent's float32 compute dtype."""
        config = _config(seed=4)
        with default_dtype("float32"):
            result = train_low_level_skills(config, EPISODES)
            reference = _sequential(config, EPISODES)
        _assert_bitwise(result, reference)

    def test_daemonic_process_trains_in_turn(self):
        """A pool worker (daemonic, may not start children) gets the same
        result from the in-process fallback."""
        config = _config(seed=6)
        ctx = mp.get_context()
        with ctx.Pool(1) as pool:
            states = pool.apply(_train_in_worker, (config,))
        skills, _ = _sequential(config, EPISODES)
        for key, value in skills.state_dict().items():
            np.testing.assert_array_equal(states[key], value, err_msg=key)
        pool.join()
        assert mp.active_children() == []


def _train_in_worker(config):
    skills, _ = train_low_level_skills(config, EPISODES)
    return skills.state_dict()


class TestFailures:
    def _patch(self, monkeypatch, on_lane_change):
        original = trainer.train_skill

        def patched(*args, **kwargs):
            if kwargs.get("log_prefix") == "lane_change":
                on_lane_change()
            return original(*args, **kwargs)

        monkeypatch.setattr(trainer, "train_skill", patched)

    def test_child_exception_names_the_skill(self, monkeypatch):
        def fail():
            raise ValueError("injected skill failure")

        self._patch(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="lane_change") as info:
            train_low_level_skills(_config(), 2)
        assert "ValueError: injected skill failure" in str(info.value)
        assert mp.active_children() == []

    def test_child_killed_by_signal(self, monkeypatch):
        self._patch(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match="lane_change") as info:
            train_low_level_skills(_config(), 2)
        assert f"code {-signal.SIGKILL}" in str(info.value)
        assert mp.active_children() == []

    def test_parent_failure_stops_the_child(self, monkeypatch):
        original = trainer.train_skill

        def patched(*args, **kwargs):
            if kwargs.get("log_prefix") == "lane_keeping":
                raise KeyError("parent side")
            return original(*args, **kwargs)

        monkeypatch.setattr(trainer, "train_skill", patched)
        with pytest.raises(KeyError, match="parent side"):
            train_low_level_skills(_config(), 50)
        assert mp.active_children() == []
