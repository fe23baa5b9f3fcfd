"""Tests for utilities (schedules, math, logging) and replay buffers."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.training.replay import (
    JointReplayBuffer,
    ObservationHistoryBuffer,
    OptionReplayBuffer,
    OptionTransition,
    ReplayBuffer,
)
from repro.utils import (
    LinearSchedule,
    MetricLogger,
    clamp,
    discounted_returns,
    format_table,
    moving_average,
    spawn_rngs,
)


class TestSchedules:
    def test_linear_endpoints(self):
        schedule = LinearSchedule(1.0, 0.1, 100)
        assert schedule(0) == pytest.approx(1.0)
        assert schedule(100) == pytest.approx(0.1)
        assert schedule(1000) == pytest.approx(0.1)
        assert schedule(50) == pytest.approx(0.55)

    def test_linear_invalid_duration(self):
        with pytest.raises(ValueError):
            LinearSchedule(1.0, 0.0, 0)


class TestMathUtils:
    def test_clamp(self):
        assert clamp(5.0, 0.0, 1.0) == 1.0
        assert clamp(-5.0, 0.0, 1.0) == 0.0
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_moving_average_constant(self):
        np.testing.assert_allclose(moving_average([2.0] * 5, 3), 2.0)

    def test_moving_average_head(self):
        out = moving_average([1.0, 2.0, 3.0, 4.0], 2)
        np.testing.assert_allclose(out, [1.0, 1.5, 2.5, 3.5])

    def test_moving_average_invalid_window(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)

    def test_moving_average_empty(self):
        assert moving_average([], 3).size == 0

    def test_discounted_returns(self):
        returns = discounted_returns([1.0, 1.0, 1.0], 0.5)
        np.testing.assert_allclose(returns, [1.75, 1.5, 1.0])


class TestSeeding:
    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(0, 3)
        draws = [rng.integers(0, 1_000_000) for rng in rngs]
        assert len(set(draws)) == 3

    def test_spawn_rngs_reproducible(self):
        a = [rng.integers(0, 100) for rng in spawn_rngs(7, 2)]
        b = [rng.integers(0, 100) for rng in spawn_rngs(7, 2)]
        assert a == b

    def test_spawn_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestMetricLogger:
    def test_log_and_read(self):
        logger = MetricLogger()
        logger.log("loss", 1.0, 0)
        logger.log("loss", 0.5, 1)
        np.testing.assert_array_equal(logger.values("loss"), [1.0, 0.5])
        np.testing.assert_array_equal(logger.steps("loss"), [0, 1])

    def test_latest_and_default(self):
        logger = MetricLogger()
        assert np.isnan(logger.latest("missing"))
        logger.log("x", 3.0, 0)
        assert logger.latest("x") == 3.0

    def test_window_mean(self):
        logger = MetricLogger()
        for i in range(10):
            logger.log("x", float(i), i)
        assert logger.window_mean("x", 2) == pytest.approx(8.5)

    def test_save_load_roundtrip(self, tmp_path):
        logger = MetricLogger()
        logger.log_many({"a": 1.0, "b": 2.0}, 0)
        path = tmp_path / "metrics.json"
        logger.save(path)
        loaded = MetricLogger.load(path)
        assert loaded.names() == ["a", "b"]
        assert loaded.latest("a") == 1.0

    def test_extend_appends_series_in_logging_order(self):
        logger = MetricLogger()
        logger.log("b", 1.0, 0)
        other = MetricLogger()
        other.log("c", 2.0, 3)
        other.log("b", 0.5, 7)
        other.log("c", 4.0, 4)
        logger.extend(other)
        assert list(logger.to_dict()) == ["b", "c"]
        assert logger.to_dict() == {"b": [(0, 1.0), (7, 0.5)], "c": [(3, 2.0), (4, 4.0)]}
        assert other.to_dict() == {"c": [(3, 2.0), (4, 4.0)], "b": [(7, 0.5)]}

    def test_format_table_alignment(self):
        table = format_table(["name", "val"], [["x", 1.0], ["longer", 2.5]])
        lines = table.split("\n")
        assert len(lines) == 4
        assert "longer" in lines[3]


class TestReplayBuffer:
    def test_push_and_sample(self):
        buffer = ReplayBuffer(10, obs_dim=3, action_dim=2)
        for i in range(5):
            buffer.push(np.full(3, i), np.zeros(2), float(i), np.full(3, i + 1), False)
        batch = buffer.sample(3, np.random.default_rng(0))
        assert batch["obs"].shape == (3, 3)
        assert len(buffer) == 5

    def test_ring_overwrite(self):
        buffer = ReplayBuffer(3, obs_dim=1, action_dim=1)
        for i in range(5):
            buffer.push([i], [0], 0.0, [0], False)
        assert len(buffer) == 3
        stored = set(buffer.obs[:, 0].tolist())
        assert stored == {2.0, 3.0, 4.0}

    def test_empty_sample_raises(self):
        buffer = ReplayBuffer(4, 1, 1)
        with pytest.raises(ValueError):
            buffer.sample(1, np.random.default_rng(0))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, 1, 1)

    def test_storage_is_float32_by_default(self):
        """A 100k-capacity buffer must not allocate float64 (2x memory)."""
        buffer = ReplayBuffer(10, obs_dim=3, action_dim=2)
        for name in ("obs", "actions", "rewards", "next_obs", "dones"):
            assert getattr(buffer, name).dtype == np.float32, name
        buffer.push(np.ones(3), np.zeros(2), 1.0, np.ones(3), False)
        batch = buffer.sample(1, np.random.default_rng(0))
        assert batch["obs"].dtype == np.float32

    def test_dtype_override(self):
        buffer = ReplayBuffer(4, 1, 1, dtype=np.float64)
        assert buffer.obs.dtype == np.float64

    @pytest.mark.parametrize("pushes", [0, 5, 8, 13])
    @pytest.mark.parametrize(
        "cls",
        [
            ReplayBuffer,
            OptionReplayBuffer,
            JointReplayBuffer,
            ObservationHistoryBuffer,
        ],
    )
    def test_pickle_round_trip_ships_written_rows_only(self, cls, pushes):
        """Empty, partly filled, full and wrapped rings round-trip bitwise
        and sample the same batch; a 100k ring pickles only its rows."""
        buffer = _filled(cls, 8, pushes)
        copy = pickle.loads(pickle.dumps(buffer))
        assert (copy._index, copy._size, copy.capacity) == (
            buffer._index, buffer._size, buffer.capacity
        )
        arrays = {k: v for k, v in vars(buffer).items() if isinstance(v, np.ndarray)}
        assert arrays.keys() == {
            k for k, v in vars(copy).items() if isinstance(v, np.ndarray)
        }
        for name, array in arrays.items():
            np.testing.assert_array_equal(getattr(copy, name), array, err_msg=name)
            assert getattr(copy, name).dtype == array.dtype, name
        if pushes:
            batch = buffer.sample(5, np.random.default_rng(1))
            copied = copy.sample(5, np.random.default_rng(1))
            assert batch.keys() == copied.keys()
            for key, value in batch.items():
                np.testing.assert_array_equal(copied[key], value, err_msg=key)
        assert len(pickle.dumps(_filled(cls, 100_000, 1))) < 10_000


def _filled(cls, capacity: int, pushes: int):
    """A ``cls`` ring of ``capacity`` rows after ``pushes`` random pushes."""
    rng = np.random.default_rng(pushes)
    if cls is ReplayBuffer:
        buffer = cls(capacity, obs_dim=3, action_dim=2)

        def push():
            buffer.push(
                rng.standard_normal(3), rng.standard_normal(2), rng.standard_normal(),
                rng.standard_normal(3), rng.uniform() < 0.5,
            )
    elif cls is OptionReplayBuffer:
        buffer = cls(capacity, obs_dim=3, num_opponents=2)

        def push():
            buffer.push(OptionTransition(
                rng.standard_normal(3), int(rng.integers(3)), rng.integers(3, size=2),
                rng.standard_normal(), rng.standard_normal(3), rng.uniform() < 0.5,
                int(rng.integers(1, 5)),
            ))
    elif cls is JointReplayBuffer:
        buffer = cls(capacity, num_agents=2, obs_dim=3)

        def push():
            buffer.push(
                rng.standard_normal((2, 3)), rng.integers(9, size=2),
                rng.standard_normal(2), rng.standard_normal((2, 3)), rng.uniform() < 0.5,
            )
    else:
        buffer = cls(capacity, obs_dim=3, num_opponents=2)

        def push():
            buffer.push(rng.standard_normal(3), rng.integers(3, size=2))
    for _ in range(pushes):
        push()
    return buffer


class TestOptionReplay:
    def _transition(self, steps=2):
        return OptionTransition(
            obs=np.zeros(4),
            option=1,
            other_options=np.array([0, 2]),
            reward=1.5,
            next_obs=np.ones(4),
            done=False,
            steps=steps,
        )

    def test_push_sample(self):
        buffer = OptionReplayBuffer(8, obs_dim=4, num_opponents=2)
        for _ in range(4):
            buffer.push(self._transition())
        batch = buffer.sample(2, np.random.default_rng(0))
        assert batch["other_options"].shape == (2, 2)
        assert np.all(batch["steps"] == 2)

    def test_empty_sample_raises(self):
        buffer = OptionReplayBuffer(4, 2, 1)
        with pytest.raises(ValueError):
            buffer.sample(1, np.random.default_rng(0))


class TestJointAndHistoryBuffers:
    def test_joint_replay_shapes(self):
        buffer = JointReplayBuffer(8, num_agents=3, obs_dim=4)
        buffer.push(np.zeros((3, 4)), np.zeros(3, dtype=int), np.zeros(3), np.zeros((3, 4)), False)
        batch = buffer.sample(1, np.random.default_rng(0))
        assert batch["obs"].shape == (1, 3, 4)
        assert batch["rewards"].shape == (1, 3)

    def test_history_buffer(self):
        buffer = ObservationHistoryBuffer(4, obs_dim=2, num_opponents=2)
        buffer.push(np.zeros(2), np.array([1, 3]))
        batch = buffer.sample(1, np.random.default_rng(0))
        np.testing.assert_array_equal(batch["options"][0], [1, 3])


@settings(max_examples=30, deadline=None)
@given(
    capacity=st.integers(1, 20),
    pushes=st.integers(0, 50),
)
def test_property_buffer_size_never_exceeds_capacity(capacity, pushes):
    buffer = ReplayBuffer(capacity, 1, 1)
    for i in range(pushes):
        buffer.push([i], [0], 0.0, [0], False)
    assert len(buffer) == min(capacity, pushes)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000), gamma=st.floats(0.0, 0.99))
def test_property_discounted_returns_recursion(seed, gamma):
    rng = np.random.default_rng(seed)
    rewards = rng.standard_normal(10)
    returns = discounted_returns(rewards, gamma)
    for t in range(9):
        assert returns[t] == pytest.approx(rewards[t] + gamma * returns[t + 1])
    assert returns[9] == pytest.approx(rewards[9])


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(1, 12),
    batches=st.lists(st.integers(0, 15), max_size=6),
)
def test_property_history_push_batch_equals_sequential_pushes(capacity, batches):
    """push_batch leaves the ring exactly as one push per row would, across
    wrap-around and batches longer than the capacity."""
    one = ObservationHistoryBuffer(capacity, obs_dim=2, num_opponents=2)
    batched = ObservationHistoryBuffer(capacity, obs_dim=2, num_opponents=2)
    rng = np.random.default_rng(capacity)
    for count in batches:
        obs = rng.standard_normal((count, 2))
        options = rng.integers(0, 4, (count, 2))
        for row, opts in zip(obs, options):
            one.push(row, opts)
        batched.push_batch(obs, options)
        assert len(one) == len(batched)
        assert one._index == batched._index
        np.testing.assert_array_equal(one.obs, batched.obs)
        np.testing.assert_array_equal(one.options, batched.options)


def test_opponent_model_record_batch_equals_records():
    from repro.core.opponent_model import OpponentModel

    models = [
        OpponentModel(3, 4, 2, np.random.default_rng(0), history_capacity=5)
        for _ in range(2)
    ]
    rng = np.random.default_rng(1)
    for _ in range(3):
        obs = rng.standard_normal((4, 3))
        options = rng.integers(0, 4, (4, 2))
        for row, opts in zip(obs, options):
            models[0].record(row, opts)
        models[1].record_batch(obs, options)
    np.testing.assert_array_equal(models[0].history.obs, models[1].history.obs)
    np.testing.assert_array_equal(models[0].history.options, models[1].history.options)
    with pytest.raises(ValueError):
        models[1].record_batch(np.zeros((2, 3)), np.zeros((2, 3), dtype=np.int64))
