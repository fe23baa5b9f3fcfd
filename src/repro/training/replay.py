"""Experience replay buffers.

* :class:`ReplayBuffer` — uniform ring buffer of flat transitions
  (low-level SAC, DQN).
* :class:`OptionReplayBuffer` — SMDP transitions for the high-level
  learner: ``(s_h, o_i, o_-i, accumulated r_h, s_h', done, c)`` where the
  reward is summed over the ``c`` steps the option ran (Sec. III-C).
* :class:`JointReplayBuffer` — joint multi-agent transitions for the
  CTDE baselines.
* :class:`ObservationHistoryBuffer` — the opponent models' rolling
  (state, other-agent options) history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.tensor import get_default_dtype


def _ring_append_slots(index: int, capacity: int, count: int) -> tuple[int, np.ndarray]:
    """Ring-buffer slots hit by appending ``count`` items at ``index``.

    Returns ``(drop, idx)``: sequential pushes of more items than
    ``capacity`` leave only the trailing window in the buffer, so the
    first ``drop`` items never land and the remaining ones go to the
    ``idx`` slots in order — exactly the state ``count`` one-at-a-time
    pushes would produce.
    """
    drop = max(count - capacity, 0)
    start = (index + drop) % capacity
    idx = (start + np.arange(min(count, capacity))) % capacity
    return drop, idx


def _ring_append_transitions(buffer, obs, actions, rewards, next_obs, dones, count):
    """Batched append of ``count`` transitions into a ring buffer exposing
    ``obs/actions/rewards/next_obs/dones`` arrays; equivalent to ``count``
    sequential ``push`` calls (shared by the flat and joint buffers)."""
    drop, idx = _ring_append_slots(buffer._index, buffer.capacity, count)
    buffer.obs[idx] = obs[drop:]
    buffer.actions[idx] = actions[drop:]
    buffer.rewards[idx] = rewards[drop:]
    buffer.next_obs[idx] = next_obs[drop:]
    # Cast to the buffer's own storage dtype: routing float bools through
    # float64 here would allocate a float64 temporary per append just to
    # round it back into the (float32 by default) ring.
    buffer.dones[idx] = np.asarray(dones[drop:], dtype=buffer.dones.dtype)
    buffer._index = (buffer._index + count) % buffer.capacity
    buffer._size = min(buffer._size + count, buffer.capacity)


class _RingBuffer:
    """What every ring buffer here shares: its length, and a pickle that
    carries only the rows written so far.

    A subclass names its per-row arrays in ``_ROW_ARRAYS`` and keeps
    ``capacity``, ``_index`` and ``_size``.  Rows at and past ``_size``
    are the zeros of construction (the ring wraps only once full), and an
    untouched 100k-row tail is megabytes of them, so a trained controller
    crossing a process boundary would otherwise ship mostly zeros.
    """

    _ROW_ARRAYS: tuple[str, ...] = ()

    def __len__(self) -> int:
        return self._size

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._ROW_ARRAYS:
            state[name] = state[name][: self._size]
        return state

    def __setstate__(self, state: dict) -> None:
        for name in self._ROW_ARRAYS:
            rows = state[name]
            full = np.zeros((state["capacity"],) + rows.shape[1:], dtype=rows.dtype)
            full[: len(rows)] = rows
            state[name] = full
        self.__dict__.update(state)


class ReplayBuffer(_RingBuffer):
    """Uniform ring buffer over (obs, action, reward, next_obs, done).

    Storage is ``float32`` by default regardless of the compute dtype: a
    100k-capacity buffer of float64 observations is pure waste — float32
    halves the footprint, and samples are cast once at the learner
    boundary into whatever dtype the networks compute in (see
    docs/ARCHITECTURE.md, "Precision").
    """

    _ROW_ARRAYS = ("obs", "actions", "rewards", "next_obs", "dones")

    def __init__(
        self,
        capacity: int,
        obs_dim: int,
        action_dim: int,
        dtype: np.dtype = np.float32,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.dtype = np.dtype(dtype)
        self.obs = np.zeros((capacity, obs_dim), dtype=self.dtype)
        self.actions = np.zeros((capacity, action_dim), dtype=self.dtype)
        self.rewards = np.zeros(capacity, dtype=self.dtype)
        self.next_obs = np.zeros((capacity, obs_dim), dtype=self.dtype)
        self.dones = np.zeros(capacity, dtype=self.dtype)
        self._index = 0
        self._size = 0

    def push(self, obs, action, reward, next_obs, done) -> None:
        i = self._index
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = float(done)
        self._index = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def push_batch(self, obs, actions, rewards, next_obs, dones) -> None:
        """Append a batch of transitions (row ``i`` of every argument is one
        transition); equivalent to sequential :meth:`push` calls."""
        _ring_append_transitions(
            self, obs, actions, rewards, next_obs, dones, len(rewards)
        )

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=min(batch_size, self._size))
        # np.take hits a contiguous-gather fast path that plain fancy
        # indexing misses (~3x on the 2-D arrays); the result is the same
        # pure gather, bit for bit.
        return {
            "obs": np.take(self.obs, idx, axis=0),
            "actions": np.take(self.actions, idx, axis=0),
            "rewards": np.take(self.rewards, idx, axis=0),
            "next_obs": np.take(self.next_obs, idx, axis=0),
            "dones": np.take(self.dones, idx, axis=0),
        }


@dataclass
class OptionTransition:
    """One SMDP step of the high-level layer."""

    obs: np.ndarray          # s_h at option start
    option: int              # o_i
    other_options: np.ndarray  # o_-i (ints, one per opponent)
    reward: float            # accumulated r_h over the option's c steps
    next_obs: np.ndarray     # s_h at option end
    done: bool
    steps: int               # c, for the gamma^c discount


class OptionReplayBuffer(_RingBuffer):
    """Ring buffer of :class:`OptionTransition`."""

    _ROW_ARRAYS = (
        "obs", "options", "other_options", "rewards", "next_obs", "dones", "steps"
    )

    def __init__(self, capacity: int, obs_dim: int, num_opponents: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        # Float storage follows the compute dtype at construction time:
        # float64 by default (bitwise-identical to the original), float32
        # when the stack runs at --dtype float32 (half the footprint, no
        # per-sample cast at the learner boundary).
        dtype = get_default_dtype()
        self.obs = np.zeros((capacity, obs_dim), dtype=dtype)
        self.options = np.zeros(capacity, dtype=np.int64)
        self.other_options = np.zeros((capacity, num_opponents), dtype=np.int64)
        self.rewards = np.zeros(capacity, dtype=dtype)
        self.next_obs = np.zeros((capacity, obs_dim), dtype=dtype)
        self.dones = np.zeros(capacity, dtype=dtype)
        self.steps = np.zeros(capacity, dtype=np.int64)
        self._index = 0
        self._size = 0

    def push(self, transition: OptionTransition) -> None:
        i = self._index
        self.obs[i] = transition.obs
        self.options[i] = transition.option
        self.other_options[i] = transition.other_options
        self.rewards[i] = transition.reward
        self.next_obs[i] = transition.next_obs
        self.dones[i] = float(transition.done)
        self.steps[i] = transition.steps
        self._index = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=min(batch_size, self._size))
        # Same np.take fast path as ReplayBuffer.sample (bitwise-identical
        # gather, ~3x on the 2-D arrays).
        return {
            "obs": np.take(self.obs, idx, axis=0),
            "options": np.take(self.options, idx, axis=0),
            "other_options": np.take(self.other_options, idx, axis=0),
            "rewards": np.take(self.rewards, idx, axis=0),
            "next_obs": np.take(self.next_obs, idx, axis=0),
            "dones": np.take(self.dones, idx, axis=0),
            "steps": np.take(self.steps, idx, axis=0),
        }


class JointReplayBuffer(_RingBuffer):
    """Replay of joint multi-agent transitions (CTDE baselines).

    Stores all agents' observations and integer actions per step plus the
    per-agent reward vector and a shared done flag.
    """

    _ROW_ARRAYS = ReplayBuffer._ROW_ARRAYS

    def __init__(self, capacity: int, num_agents: int, obs_dim: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        # Same storage-follows-compute-dtype rule as OptionReplayBuffer.
        dtype = get_default_dtype()
        self.obs = np.zeros((capacity, num_agents, obs_dim), dtype=dtype)
        self.actions = np.zeros((capacity, num_agents), dtype=np.int64)
        self.rewards = np.zeros((capacity, num_agents), dtype=dtype)
        self.next_obs = np.zeros((capacity, num_agents, obs_dim), dtype=dtype)
        self.dones = np.zeros(capacity, dtype=dtype)
        self._index = 0
        self._size = 0

    def push(self, obs, actions, rewards, next_obs, done) -> None:
        i = self._index
        self.obs[i] = obs
        self.actions[i] = actions
        self.rewards[i] = rewards
        self.next_obs[i] = next_obs
        self.dones[i] = float(done)
        self._index = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def push_batch(self, obs, actions, rewards, next_obs, dones) -> None:
        """Append a batch of joint transitions (row ``i`` of every argument
        is one step); equivalent to sequential :meth:`push` calls."""
        _ring_append_transitions(
            self, obs, actions, rewards, next_obs, dones, len(dones)
        )

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=min(batch_size, self._size))
        return {
            "obs": np.take(self.obs, idx, axis=0),
            "actions": np.take(self.actions, idx, axis=0),
            "rewards": np.take(self.rewards, idx, axis=0),
            "next_obs": np.take(self.next_obs, idx, axis=0),
            "dones": np.take(self.dones, idx, axis=0),
        }


class ObservationHistoryBuffer(_RingBuffer):
    """Rolling history of (state, other-agent options) observations.

    This is the opponent-model dataset D_h^-i of Algorithm 1 line 23: the
    agent only ever sees *past* states and the options other agents were
    executing — never their policies.
    """

    _ROW_ARRAYS = ("obs", "options")

    def __init__(self, capacity: int, obs_dim: int, num_opponents: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim), dtype=get_default_dtype())
        self.options = np.zeros((capacity, num_opponents), dtype=np.int64)
        self._index = 0
        self._size = 0

    def push(self, obs: np.ndarray, other_options: np.ndarray) -> None:
        i = self._index
        self.obs[i] = obs
        self.options[i] = other_options
        self._index = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def push_batch(self, obs: np.ndarray, other_options: np.ndarray) -> None:
        """Append rows in order; equivalent to one :meth:`push` per row."""
        count = len(obs)
        i = self._index
        if i + count <= self.capacity:
            self.obs[i : i + count] = obs
            self.options[i : i + count] = other_options
        else:
            drop, idx = _ring_append_slots(i, self.capacity, count)
            self.obs[idx] = obs[drop:]
            self.options[idx] = other_options[drop:]
        self._index = (i + count) % self.capacity
        self._size = min(self._size + count, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=min(batch_size, self._size))
        return {
            "obs": np.take(self.obs, idx, axis=0),
            "options": np.take(self.options, idx, axis=0),
        }
