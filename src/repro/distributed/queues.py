"""Shared-memory transition queues for the async actor–learner stack.

:class:`ShmRingQueue` is a bounded single-producer / single-consumer byte
ring over one ``multiprocessing.shared_memory`` block.  Payloads are
pickled into length-prefixed frames, so arbitrary rollout payloads
(transition batches, stats, RNG states, error reports) cross the process
boundary without a pipe.  Arrays keep their dtype inside the pickled
frame, so a float32 run ships half the transition bytes of a float64 run
with no queue-level changes; the bounded capacity is the stack's
backpressure mechanism — when the learner falls behind, :meth:`ShmRingQueue.put`
blocks until the consumer drains a frame, which throttles the actor
instead of letting the queue grow without bound.

:class:`ActorFanIn` merges N per-actor SPSC rings into the learner's
single consumption stream (MPSC at the merge, SPSC on every ring — no
ring ever has two writers, so the rings stay lock-cheap): first-available
round-robin starting one past the previously served actor, so a fast
producer cannot starve the others.

Liveness: both ends poll in short slices and run an optional ``abort``
callback between slices, so a dead peer (crashed actor, killed learner)
surfaces as a :class:`RuntimeError` naming the failure instead of a hang.
The multi-ring merge also polls ``abort`` on every call, so live actors
cannot keep the learner fed past a dead one.
Ownership: only the process that created a queue unlinks its segment,
exactly once.  Every other copy only closes its mapping: the pickled
handle a ``spawn`` or ``forkserver`` child receives, and the object a
forked child inherits (which otherwise looks exactly like the
creator's).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
from multiprocessing import shared_memory

import numpy as np

from .protocol import ActorError, _attach_shm

__all__ = ["ActorFanIn", "QueueClosed", "ShmRingQueue"]

# Header: monotonically increasing byte counters (positions are taken
# modulo the data capacity) plus the closed flag.
_HEAD, _TAIL, _CLOSED = 0, 1, 2
_HEADER_SLOTS = 3
_HEADER_BYTES = _HEADER_SLOTS * 8
_LEN_BYTES = 8

# Poll slice for condition waits: short enough that peer death is noticed
# promptly, long enough that an idle queue costs nothing.
_WAIT_SLICE = 0.2


class QueueClosed(Exception):
    """The queue was closed by the peer; no further frames will flow."""


class ShmRingQueue:
    """Bounded SPSC byte-ring queue of pickled frames in shared memory.

    ``capacity`` bounds the payload region in bytes; one frame costs its
    pickle size plus an 8-byte length prefix.  A frame larger than the
    whole ring is rejected outright (it could never fit), which keeps the
    blocking :meth:`put` free of deadlocks-by-construction.
    """

    def __init__(self, capacity: int = 8 << 20, context=None):
        if capacity <= _LEN_BYTES:
            raise ValueError(f"capacity must exceed {_LEN_BYTES} bytes, got {capacity}")
        ctx = context or mp.get_context()
        self.capacity = int(capacity)
        self._shm = shared_memory.SharedMemory(
            create=True, size=_HEADER_BYTES + self.capacity
        )
        self._creator = os.getpid()
        self._closed_local = False
        self._name = self._shm.name
        self._lock = ctx.Lock()
        self._not_full = ctx.Condition(self._lock)
        self._not_empty = ctx.Condition(self._lock)
        self._bind_views()
        self._header[:] = 0

    # ------------------------------------------------------------------
    # Attachment / pickling (a spawn or forkserver child gets a pickled handle)
    # ------------------------------------------------------------------
    def _bind_views(self) -> None:
        self._header = np.ndarray(_HEADER_SLOTS, dtype=np.int64, buffer=self._shm.buf)
        self._data = np.ndarray(
            self.capacity, dtype=np.uint8, buffer=self._shm.buf, offset=_HEADER_BYTES
        )

    def __getstate__(self):
        return {
            "capacity": self.capacity,
            "name": self._name,
            "lock": self._lock,
            "not_full": self._not_full,
            "not_empty": self._not_empty,
        }

    def __setstate__(self, state):
        self.capacity = state["capacity"]
        self._name = state["name"]
        self._lock = state["lock"]
        self._not_full = state["not_full"]
        self._not_empty = state["not_empty"]
        self._creator = None  # an attached copy never unlinks
        self._closed_local = False
        self._shm = _attach_shm(self._name)
        self._bind_views()

    # ------------------------------------------------------------------
    # Ring primitives (caller holds the lock)
    # ------------------------------------------------------------------
    def _used(self) -> int:
        return int(self._header[_TAIL] - self._header[_HEAD])

    def _write_bytes(self, data: bytes) -> None:
        pos = int(self._header[_TAIL]) % self.capacity
        first = min(len(data), self.capacity - pos)
        self._data[pos : pos + first] = np.frombuffer(data[:first], dtype=np.uint8)
        if first < len(data):
            rest = data[first:]
            self._data[: len(rest)] = np.frombuffer(rest, dtype=np.uint8)
        self._header[_TAIL] += len(data)

    def _read_bytes(self, count: int) -> bytes:
        pos = int(self._header[_HEAD]) % self.capacity
        first = min(count, self.capacity - pos)
        out = bytes(self._data[pos : pos + first])
        if first < count:
            out += bytes(self._data[: count - first])
        self._header[_HEAD] += count
        return out

    @staticmethod
    def _check_abort(abort) -> None:
        if abort is None:
            return
        message = abort()
        if message:
            raise RuntimeError(message)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def put(self, payload, timeout: float | None = None, abort=None) -> None:
        """Pickle ``payload`` and append it; blocks while the ring is full.

        ``abort`` (optional callable) is polled between wait slices and
        should return an error message when the peer is gone — raised as a
        :class:`RuntimeError`.  Raises :class:`QueueClosed` once the queue
        is closed and :class:`TimeoutError` past ``timeout`` seconds.
        """
        frame = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        needed = _LEN_BYTES + len(frame)
        if needed > self.capacity:
            raise ValueError(
                f"frame of {needed} bytes exceeds queue capacity {self.capacity}"
            )
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_full:
            while True:
                if self._header[_CLOSED]:
                    raise QueueClosed("queue is closed")
                if self.capacity - self._used() >= needed:
                    self._write_bytes(
                        int(len(frame)).to_bytes(_LEN_BYTES, "little") + frame
                    )
                    self._not_empty.notify()
                    return
                self._check_abort(abort)
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"queue full for {timeout:.1f}s (consumer not draining)"
                    )
                self._not_full.wait(_WAIT_SLICE)

    def get(self, timeout: float | None = None, abort=None):
        """Pop and unpickle the oldest frame; blocks while the ring is empty.

        Raises :class:`QueueClosed` when the queue is closed *and* drained
        (frames already enqueued before the close are still delivered),
        :class:`RuntimeError` via ``abort`` and :class:`TimeoutError` past
        ``timeout`` seconds.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while True:
                if self._used() >= _LEN_BYTES:
                    length = int.from_bytes(self._read_bytes(_LEN_BYTES), "little")
                    frame = self._read_bytes(length)
                    self._not_full.notify()
                    break
                if self._header[_CLOSED]:
                    raise QueueClosed("queue is closed and drained")
                self._check_abort(abort)
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"queue empty for {timeout:.1f}s (producer not producing)"
                    )
                self._not_empty.wait(_WAIT_SLICE)
        return pickle.loads(frame)

    def poll(self):
        """Non-blocking :meth:`get`: ``(True, payload)`` when a frame was
        popped, ``(False, None)`` when the ring is currently empty.

        Raises :class:`QueueClosed` once the queue is closed *and*
        drained, exactly like :meth:`get` — frames enqueued before the
        close are still delivered.
        """
        with self._not_empty:
            if self._used() >= _LEN_BYTES:
                length = int.from_bytes(self._read_bytes(_LEN_BYTES), "little")
                frame = self._read_bytes(length)
                self._not_full.notify()
            elif self._header[_CLOSED]:
                raise QueueClosed("queue is closed and drained")
            else:
                return False, None
        return True, pickle.loads(frame)

    def qsize_bytes(self) -> int:
        """Bytes currently enqueued (frames plus their length prefixes)."""
        with self._lock:
            return self._used()

    def close(self) -> None:
        """Mark the queue closed and wake both ends; idempotent.

        A closed queue rejects new :meth:`put` calls; :meth:`get` drains
        what remains, then raises :class:`QueueClosed`.
        """
        if self._closed_local:
            return
        with self._lock:
            self._header[_CLOSED] = 1
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def release(self) -> None:
        """Close this process's mapping, and unlink the segment in the
        process that created it; idempotent."""
        if self._closed_local:
            return
        self._closed_local = True
        self._header = None
        self._data = None
        self._shm.close()
        if self._creator == os.getpid():
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __del__(self):
        try:
            self.release()
        except Exception:
            pass


# Fan-in poll backoff: start near-spin so a merge round trip adds
# microseconds, back off exponentially so an idle merge costs no CPU.
_FANIN_MIN_SLICE = 1e-4
_FANIN_MAX_SLICE = 0.02


class ActorFanIn:
    """MPSC merge over per-actor SPSC rings (consumer side only).

    The learner owns one :class:`ShmRingQueue` per actor and drains them
    through :meth:`get`: first-available round-robin, each scan starting
    one past the previously served ring, so a producer that is always
    ready cannot starve the others.  Every ring's FIFO order is kept.
    Once every ring is closed and drained, raises :class:`QueueClosed`.
    """

    def __init__(self, queues):
        if not queues:
            raise ValueError("ActorFanIn needs at least one queue")
        self._queues = list(queues)
        self._exhausted = [False] * len(self._queues)
        self._next = 0

    def _poll_one(self, index: int):
        if self._exhausted[index]:
            return False, None
        try:
            return self._queues[index].poll()
        except QueueClosed:
            self._exhausted[index] = True
            return False, None

    def get(self, timeout: float | None = None, abort=None):
        """Pop the next merged frame; see the class docstring for order.

        Raises :class:`QueueClosed` when no further frame can arrive,
        :class:`RuntimeError` via ``abort`` and :class:`TimeoutError` past
        ``timeout`` seconds.  With one ring ``abort`` is polled between
        wait slices; with several it is also polled on every call, since
        the others may keep frames coming after one actor died.  Once it
        fires, data frames are dropped and only an
        :class:`~repro.distributed.protocol.ActorError` still queued on
        some ring is returned instead of the raise.
        """
        count = len(self._queues)
        if count == 1 and not self._exhausted[0]:
            # Single-actor fast path: block on the ring's condition
            # variable instead of poll-spinning.
            try:
                return self._queues[0].get(timeout=timeout, abort=abort)
            except QueueClosed:
                self._exhausted[0] = True
                raise
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = _FANIN_MIN_SLICE
        while True:
            message = abort() if abort is not None else None
            for offset in range(count):
                index = (self._next + offset) % count
                ok, item = self._poll_one(index)
                # An actor that reported and then exited must surface its
                # own traceback, not the bare death notice.
                while ok and message and not isinstance(item, ActorError):
                    ok, item = self._poll_one(index)
                if ok:
                    self._next = (index + 1) % count
                    return item
            if message:
                raise RuntimeError(message)
            if all(self._exhausted):
                raise QueueClosed("all actor queues are closed and drained")
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"no actor produced a frame for {timeout:.1f}s"
                )
            time.sleep(delay)
            delay = min(delay * 2.0, _FANIN_MAX_SLICE)
