"""Concurrency stress locks for the ActorFanIn MPSC merge.

Thread producers feed per-ring SPSC queues under seeded randomized
schedules; the merge must preserve every ring's FIFO order, surface an
ActorError from any ring, poll ``abort`` on every multi-ring call, and
turn closed-and-drained rings into QueueClosed instead of hangs.
``REPRO_STRESS_ROUNDS`` repeats the randomized schedules with fresh
seeds.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.distributed import ActorFanIn, ActorError, QueueClosed, ShmRingQueue


def _make_rings(count, capacity=1 << 14):
    return [ShmRingQueue(capacity=capacity) for _ in range(count)]


def _release_all(rings):
    for ring in rings:
        ring.release()


def _producer(ring, frames, rng, close=False):
    for frame in frames:
        ring.put(frame, timeout=30.0)
        if rng.random() < 0.2:
            time.sleep(0.001)
    if close:
        ring.close()


def test_plain_merge_preserves_per_ring_fifo(stress_round):
    """First-available merge over randomly paced producers: all frames
    arrive, and each ring's stream stays in order."""
    rng = np.random.default_rng(10_000 + stress_round)
    counts = [int(rng.integers(5, 40)) for _ in range(3)]
    rings = _make_rings(3)
    try:
        fan_in = ActorFanIn(rings)
        threads = [
            threading.Thread(
                target=_producer,
                args=(
                    rings[k],
                    [(k, i) for i in range(counts[k])],
                    np.random.default_rng(11_000 + stress_round * 7 + k),
                ),
            )
            for k in range(3)
        ]
        for thread in threads:
            thread.start()
        received = [fan_in.get(timeout=30.0) for _ in range(sum(counts))]
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(received) == sum(counts)
        for k in range(3):
            stream = [i for ring, i in received if ring == k]
            assert stream == list(range(counts[k])), f"ring {k} reordered"
    finally:
        _release_all(rings)


def test_actor_error_behind_data_frames_still_surfaces():
    """Data frames queued ahead of the error frame on the same ring are
    served first (FIFO), then the error jumps out on the next get."""
    rings = _make_rings(2)
    try:
        fan_in = ActorFanIn(rings)
        rings[1].put(("data", 0))
        rings[1].put(ActorError(message="late boom", actor_id=1))
        assert fan_in.get(timeout=5.0) == ("data", 0)
        result = fan_in.get(timeout=5.0)
        assert isinstance(result, ActorError) and result.actor_id == 1
    finally:
        _release_all(rings)


def test_plain_mode_drains_pending_after_all_rings_close(stress_round):
    """Closing every ring after a burst: the merge serves every enqueued
    frame before raising QueueClosed."""
    rng = np.random.default_rng(30_000 + stress_round)
    rings = _make_rings(2)
    try:
        fan_in = ActorFanIn(rings)
        counts = [int(rng.integers(1, 10)) for _ in range(2)]
        for k in range(2):
            for i in range(counts[k]):
                rings[k].put((k, i))
            rings[k].close()
        received = [fan_in.get(timeout=5.0) for _ in range(sum(counts))]
        for k in range(2):
            assert [i for ring, i in received if ring == k] == list(range(counts[k]))
        with pytest.raises(QueueClosed, match="all actor queues"):
            fan_in.get(timeout=5.0)
    finally:
        _release_all(rings)


def test_merge_timeout_and_abort():
    rings = _make_rings(2)
    try:
        fan_in = ActorFanIn(rings)
        with pytest.raises(TimeoutError):
            fan_in.get(timeout=0.1)
        with pytest.raises(RuntimeError, match="actor died"):
            fan_in.get(abort=lambda: "actor died", timeout=5.0)
    finally:
        _release_all(rings)


def test_abort_is_polled_while_other_rings_keep_frames_coming():
    """A dead actor must not hide behind live ones: ``abort`` fires even
    when a ring holds a frame, unless a ring holds an ActorError (the
    dead actor's own report), which is served instead."""
    rings = _make_rings(2)
    try:
        fan_in = ActorFanIn(rings)
        rings[0].put(("data", 0))
        with pytest.raises(RuntimeError, match="actor 1 died"):
            fan_in.get(abort=lambda: "actor 1 died", timeout=5.0)
        rings[0].put(("data", 1))
        rings[1].put(("data", 2))
        rings[1].put(ActorError(message="reported", actor_id=1))
        result = fan_in.get(abort=lambda: "actor 1 died", timeout=5.0)
        assert isinstance(result, ActorError) and result.message == "reported"
    finally:
        _release_all(rings)


def test_single_ring_fast_path_matches_multi_ring_semantics():
    """The single-queue fast path (PR 6 topology) keeps the same close
    and error semantics as the scanning merge."""
    rings = _make_rings(1)
    try:
        fan_in = ActorFanIn(rings)
        rings[0].put("frame")
        assert fan_in.get(timeout=5.0) == "frame"
        rings[0].put(ActorError(message="solo boom", actor_id=0))
        result = fan_in.get(timeout=5.0)
        assert isinstance(result, ActorError)
        rings[0].close()
        with pytest.raises(QueueClosed):
            fan_in.get(timeout=5.0)
        # Once exhausted, later gets keep raising instead of blocking.
        with pytest.raises(QueueClosed):
            fan_in.get(timeout=5.0)
    finally:
        _release_all(rings)
