"""Tests for the observation bus and the async-stack primitives
(shared-memory parameter server, transition queue, RNG codec)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    DistributedObservationService,
    ParameterServer,
    QueueClosed,
    RolloutPayload,
    ShmRingQueue,
    decode_rng_state,
    encode_rng_state,
    load_rng_state,
)


def exchange_all(service, options, rounds=1):
    for _ in range(rounds):
        service.exchange(np.array(options))


class TestObservationService:
    """The stacked bus: each receiver's last-known option per sender."""

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DistributedObservationService(["a", "b"], latency_steps=-1)
        with pytest.raises(ValueError):
            DistributedObservationService(["a", "b"], drop_probability=1.0)

    def test_unexchanged_batch_reads_keep_lane(self):
        service = DistributedObservationService(["a", "b", "c"])
        np.testing.assert_array_equal(service.observed_options(2), np.zeros((2, 3, 2)))
        assert service.stats() == {"sent": 0, "dropped": 0, "delivered": 0, "in_flight": 0}

    @pytest.mark.parametrize("latency", [0, 1])
    def test_zero_latency_delivers_within_the_exchange(self, latency):
        service = DistributedObservationService(["a", "b"], latency_steps=latency)
        service.exchange(np.array([[2, 3]]))
        # Receiver a hears b's 3, receiver b hears a's 2.
        np.testing.assert_array_equal(service.observed_options(1), [[[3], [2]]])

    def test_latency_delays_delivery(self):
        """Latency L delivers L - 1 exchanges after the send."""
        service = DistributedObservationService(["a", "b"], latency_steps=3)
        heard = []
        for option in (1, 2, 3, 4, 5):
            service.exchange(np.array([[0, option]]))
            heard.append(int(service.observed_options(1)[0, 0, 0]))
        assert heard == [0, 0, 1, 2, 3]
        assert service.stats()["in_flight"] == 4  # two rounds of two messages

    def test_broadcast_excludes_sender(self):
        service = DistributedObservationService(["a", "b", "c"], latency_steps=0)
        service.exchange(np.array([[1, 2, 3]]))
        # Each receiver hears its two peers in agent order, never itself.
        np.testing.assert_array_equal(
            service.observed_options(1)[0], [[2, 3], [1, 3], [1, 2]]
        )
        assert service.stats()["sent"] == 6

    def test_drop_probability_loses_messages(self):
        service = DistributedObservationService(
            ["a", "b"], latency_steps=0, drop_probability=0.5, seed=0
        )
        exchange_all(service, [[1, 2]], rounds=100)
        stats = service.stats()
        assert stats["sent"] == 200
        assert 60 < stats["delivered"] < 140  # ~100 expected
        assert stats["dropped"] == 200 - stats["delivered"]

    def test_dropped_message_keeps_last_known(self):
        """One uniform per message — env, then sender, then recipients in
        agent order — and a draw below the drop probability loses it."""
        seed, drop = 5, 0.5
        draws = np.random.default_rng(seed).uniform(size=(2, 2, 1, 1))
        service = DistributedObservationService(
            ["a", "b"], latency_steps=0, drop_probability=drop, seed=seed
        )
        expected_b_hears_a = 0
        for round_index, option in enumerate((2, 3)):
            service.exchange(np.array([[option, 1]]))
            # Sender a's message to b is the first draw of the round.
            if draws[round_index, 0, 0, 0] >= drop:
                expected_b_hears_a = option
            assert service.observed_options(1)[0, 1, 0] == expected_b_hears_a
        kept = int((draws >= drop).sum())
        assert service.stats()["delivered"] == kept

    def test_envs_are_independent(self):
        service = DistributedObservationService(["a", "b"], latency_steps=2)
        service.exchange(np.array([[1, 2], [3, 0]]))
        np.testing.assert_array_equal(service.observed_options(2), np.zeros((2, 2, 1)))
        service.exchange(np.array([[0, 0], [0, 0]]))
        np.testing.assert_array_equal(
            service.observed_options(2), [[[2], [1]], [[0], [3]]]
        )

    def test_batch_of_another_size_starts_fresh(self):
        service = DistributedObservationService(["a", "b"], latency_steps=0)
        service.exchange(np.array([[1, 2]]))
        np.testing.assert_array_equal(service.observed_options(3), np.zeros((3, 2, 1)))
        service.exchange(np.array([[1, 2], [3, 1], [2, 2]]))
        np.testing.assert_array_equal(service.observed_options(3)[:, 0, 0], [2, 1, 2])

    def test_exchange_updates_last_known(self):
        service = DistributedObservationService(["a", "b", "c"], latency_steps=0)
        service.exchange(np.array([[1, 3, 2]]))
        np.testing.assert_array_equal(service.observed_options(1)[0, 0], [3, 2])
        np.testing.assert_array_equal(service.observed_options(1)[0, 1], [1, 2])

    def test_latency_shows_stale_options(self):
        service = DistributedObservationService(["a", "b"], latency_steps=2)
        service.exchange(np.array([[1, 2]]))
        # Not yet delivered: defaults (0) still visible.
        np.testing.assert_array_equal(service.observed_options(1)[0, 0], [0])
        service.exchange(np.array([[1, 3]]))
        # The first announcement (option 2) has arrived — stale by design.
        np.testing.assert_array_equal(service.observed_options(1)[0, 0], [2])

    def test_lossy_bus_keeps_last_known(self):
        service = DistributedObservationService(
            ["a", "b"], latency_steps=0, drop_probability=0.9, seed=3
        )
        exchange_all(service, [[1, 2]], rounds=50)
        # Even at 90% loss, some message got through eventually.
        assert service.observed_options(1)[0, 0, 0] == 2


class TestRngCodec:
    def test_roundtrip_preserves_stream(self):
        gen = np.random.default_rng(42)
        gen.uniform(size=17)  # advance off the seed state
        words = encode_rng_state(gen)
        expected = gen.uniform(size=5)  # consumes the encoded state

        fresh = np.random.default_rng(0)
        load_rng_state(fresh, words)
        np.testing.assert_array_equal(fresh.uniform(size=5), expected)

    def test_decode_matches_bit_generator_state(self):
        gen = np.random.default_rng(7)
        state = decode_rng_state(encode_rng_state(gen))
        assert state == gen.bit_generator.state

    def test_load_is_in_place(self):
        # Components share Generator objects (agent + opponent model), so
        # restoring state must not swap the Generator out from under them.
        gen = np.random.default_rng(1)
        alias = gen
        load_rng_state(gen, encode_rng_state(np.random.default_rng(2)))
        assert alias is gen
        np.testing.assert_array_equal(
            alias.uniform(size=3), np.random.default_rng(2).uniform(size=3)
        )

    def test_wrong_word_count_rejected(self):
        with pytest.raises(ValueError):
            decode_rng_state(np.zeros(4, dtype=np.uint64))


class TestParameterServer:
    def test_publish_read_roundtrip(self):
        server = ParameterServer({"actor": 5, "critic": 3})
        try:
            assert server.version == -1
            vectors = {"actor": np.arange(5.0), "critic": np.ones(3)}
            assert server.publish(vectors) == 0
            version, read, _ = server.read()
            assert version == 0
            np.testing.assert_array_equal(read["actor"], np.arange(5.0))
            np.testing.assert_array_equal(read["critic"], np.ones(3))
        finally:
            server.release()

    def test_versions_increment_and_buffers_alternate(self):
        server = ParameterServer({"w": 2})
        try:
            for expected in range(4):
                assert server.publish({"w": np.full(2, float(expected))}) == expected
                version, read, _ = server.read(min_version=expected)
                assert version == expected
                np.testing.assert_array_equal(read["w"], np.full(2, float(expected)))
        finally:
            server.release()

    def test_read_returns_copies(self):
        server = ParameterServer({"w": 2})
        try:
            server.publish({"w": np.zeros(2)})
            _, read, _ = server.read()
            read["w"][:] = 99.0
            _, again, _ = server.read()
            np.testing.assert_array_equal(again["w"], np.zeros(2))
        finally:
            server.release()

    def test_read_times_out_without_version(self):
        server = ParameterServer({"w": 1})
        try:
            server.publish({"w": np.zeros(1)})
            with pytest.raises(TimeoutError):
                server.read(min_version=5, timeout=0.1)
        finally:
            server.release()

    def test_stop_interrupts_waiting_reader(self):
        server = ParameterServer({"w": 1})
        try:
            server.request_stop()
            with pytest.raises(RuntimeError, match="stopped"):
                server.read(min_version=0, timeout=5.0)
        finally:
            server.release()

    def test_rng_sidecar_roundtrip(self):
        server = ParameterServer({"w": 1}, num_rngs=2)
        try:
            words = np.stack(
                [
                    encode_rng_state(np.random.default_rng(3)),
                    encode_rng_state(np.random.default_rng(4)),
                ]
            )
            server.publish({"w": np.zeros(1)}, words)
            _, _, read_words = server.read()
            np.testing.assert_array_equal(read_words, words)
        finally:
            server.release()

    def test_missing_rng_sidecar_rejected(self):
        server = ParameterServer({"w": 1}, num_rngs=1)
        try:
            with pytest.raises(ValueError, match="RNG state"):
                server.publish({"w": np.zeros(1)})
        finally:
            server.release()

    def test_wrong_slot_keys_rejected(self):
        server = ParameterServer({"w": 1})
        try:
            with pytest.raises(ValueError):
                server.publish({"v": np.zeros(1)})
        finally:
            server.release()

    def test_wrong_slot_size_rejected(self):
        server = ParameterServer({"w": 2})
        try:
            with pytest.raises(ValueError):
                server.publish({"w": np.zeros(3)})
        finally:
            server.release()

    def test_pickled_handle_sees_publishes(self):
        import pickle

        server = ParameterServer({"w": 2})
        reader = None
        try:
            reader = pickle.loads(pickle.dumps(server))
            server.publish({"w": np.array([5.0, 6.0])})
            version, read, _ = reader.read()
            assert version == 0
            np.testing.assert_array_equal(read["w"], [5.0, 6.0])
        finally:
            if reader is not None:
                reader.release()
            server.release()


class TestShmRingQueue:
    def test_fifo_roundtrip(self):
        queue = ShmRingQueue(capacity=1 << 16)
        try:
            for i in range(5):
                queue.put({"index": i, "data": np.arange(i)})
            for i in range(5):
                frame = queue.get(timeout=1.0)
                assert frame["index"] == i
                np.testing.assert_array_equal(frame["data"], np.arange(i))
        finally:
            queue.release()

    def test_wraparound(self):
        # Capacity fits ~2 frames, so repeated put/get must wrap the ring.
        queue = ShmRingQueue(capacity=4096)
        try:
            payload = np.arange(128)
            for i in range(20):
                queue.put((i, payload))
                index, data = queue.get(timeout=1.0)
                assert index == i
                np.testing.assert_array_equal(data, payload)
            assert queue.qsize_bytes() == 0
        finally:
            queue.release()

    def test_oversized_frame_rejected(self):
        queue = ShmRingQueue(capacity=256)
        try:
            with pytest.raises(ValueError, match="exceeds queue capacity"):
                queue.put(np.zeros(10_000))
        finally:
            queue.release()

    def test_put_times_out_when_full(self):
        queue = ShmRingQueue(capacity=256)
        try:
            queue.put(b"x" * 150)
            with pytest.raises(TimeoutError):
                queue.put(b"y" * 150, timeout=0.2)
        finally:
            queue.release()

    def test_get_times_out_when_empty(self):
        queue = ShmRingQueue(capacity=256)
        try:
            with pytest.raises(TimeoutError):
                queue.get(timeout=0.2)
        finally:
            queue.release()

    def test_close_drains_then_raises(self):
        queue = ShmRingQueue(capacity=1 << 12)
        try:
            queue.put("last-frame")
            queue.close()
            with pytest.raises(QueueClosed):
                queue.put("rejected")
            assert queue.get(timeout=1.0) == "last-frame"
            with pytest.raises(QueueClosed):
                queue.get(timeout=1.0)
        finally:
            queue.release()

    def test_abort_callback_raises(self):
        queue = ShmRingQueue(capacity=256)
        try:
            with pytest.raises(RuntimeError, match="peer died"):
                queue.get(timeout=5.0, abort=lambda: "peer died")
        finally:
            queue.release()

    def test_payload_dataclass_roundtrip(self):
        queue = ShmRingQueue(capacity=1 << 12)
        try:
            sent = RolloutPayload(
                round_index=3,
                version_used=2,
                data={"stats": [1, 2]},
                rng_states=[encode_rng_state(np.random.default_rng(0))],
            )
            queue.put(sent)
            got = queue.get(timeout=1.0)
            assert got.round_index == 3
            assert got.version_used == 2
            assert got.data == {"stats": [1, 2]}
            np.testing.assert_array_equal(got.rng_states[0], sent.rng_states[0])
        finally:
            queue.release()


@settings(max_examples=25, deadline=None)
@given(
    latency=st.integers(0, 5),
    rounds=st.integers(1, 20),
    num_envs=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_property_lossless_bus_conserves_messages(latency, rounds, num_envs, seed):
    """Without loss every message arrives max(latency - 1, 0) exchanges
    after it was sent, and the table then shows it."""
    service = DistributedObservationService(
        ["a", "b", "c"], latency_steps=latency, drop_probability=0.0, seed=seed
    )
    rng = np.random.default_rng(seed)
    sent = [rng.integers(0, 4, size=(num_envs, 3)) for _ in range(rounds)]
    delay = max(latency - 1, 0)
    for index, options in enumerate(sent):
        service.exchange(options)
        if index >= delay:
            due = sent[index - delay]
            np.testing.assert_array_equal(
                service.observed_options(num_envs)[:, 0], due[:, 1:]
            )
    stats = service.stats()
    assert stats["sent"] == rounds * num_envs * 6
    assert stats["delivered"] + stats["in_flight"] == stats["sent"]
    assert stats["in_flight"] == min(delay, rounds) * num_envs * 6


@settings(max_examples=25, deadline=None)
@given(drop=st.floats(0.0, 0.9), latency=st.integers(0, 4), seed=st.integers(0, 1000))
def test_property_stats_balance(drop, latency, seed):
    service = DistributedObservationService(
        ["a", "b"], latency_steps=latency, drop_probability=drop, seed=seed
    )
    for _ in range(25):
        service.exchange(np.array([[1, 2], [3, 0]]))
    stats = service.stats()
    assert stats["sent"] == stats["dropped"] + stats["delivered"] + stats["in_flight"]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), draws=st.integers(0, 40))
def test_property_rng_codec_roundtrip(seed, draws):
    gen = np.random.default_rng(seed)
    gen.uniform(size=draws)
    words = encode_rng_state(gen)
    clone = np.random.default_rng(0)
    load_rng_state(clone, words)
    np.testing.assert_array_equal(
        clone.integers(0, 1 << 30, size=8), gen.integers(0, 1 << 30, size=8)
    )
