"""Load on the policy server: a recorded rollout replayed open and closed loop.

The recording is a greedy rollout of a loaded HERO checkpoint on a
32-env ``VectorEnv``, acted by a ``BatchedHeroRunner`` that is the parity
reference.  Each of the 32 server slots replays one env's observation
stream and is reset where that env's episodes ended.

Open loop: one generator thread releases a round every ``1/rate``
seconds; in a round every slot submits its next observation through
``PolicyServer.submit_async``.  A slot never has two requests in flight
(the server's contract), so the generator waits on the slot's previous
future before submitting.  Latency runs from the request's *due* time, so a
stalled server also charges the wait it imposes on later rounds; the
generator's own lateness is reported separately.  The server flushes on a
full batch only (``max_wait_us`` far above a round's submission time), so
every flush is one whole round in slot order: the bitwise parity path.

Closed loop: one ``PolicyClient`` connection sends one request at a time
through the socket front end.

Both loops report the median over short windows of each window's
percentile, as measured.  Serving latency is mostly thread hand-offs,
which the host-speed kernels (see ``hostspeed``) do not track.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

SLOTS = 32
NOMINAL_RATE = 50.0  # rounds/s; 1,600 decisions/s at 32 slots
OPEN_SHARE = 0.5  # of the serving time; the socket loop gets the rest
OPEN_WINDOW = 50  # rounds per open-loop window: 1 s, 1,600 requests
SOCKET_SEGMENT_S = 0.5
# Size-triggered flushes only: far above the time one round takes to submit.
FLUSH_WAIT_US = 10_000_000.0
RESULT_TIMEOUT_S = 30.0


@dataclass
class Recording:
    """``steps`` rounds of per-slot requests plus the reference actions."""

    requests: list  # [step][slot] -> ObservationRequest
    actions: np.ndarray  # (steps, SLOTS, agents, 2)
    resets: np.ndarray  # (steps, SLOTS): slot starts a new episode here
    episode_rewards: list = field(default_factory=list)
    collisions: list = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.requests)


def record_rollout(path: str, seed: int, steps: int) -> Recording:
    """Greedy rollout of the checkpoint at ``path`` on ``SLOTS`` envs."""
    from repro import load_policy
    from repro.core import BatchedHeroRunner
    from repro.envs import VectorEnv
    from repro.serving import split_hero_batch

    policy = load_policy(path)
    vec = VectorEnv(SLOTS, scenario=policy.scenario, rewards=policy.rewards)
    try:
        runner = BatchedHeroRunner(policy.controller, vec)
        rng = np.random.default_rng(seed)
        obs = vec.reset([int(s) for s in rng.integers(0, 2**31 - 1, SLOTS)])
        requests, actions = [], []
        resets = np.zeros((steps, SLOTS), dtype=bool)
        rec = Recording(requests, None, resets)
        for t in range(steps):
            requests.append(split_hero_batch(obs, vec.agent_d, vec.agent_heading))
            act = runner.act(obs, epsilon=0.0, explore=False)
            actions.append(act.copy())
            obs, _, dones, infos = vec.step(act)
            for i in np.flatnonzero(dones):
                runner.start_episode(int(i))
                rec.episode_rewards.append(infos[i]["episode"]["episode_reward"])
                rec.collisions.append(infos[i]["episode"]["collision"])
                if t + 1 < steps:
                    resets[t + 1, i] = True
        rec.actions = np.stack(actions)
        return rec
    finally:
        vec.close()


@dataclass
class PhaseResult:
    """Per-request timings of one open-loop segment."""

    latency_ms: np.ndarray  # (rounds, SLOTS); NaN where a request failed
    late_ms: np.ndarray  # generator lateness at each round's start
    attempted: int
    failed: int

    @property
    def samples(self) -> int:
        return int(np.isfinite(self.latency_ms).sum())

    def percentile(self, q: float) -> float:
        """Median over windows of the window's ``q``-th percentile: a burst
        of host contention moves one window, not the result."""
        return float(np.median([
            np.nanpercentile(self.latency_ms[i : i + OPEN_WINDOW], q)
            for i in range(0, len(self.latency_ms), OPEN_WINDOW)
        ]))


class OpenLoop:
    """Replays a recording round by round against one server."""

    def __init__(self, server, rec: Recording, tracer=None):
        self.server = server
        self.rec = rec
        self.tracer = tracer
        self.round = 0  # global round counter across phases
        self._futures: list = [None] * SLOTS
        self._steps: list = [0] * SLOTS  # recording step of each in-flight request
        self.submitted: dict = {}  # (round, slot) -> submit time (traced)
        self._failed = 0

    def _settle(self, slot: int) -> None:
        """Wait for the slot's in-flight request and check its action."""
        future = self._futures[slot]
        if future is None:
            return
        step = self._steps[slot]
        try:
            action = future.result(timeout=RESULT_TIMEOUT_S)
        except Exception:  # a failed request counts, the load goes on
            self._failed += 1
        else:
            if not np.array_equal(action, self.rec.actions[step, slot]):
                self._failed += 1
        self._futures[slot] = None

    def run(self, rate: float, seconds: float) -> PhaseResult:
        rounds = max(int(round(rate * seconds)), 1)
        period = 1.0 / rate
        due = np.empty((rounds, SLOTS))
        done = np.full((rounds, SLOTS), np.nan)
        late = np.empty(rounds)
        self._failed = 0
        start = time.perf_counter() + 1e-3
        for r in range(rounds):
            global_round = self.round + r
            step = global_round % self.rec.steps
            wrap = step == 0 and global_round > 0
            due_t = start + r * period
            wait = due_t - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            late[r] = time.perf_counter() - due_t
            due[r] = due_t
            for s in range(SLOTS):
                self._settle(s)
                if wrap or self.rec.resets[step, s]:
                    self.server.reset_slot(s)
                if self.tracer is not None:
                    self.tracer.inflight[s] = global_round
                    self.submitted[(global_round, s)] = time.perf_counter()
                future = self.server.submit_async(self.rec.requests[step][s])
                future.add_done_callback(_stamp(done[r], s))
                self._futures[s] = future
                self._steps[s] = step
        for s in range(SLOTS):
            self._settle(s)
        self.round += rounds
        if self.tracer is not None:
            for r in range(rounds):
                for s in range(SLOTS):
                    if not np.isnan(done[r, s]):
                        self.tracer.record(
                            "serve.request", due[r, s], done[r, s],
                            rid=(self.round - rounds + r, s),
                        )
        return PhaseResult(
            latency_ms=(done - due) * 1e3,
            late_ms=late * 1e3,
            attempted=rounds * SLOTS,
            failed=self._failed,
        )


def _stamp(row: np.ndarray, s: int):
    def callback(_future) -> None:
        row[s] = time.perf_counter()

    return callback


def socket_round_trips(path: str, rec: Recording, seconds: float):
    """Closed loop over one connection, in ``SOCKET_SEGMENT_S`` segments.
    Returns each segment's round trips (ms), plus attempted and failed
    counts.  Slots are visited in turn, each replaying its own stream."""
    from repro import PolicyClient, PolicyServer, load_policy

    segments = []
    attempted = failed = 0
    with PolicyServer(load_policy(path), num_slots=SLOTS, max_batch_size=1) as server:
        host, port = server.serve()
        with PolicyClient(host, port, timeout=RESULT_TIMEOUT_S) as client:
            k = 0
            for _ in range(max(int(seconds / SOCKET_SEGMENT_S), 1)):
                trips: list[float] = []
                deadline = time.perf_counter() + SOCKET_SEGMENT_S
                while k < 2 * SLOTS or time.perf_counter() < deadline:
                    slot, step = k % SLOTS, (k // SLOTS) % rec.steps
                    attempted += 1
                    try:
                        if rec.resets[step, slot] or (step == 0 and k >= SLOTS):
                            client.reset_slot(slot)
                        t0 = time.perf_counter()
                        action = client.act(rec.requests[step][slot])
                        trips.append((time.perf_counter() - t0) * 1e3)
                        expected = rec.actions[step, slot]
                        if action.shape != expected.shape or not np.isfinite(action).all():
                            failed += 1
                    except (OSError, RuntimeError):  # socket or server error
                        failed += 1
                    k += 1
                segments.append(np.array(trips))
    return segments, attempted, failed


def serve_phase(path: str, rec: Recording, seconds: float, tracer=None) -> dict:
    """The nominal-rate open loop, then the socket closed loop.

    Splits ``seconds`` by ``OPEN_SHARE``.  Returns the end-to-end serving
    metrics plus counts for the error rate.
    """
    # Leave the harness's own heap (recording, training leftovers) out of
    # the collector's scans, so its pauses are not charged to the server.
    gc.collect()
    gc.freeze()
    try:
        return _serve_phase(path, rec, seconds, tracer)
    finally:
        gc.unfreeze()


def _serve_phase(path: str, rec: Recording, seconds: float, tracer) -> dict:
    from repro import PolicyServer, load_policy

    with PolicyServer(
        load_policy(path),
        num_slots=SLOTS,
        max_batch_size=SLOTS,
        max_wait_us=FLUSH_WAIT_US,
    ) as server:
        loop = OpenLoop(server, rec, tracer)
        loop.run(NOMINAL_RATE, min(0.2, seconds * 0.05))  # warm-up, unscored
        nominal = loop.run(NOMINAL_RATE, seconds * OPEN_SHARE)
    gc.collect()  # the closed server's team holds reference cycles
    socket_start = time.perf_counter()
    trips, sock_attempted, sock_failed = socket_round_trips(
        path, rec, seconds * (1 - OPEN_SHARE)
    )
    return {
        "serve_p50_ms": nominal.percentile(50),
        "serve_p99_ms": nominal.percentile(99),
        "serve_samples": nominal.samples,
        "socket_p50_ms": float(np.median([np.percentile(t, 50) for t in trips])),
        "socket_trips": np.concatenate(trips),
        "late_ms": float(np.mean(nominal.late_ms)),
        "attempted": nominal.attempted + sock_attempted,
        "failed": nominal.failed + sock_failed,
        "submitted": loop.submitted,
        "socket_start": socket_start,
    }
