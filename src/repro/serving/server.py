"""In-process and socket policy server over the micro-batcher.

:class:`PolicyServer` owns a *policy session* — the stateful inference
engine for one loaded controller — and a
:class:`~repro.serving.batcher.MicroBatcher` that fuses concurrent
:meth:`~PolicyServer.submit` calls into stacked forwards:

* :class:`HeroPolicySession` drives a
  :class:`~repro.core.batched.BatchedHeroRunner` over a *serving stepper*
  (:class:`~repro.envs.stepping.PoseStepper`, the pose-only stand-in for
  the vectorized env: clients send observations plus the exact
  ``d``/``heading`` doubles the steering controllers read).
  Each client owns one **slot** — the runner keeps per-slot option state
  (current option, steps-in-option, coast speed) exactly like one env row
  of :func:`~repro.core.trainer.evaluate_hero_vectorized`; when every slot
  submits each step, served greedy actions are bitwise-equal to the
  evaluator's (same batch row-sets through the same network calls — BLAS
  matmuls are not row-stable across batch sizes, so this is the parity
  contract; partial flushes stay greedy-correct but may differ in the
  last bits).
* :class:`MarlPolicySession` is stateless: it stacks request rows and
  calls ``algorithm.act_batch(stack, explore=False)`` — the
  :func:`~repro.baselines.base.evaluate_marl_vectorized` reference.

The socket front-end (:meth:`PolicyServer.serve` /
:class:`PolicyClient`) speaks 8-byte length-prefixed pickle frames — the
framing convention of the PR-6 shared-memory queue — and the lifecycle
verbs (``request_stop`` / ``close``) follow the parameter-server naming.
A connection that announces a frame above :data:`MAX_FRAME_BYTES` is
closed; the others keep being served.
Checkpoint hot-reload swaps parameters under the same lock the flush
handler holds, so a reload lands *between* batches, never inside one.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..core.batched import BatchedHeroRunner
from ..core.hero import HeroTeam
from ..envs.stepping import PoseStepper
from ..nn.tensor import default_dtype
from .batcher import MicroBatcher
from .checkpoint import CheckpointError, LoadedPolicy, load_checkpoint

_HERO_OBS_KEYS = ("lidar", "speed", "lane_onehot", "features")


def _controller_dtype(controller) -> np.dtype:
    """Compute dtype of a serving controller (its first parameter's dtype).

    Request observations are cast to this at the session boundary, so a
    float32 checkpoint serves float32 forwards even when clients send
    float64 rows.  Pose mirrors (``d``/``heading``) are exempt: they are
    exact doubles by contract at any compute dtype.
    """
    for value in controller.state_dict().values():
        return np.asarray(value).dtype
    return np.dtype(np.float64)

# Per-slot execution state the serving runner gathers/scatters when a
# flush covers only a subset of slots (greedy acting consumes no RNG, so
# running a subset through a smaller runner is side-effect-free).
_RUNNER_STATE = (
    "_option",
    "_steps_in_option",
    "_start_lane",
    "_target_lane",
    "_acc_reward",
    "_needs_new",
    "_pending_valid",
    "_pending_obs",
    "_pending_other",
    "_observed_other",
    "_last_action",
    "lane_change_attempts",
    "lane_change_successes",
)


@dataclass
class ObservationRequest:
    """One client's observation for one decision step.

    ``slot`` identifies the client's persistent server-side state row.
    HERO requests carry the per-agent observation dict (``lidar``,
    ``speed``, ``lane_onehot``, ``features``; each ``(num_agents, dim)``)
    plus the exact vehicle pose ``d``/``heading`` (``(num_agents,)``
    doubles — the steering controllers read these, and they are not
    recoverable from the normalized features).  Baseline requests carry
    the flat ``(num_agents, obs_dim)`` stack in ``obs`` and leave the
    pose fields ``None``.
    """

    slot: int
    obs: object = None
    d: np.ndarray | None = None
    heading: np.ndarray | None = None


def split_hero_batch(obs: dict, d: np.ndarray, heading: np.ndarray) -> list:
    """Split a vectorized obs batch + pose mirrors into per-slot requests.

    ``obs`` is a stepper observation batch (``(num_envs, agents, dim)``
    per key); ``d``/``heading`` are the stepper's ``agent_d`` /
    ``agent_heading`` arrays.  Row ``i`` becomes the request for slot
    ``i`` — the shape clients produce from their own scalar env.
    """
    n = obs["speed"].shape[0]
    return [
        ObservationRequest(
            slot=i,
            obs={k: np.asarray(obs[k][i]).copy() for k in _HERO_OBS_KEYS},
            d=np.asarray(d[i], dtype=np.float64).copy(),
            heading=np.asarray(heading[i], dtype=np.float64).copy(),
        )
        for i in range(n)
    ]


class HeroPolicySession:
    """Stateful greedy inference for one HERO team over client slots."""

    def __init__(self, team: HeroTeam, num_slots: int):
        self.controller = team
        self.num_slots = int(num_slots)
        self._dtype = _controller_dtype(team)
        self._stepper = PoseStepper(team.env, self.num_slots)
        # Runner scratch buffers follow the construction-time default
        # dtype; pin it to the controller's so a float32 checkpoint
        # serves float32 forwards under a float64 process default.
        with default_dtype(self._dtype):
            self._runner = BatchedHeroRunner(team, self._stepper)
        self._subsets: dict[int, tuple] = {}

    def reset_slot(self, i: int) -> None:
        self._runner.start_episode(i)

    def sync(self) -> None:
        """Re-pull observed-opponent state (after a checkpoint reload)."""
        self._runner.sync_observed_options()
        self._subsets.clear()

    def _stack(self, requests: list) -> dict:
        out = {}
        for key in _HERO_OBS_KEYS:
            try:
                out[key] = np.stack(
                    [np.asarray(r.obs[key], dtype=self._dtype) for r in requests]
                )
            except (KeyError, TypeError) as exc:
                raise ValueError(
                    f"HERO requests need obs key {key!r} "
                    f"(got {type(requests[0].obs).__name__})"
                ) from exc
        return out

    def act(self, requests: list) -> list[np.ndarray]:
        """Greedy actions for slot-sorted requests (one array per request)."""
        obs = self._stack(requests)
        d = np.stack([np.asarray(r.d, dtype=np.float64) for r in requests])
        heading = np.stack(
            [np.asarray(r.heading, dtype=np.float64) for r in requests]
        )
        if len(requests) == self.num_slots:
            # Full flush in slot order: identical batch row-sets to
            # evaluate_hero_vectorized at num_envs == num_slots (the
            # bitwise-parity path).
            stepper, runner = self._stepper, self._runner
            stepper.agent_d[:] = d
            stepper.agent_heading[:] = heading
            actions = runner.act(obs, epsilon=0.0, explore=False)
            return [actions[i].copy() for i in range(self.num_slots)]

        # Partial flush: run the subset through a same-size runner so the
        # master's other slots are untouched; gather/scatter the per-slot
        # execution state around the call.  Greedy acting draws no RNG and
        # stores no transitions, so this is the only state that moves.
        m = len(requests)
        if m not in self._subsets:
            stepper = PoseStepper(self.controller.env, m)
            with default_dtype(self._dtype):
                runner = BatchedHeroRunner(self.controller, stepper)
            self._subsets[m] = (stepper, runner)
        stepper, runner = self._subsets[m]
        idx = np.array([r.slot for r in requests])
        for name in _RUNNER_STATE:
            getattr(runner, name)[:] = getattr(self._runner, name)[idx]
        stepper.agent_d[:] = d
        stepper.agent_heading[:] = heading
        actions = runner.act(obs, epsilon=0.0, explore=False)
        for name in _RUNNER_STATE:
            getattr(self._runner, name)[idx] = getattr(runner, name)
        return [actions[j].copy() for j in range(m)]


class MarlPolicySession:
    """Stateless greedy inference for a baseline algorithm."""

    def __init__(self, algorithm, num_slots: int):
        self.controller = algorithm
        self.num_slots = int(num_slots)
        self._dtype = _controller_dtype(algorithm)

    def reset_slot(self, i: int) -> None:
        pass  # baselines keep no per-slot execution state

    def sync(self) -> None:
        pass

    def act(self, requests: list) -> list[np.ndarray]:
        stack = np.stack(
            [np.asarray(r.obs, dtype=self._dtype) for r in requests]
        )  # (m, num_agents, obs_dim)
        actions = self.controller.act_batch(stack, explore=False)
        return [np.asarray(actions[j]).copy() for j in range(len(requests))]


@dataclass
class ServerInfo:
    """What a client learns from an ``info`` round trip."""

    method: str
    num_slots: int
    num_agents: int
    max_batch_size: int
    extra: dict = field(default_factory=dict)


class PolicyServer:
    """Micro-batched greedy inference for one loaded policy.

    ``policy`` may be a :class:`~repro.serving.checkpoint.LoadedPolicy`,
    a :class:`~repro.core.hero.HeroTeam`, or any
    :class:`~repro.baselines.base.MARLAlgorithm`.  ``num_slots`` is the
    number of concurrent client state rows; ``max_batch_size`` defaults
    to ``num_slots`` so a full round of clients flushes as one batch.
    """

    def __init__(
        self,
        policy,
        num_slots: int = 1,
        max_batch_size: int | None = None,
        max_wait_us: float = 200.0,
        max_queue: int = 4096,
    ):
        controller = (
            policy.controller if isinstance(policy, LoadedPolicy) else policy
        )
        if isinstance(controller, HeroTeam):
            self.method = (
                policy.method if isinstance(policy, LoadedPolicy) else "hero"
            )
            self._session = HeroPolicySession(controller, num_slots)
        elif hasattr(controller, "act_batch"):
            self.method = getattr(controller, "name", "marl")
            self._session = MarlPolicySession(controller, num_slots)
        else:
            raise TypeError(
                f"cannot serve {type(controller).__name__}: expected a "
                "LoadedPolicy, HeroTeam or MARLAlgorithm"
            )
        self.controller = controller
        self.num_slots = int(num_slots)
        self.max_batch_size = int(max_batch_size or num_slots)
        self._lock = threading.Lock()
        self._stopping = False
        self._batcher = MicroBatcher(
            self._handle,
            max_batch_size=self.max_batch_size,
            max_wait_us=max_wait_us,
            max_queue=max_queue,
        )
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conns: list[socket.socket] = []
        self._conn_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Batch handler (worker thread)
    # ------------------------------------------------------------------
    def _handle(self, requests: list) -> list:
        slots = [int(r.slot) for r in requests]
        for s in slots:
            if not 0 <= s < self.num_slots:
                raise ValueError(
                    f"slot {s} out of range for a {self.num_slots}-slot server"
                )
        if len(set(slots)) != len(slots):
            raise ValueError(
                f"duplicate slots in one batch: {sorted(slots)} — each slot "
                "may have at most one in-flight request"
            )
        order = sorted(range(len(requests)), key=lambda j: slots[j])
        with self._lock:
            results = self._session.act([requests[j] for j in order])
        unsorted: list = [None] * len(requests)
        for pos, j in enumerate(order):
            unsorted[j] = results[pos]
        return unsorted

    # ------------------------------------------------------------------
    # In-process API
    # ------------------------------------------------------------------
    def submit_async(self, request: ObservationRequest) -> Future:
        """Enqueue one request; the future resolves to its action array."""
        if self._stopping:
            raise RuntimeError("PolicyServer is stopping")
        return self._batcher.submit(request)

    def submit(self, request: ObservationRequest) -> np.ndarray:
        """Blocking :meth:`submit_async`."""
        return self.submit_async(request).result()

    def reset_slot(self, i: int) -> None:
        """Clear slot ``i``'s execution state (client episode boundary)."""
        if not 0 <= i < self.num_slots:
            raise ValueError(f"slot {i} out of range")
        with self._lock:
            self._session.reset_slot(i)

    def info(self) -> ServerInfo:
        num_agents = (
            len(self.controller.env.agents)
            if isinstance(self.controller, HeroTeam)
            else self.controller.num_agents
        )
        return ServerInfo(
            method=self.method,
            num_slots=self.num_slots,
            num_agents=num_agents,
            max_batch_size=self.max_batch_size,
        )

    def reload(self, path) -> None:
        """Hot-swap parameters from a checkpoint, between batches.

        The archive must describe the same method and parameter layout as
        the serving controller; the swap happens under the flush lock so
        no batch ever sees half-loaded weights.
        """
        ckpt = load_checkpoint(path)
        if ckpt.method != self.method:
            raise CheckpointError(
                f"cannot hot-reload a {ckpt.method!r} checkpoint into a "
                f"{self.method!r} server"
            )
        state = ckpt.state_dict()
        with self._lock:
            try:
                self.controller.load_state_dict(state)
            except (KeyError, ValueError) as exc:
                raise CheckpointError(
                    f"checkpoint parameters do not match the serving "
                    f"controller: {exc}"
                ) from exc
            self._session.sync()

    # ------------------------------------------------------------------
    # Lifecycle (parameter-server verb conventions)
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Stop accepting new requests; in-flight work still completes."""
        self._stopping = True

    def close(self) -> None:
        """Stop, drain queued requests, and tear down the socket front-end."""
        self.request_stop()
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown() does, so the accept thread joins at once.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conn_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        self._batcher.close()

    def __enter__(self) -> "PolicyServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Socket front-end
    # ------------------------------------------------------------------
    def serve(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Start the socket front-end; returns the bound ``(host, port)``."""
        if self._listener is not None:
            raise RuntimeError("server socket already started")
        self._listener = socket.create_server((host, port))
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="policy-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self._listener.getsockname()[:2]

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._conn_lock:
                self._conns.append(conn)
            threading.Thread(
                target=self._client_loop, args=(conn,), daemon=True
            ).start()

    def _client_loop(self, conn: socket.socket) -> None:
        try:
            while True:
                frame = _recv_frame(conn)
                if frame is None:
                    return
                kind, payload = frame
                try:
                    if kind == "act":
                        result = self.submit(payload)
                    elif kind == "reset":
                        self.reset_slot(int(payload))
                        result = True
                    elif kind == "info":
                        result = self.info()
                    else:
                        raise ValueError(f"unknown request kind {kind!r}")
                    _send_frame(conn, ("ok", result))
                except Exception as exc:
                    _send_frame(conn, ("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            return  # connection torn down, or it announced an oversized frame
        finally:
            try:
                conn.close()
            except OSError:
                pass


class PolicyClient:
    """Blocking socket client for :meth:`PolicyServer.serve`.

    One connection serves one request at a time; run one client per
    thread (the server batches across connections).
    """

    def __init__(self, host: str, port: int, timeout: float | None = 30.0):
        self._conn = socket.create_connection((host, port), timeout=timeout)
        self._lock = threading.Lock()

    def _call(self, kind: str, payload):
        with self._lock:
            _send_frame(self._conn, (kind, payload))
            reply = _recv_frame(self._conn)
        if reply is None:
            raise ConnectionError("policy server closed the connection")
        status, result = reply
        if status != "ok":
            raise RuntimeError(f"policy server error: {result}")
        return result

    def act(self, request: ObservationRequest) -> np.ndarray:
        return self._call("act", request)

    def reset_slot(self, i: int) -> bool:
        return self._call("reset", int(i))

    def info(self) -> ServerInfo:
        return self._call("info", None)

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass

    def __enter__(self) -> "PolicyClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Length-prefixed pickle framing (the PR-6 shared-memory queue convention)
# ---------------------------------------------------------------------------

_LEN = struct.Struct(">Q")

# Largest frame a peer may announce.  A request is a few kilobytes; a
# larger length prefix closes the connection before anything is allocated.
MAX_FRAME_BYTES = 16 * 1024 * 1024


def _send_frame(conn: socket.socket, obj) -> None:
    data = pickle.dumps(obj)
    conn.sendall(_LEN.pack(len(data)) + data)


def _recv_exact(conn: socket.socket, size: int) -> bytearray | None:
    """Read exactly ``size`` bytes into one preallocated buffer (linear in
    ``size``, however the bytes arrive); None if the peer closed first."""
    buf = bytearray(size)
    view = memoryview(buf)
    filled = 0
    while filled < size:
        count = conn.recv_into(view[filled:])
        if not count:
            return None
        filled += count
    return buf


def _recv_frame(conn: socket.socket):
    header = _recv_exact(conn, _LEN.size)
    if header is None:
        return None
    (size,) = _LEN.unpack(header)
    if size > MAX_FRAME_BYTES:
        raise ConnectionError(
            f"peer announced a {size}-byte frame (limit {MAX_FRAME_BYTES})"
        )
    data = _recv_exact(conn, size)
    if data is None:
        return None
    return pickle.loads(data)


__all__ = [
    "HeroPolicySession",
    "MAX_FRAME_BYTES",
    "MarlPolicySession",
    "ObservationRequest",
    "PolicyClient",
    "PolicyServer",
    "ServerInfo",
    "split_hero_batch",
]
