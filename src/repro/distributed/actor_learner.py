"""Async actor–learner training stack (Ape-X/IMPALA style) for DTDE runs.

Topology: **N rollout actor processes** (``num_actors``) each drive a
:class:`~repro.envs.vector_env.VectorEnv` batch with batched policy
inference on their own copy of the learner's controller, while the
**learner** stays in the calling process, drains transition batches from
per-actor shared-memory :class:`~repro.distributed.queues.ShmRingQueue`
rings merged by :class:`~repro.distributed.queues.ActorFanIn`, and runs
gradient updates continuously.  Fresh policy snapshots flow the other
way through the
:class:`~repro.distributed.parameter_server.ParameterServer` — one
double-buffered segment serves every actor (readers only attach), and
each payload reports the snapshot version that actor acted with, so the
learner logs aggregate and per-actor ``snapshot_staleness``.

Each learner is the synchronous loop with its collection moved out: the
actors run the synchronous loop's rollout workers
(:class:`~repro.core.trainer.BatchedRolloutWorker` for HERO,
:class:`~repro.baselines.base.BaselineRolloutWorker` for IDQN) and ship
the round each ``collect`` returns, and the learner hands every round to
the same consumer the synchronous loop uses, which writes its
experience and trains.  A round is plain data for both methods, so one
stack set-up (:func:`_run_stack`: parameter server, rings, version-0
publish, actor start, :func:`_learn`, :func:`_shutdown`) and one actor
(:func:`_actor_main`, shipping rounds through :func:`_ship_rounds`)
serve both; the methods differ only in their acting families, RNG
streams and rollout worker.  IDQN rows carry their finished episodes'
indices, so the learner keeps no episode accounting of its own.

Option selection consumes one shared RNG stream across an env batch, so
an env batch is never *split* across actors (batch-shaped draws and
batch-shaped BLAS forwards would both change bits).  Two modes:

* **Lockstep** (``max_staleness=0``) — *one actor*, the correctness
  mode.  Each round the actor reads the newest snapshot and the
  learner's published RNG sidecar, collects and ships; the learner
  adopts the shipped post-round RNG state, consumes the round (stores
  its experience, updates), and only then publishes version
  ``round + 1``.  The ship is the barrier: the actor's next ``read``
  observes exactly ``version == round``, so the run is **bitwise
  identical** to the synchronous vectorized loop
  (``tests/test_actor_learner.py``).  More actors would only step copies
  of the same trajectory, so :func:`check_fanout` rejects
  ``num_actors > 1`` here.
* **Staleness fan-out** (``max_staleness=k > 0``) — *partitioned
  collection*, the throughput mode.  Each actor runs its *own* env batch
  on actor-indexed forked RNG streams
  (:func:`~repro.utils.seeding.spawn_rngs` children, one per acting
  generator of each actor: one per HERO agent, one for IDQN; actor-major,
  so actor 0 keeps the single-actor streams), and
  IDQN partitions the episode universe by stride
  (:func:`~repro.utils.seeding.episode_partition`: actor ``k`` owns
  episodes ``k, k+N, k+2N, ...``), so any N consumes the same
  :func:`~repro.utils.seeding.episode_reset_seeds` universe.  HERO
  actors anneal exploration by the same stride: actor ``k``'s ``e``-th
  episode explores at the schedule's episode ``k + N * e``.  Every
  actor imports the newest snapshot with version >= ``round - k`` before
  each of its rounds; collection and update genuinely overlap and scale
  with N.  The learner logs ``{prefix}/snapshot_staleness`` (aggregate,
  at the merged-payload counter) and
  ``{prefix}/snapshot_staleness/actor{k}`` (per actor, at that actor's
  round counter).

The learners only store, update and publish.  Their consumers record
each interleaved greedy evaluation at its cadence point (its step, seed
and the acting parameters at that instant) exactly as the synchronous
loop's do, and the caller (``train_hero`` or ``train_marl_vectorized``)
scores the records after this stack has shut down
(:mod:`repro.utils.evaluation`), so the logged values are the
synchronous loop's bit for bit in lockstep.

Processes: the actors start with the platform's default start method
(fork on Linux), so a child inherits the imported package and the
learner's own controller (the HERO team or the IDQN algorithm) from the
actor spec without pickling; under ``spawn`` or ``forkserver`` the spec,
controller included, is pickled, and a controller that cannot be pickled
raises at ``Process.start()``.  Each actor acts on its copy: it binds the
copy's acting families to flat import vectors, adopts its own RNG
streams and the learner's compute dtype, and never writes back.  A
forked child's copies of the learner's rings and server close their
mappings only: the process that created a segment is the one that
unlinks it.

Shutdown: the learner sets the server's stop flag, closes every queue
(waking actors blocked on backpressure), joins the actors and unlinks
every shared-memory segment, also when the set-up itself fails (an
actor that cannot start stops the ones already running).  An actor-side
failure (an exception anywhere in the actor, its env batch included)
arrives as an :class:`~repro.distributed.protocol.ActorError` frame
carrying the actor id; an actor that dies without reporting (SIGKILL,
``os._exit``) is caught by the learner's abort poll, which names the
dead process even while other actors keep shipping.  Either way the
learner re-raises a ``RuntimeError`` naming the failing actor and tears
the whole fleet down.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback

import numpy as np

from ..baselines.base import BaselineConsumer, BaselineRolloutWorker
from ..baselines.base import evaluate_marl_vectorized  # noqa: F401 (perfbench/tracing.py wraps it)
from ..baselines.idqn import IndependentDQN
from ..core.hero import HeroTeam
from ..core.trainer import BatchedRolloutWorker, _HeroEpisodeConsumer
from ..core.trainer import evaluate_hero_vectorized  # noqa: F401 (perfbench/tracing.py wraps it)
from ..core.update_engine import (
    BoundFamilyVector,
    family_dtype,
    family_vector_size,
    iter_family_params,
)
from ..envs.lane_change_env import CooperativeLaneChangeEnv
from ..envs.vector_env import EnvReplicaFactory, VectorEnv
from ..nn.tensor import get_default_dtype, set_default_dtype
from ..utils.logging_utils import MetricLogger
from ..utils.seeding import spawn_rngs
from .parameter_server import ParameterServer
from .protocol import ActorError, RolloutPayload, encode_rng_state, load_rng_state
from .queues import ActorFanIn, QueueClosed, ShmRingQueue

__all__ = ["check_fanout", "train_hero_async", "train_marl_async"]

# Per-actor transition-queue capacity.  A HERO collection round ships
# every SMDP transition and opponent observation of the batch since the
# last round; 64 MiB holds hundreds of rounds of headroom and bounds
# learner lag.  Each actor gets its own ring (SPSC stays single-writer).
_QUEUE_BYTES = 64 << 20

_JOIN_TIMEOUT = 10.0

# Salt for the actor-side forked RNG streams in staleness mode (keeps
# them disjoint from every seed the learner derives).
_ACTOR_RNG_SALT = 31337


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def check_fanout(max_staleness: int, num_actors: int) -> None:
    """Reject an actor layout the stack does not run (``ValueError``).

    Shared by both learners and the CLI.  Lockstep (``max_staleness=0``)
    runs one actor: more would only step copies of its trajectory.
    """
    if max_staleness < 0:
        raise ValueError(f"max_staleness must be >= 0, got {max_staleness}")
    if num_actors < 1:
        raise ValueError(f"num_actors must be >= 1, got {num_actors}")
    if num_actors > 1 and max_staleness == 0:
        raise ValueError(
            f"num_actors={num_actors} needs max_staleness > 0: lockstep "
            "(max_staleness=0) runs one actor"
        )


def _parent_abort() -> str | None:
    """Abort message for actor-side waits when the learner is gone."""
    parent = mp.parent_process()
    if parent is not None and not parent.is_alive():
        return "learner process died while the actor was waiting"
    return None


def _actor_abort(processes):
    """Abort callback for learner-side waits: names the first dead actor
    process."""

    def check() -> str | None:
        for process in processes:
            if not process.is_alive():
                return (
                    f"async process '{process.name}' died without "
                    f"reporting an error (exit code {process.exitcode})"
                )
        return None

    return check


def _make_exporter(members):
    """Slot exporter: the one flat buffer the members' parameters tile, in
    family order.  The learner's update engine bound them into its
    optimizer's flat buffer, so an export is zero-copy
    (``ParameterServer.publish`` copies straight out of it); members that
    tile no buffer raise ``RuntimeError``."""
    size = family_vector_size(members)
    views = [param.data for param in iter_family_params(members)]
    flat = views[0].base
    tiled = flat is not None and flat.ndim == 1 and flat.size == size
    address = flat.ctypes.data if tiled else 0
    for view in views:
        tiled = tiled and view.base is flat and view.ctypes.data == address
        address += view.nbytes
    if not tiled:
        raise RuntimeError(
            "acting members do not tile one optimizer buffer: build the "
            "learner's UpdateEngine before starting the actors"
        )
    return lambda: flat


def _shutdown(server, queues, processes) -> None:
    """Tear the stack down in signal order; never leaves an orphan or shm.

    Stop flag first (wakes actors polling the server), queue closes
    second (wakes actors blocked on backpressure), then join every
    process — with a terminate fallback so a wedged one cannot hang the
    learner — and finally close + unlink every shared-memory segment.
    """
    server.request_stop()
    for queue in queues:
        queue.close()
    for process in processes:
        process.join(timeout=_JOIN_TIMEOUT)
    for process in processes:
        if process.is_alive():
            process.terminate()
            process.join(timeout=_JOIN_TIMEOUT)
    for queue in queues:
        queue.release()
    server.release()


def _check_payload(payload) -> RolloutPayload:
    if isinstance(payload, ActorError):
        raise RuntimeError(
            f"async actor {payload.actor_id} failed:\n{payload.message}"
        )
    return payload


def _report_actor_error(queue: ShmRingQueue, spec: dict) -> None:
    """Ship the current exception's traceback as an ``ActorError`` frame
    (best effort: the learner's abort poll names an actor that cannot)."""
    try:
        queue.put(
            ActorError(
                message=traceback.format_exc(), actor_id=spec.get("actor_id", -1)
            ),
            timeout=5.0,
        )
    except Exception:
        pass


def _ship_rounds(
    spec: dict, server, queue, bound, generators, collect, exhausted=None
) -> None:
    """The actor side of the round protocol.

    Before round ``r`` read the newest snapshot with version >=
    ``r - max_staleness``, load its vectors into the ``bound`` family
    views (slot name -> :class:`BoundFamilyVector`) and, in lockstep, its
    RNG words into ``generators``; then ship the round ``collect()``
    returns with, in lockstep, the generators' post-round states.  In
    lockstep the learner publishes version r+1 only after receiving
    round r, so the next read observes exactly version r+1.  Runs until
    the learner's stop flag or a closed queue; while ``exhausted()``
    holds the actor idles instead (exiting early would race the learner's
    liveness poll, which treats a missing actor process as a crash).
    """
    lockstep = spec["max_staleness"] == 0
    round_index = 0
    while not server.stop_requested:
        if exhausted is not None and exhausted():
            time.sleep(0.01)
            continue
        try:
            version, vectors, rng_words = server.read(
                max(round_index - spec["max_staleness"], 0), abort=_parent_abort
            )
        except RuntimeError:
            if server.stop_requested:
                break
            raise
        for name, view in bound.items():
            view.load(vectors[name])
        if lockstep:
            for generator, words in zip(generators, rng_words):
                load_rng_state(generator, words)
        payload = RolloutPayload(
            round_index=round_index,
            version_used=version,
            data=collect(),
            rng_states=[encode_rng_state(g) for g in generators] if lockstep else [],
            actor_id=spec["actor_id"],
        )
        try:
            queue.put(payload, abort=_parent_abort)
        except QueueClosed:
            break
        round_index += 1


def _actor_main(spec: dict, server: ParameterServer, queue: ShmRingQueue) -> None:
    """Rollout actor process, for both methods.

    Acts on ``spec["controller"]``, this actor's copy of the learner's
    team or algorithm: binds the copy's acting families
    (``spec["acting"]``) to flat import vectors, loads the actor's own
    RNG streams into the generators they name, builds the method's
    rollout worker (``spec["worker"]``) and ships each round it collects
    (:func:`_ship_rounds`).  An exception is reported to the learner as
    an ``ActorError`` frame; the actor's handles are released either way.
    """
    try:
        # A spawned or forkserver child starts at the float64 default;
        # adopt the learner's compute dtype before building any env.
        set_default_dtype(spec["dtype"])
        families, generators = spec["acting"](spec["controller"])
        bound = {
            name: BoundFamilyVector(members) for name, members in families.items()
        }
        for generator, words in zip(generators, spec["actor_rng"]):
            load_rng_state(generator, words)
        collect, exhausted = spec["worker"](spec)
        _ship_rounds(spec, server, queue, bound, generators, collect, exhausted)
    except Exception:
        _report_actor_error(queue, spec)
    finally:
        queue.release()
        server.release()


def _start_actors(kind: str, server, queues, specs, started: list) -> None:
    """Start one ``{kind}-actor-{k}`` process per spec, on its own ring,
    with the default start method, adding each to ``started`` once it
    runs (a failed start leaves the earlier ones to the caller's
    shutdown)."""
    for k, (spec, queue) in enumerate(zip(specs, queues)):
        process = mp.Process(
            target=_actor_main, args=(spec, server, queue), name=f"{kind}-actor-{k}"
        )
        process.start()
        started.append(process)


def _publish(server, exporters, generators) -> None:
    """Publish the next snapshot: every slot's exported family vector and
    the generators' states as the RNG sidecar."""
    server.publish(
        {name: export() for name, export in exporters.items()},
        np.stack([encode_rng_state(g) for g in generators]),
    )


def _learn(
    consumer, queues, processes, server, exporters, generators, lockstep: bool
) -> None:
    """The learner side of the round protocol: until ``consumer`` is done,
    take the next round from the fan-in, adopt its post-round RNG states
    into ``generators`` (lockstep) or log its snapshot staleness, consume
    it as the synchronous loop does, and publish the next snapshot unless
    training is done.
    """
    abort = _actor_abort(processes)
    fan_in = ActorFanIn(queues)
    logger, prefix = consumer.logger, consumer.prefix
    merged = 0
    while not consumer.done:
        payload = _check_payload(fan_in.get(abort=abort))
        if lockstep:
            for generator, words in zip(generators, payload.rng_states):
                load_rng_state(generator, words)
        else:
            # version_used can exceed this actor's round counter when other
            # actors drive versions up faster; staleness is the lag behind
            # the actor's own progress, floored at 0.
            staleness = float(max(payload.round_index - payload.version_used, 0))
            logger.log(f"{prefix}/snapshot_staleness", staleness, merged)
            logger.log(
                f"{prefix}/snapshot_staleness/actor{payload.actor_id}",
                staleness,
                payload.round_index,
            )
        merged += 1
        consumer.consume(payload.data)
        if not consumer.done:
            _publish(server, exporters, generators)


def _run_stack(
    kind: str,
    consumer,
    spec: dict,
    stream_seed: int,
    max_staleness: int,
    num_actors: int,
) -> MetricLogger:
    """The one set-up of both learners; returns ``consumer.logger``.

    ``spec`` is what every actor shares: the learner's own ``controller``,
    its ``acting`` and ``worker`` functions (see :func:`_actor_main`) and
    whatever the worker reads.  One parameter server publishes the acting
    families (a slot each, in the families' own dtype) and the acting
    generators' states; each actor gets its own ring and its own RNG
    streams: children ``[k * G, (k + 1) * G)`` of one ``SeedSequence``
    over ``stream_seed`` for ``G`` generators, actor-major, so actor 0's
    streams equal the single-actor run's at any fan-out (lockstep swaps
    in the sidecar every round).  Version 0 is published before the
    actors start, and whatever fails from the first segment on, the
    started actors are stopped and joined and every segment is unlinked.
    """
    check_fanout(max_staleness, num_actors)
    families, generators = spec["acting"](spec["controller"])
    exporters = {name: _make_exporter(members) for name, members in families.items()}
    count = len(generators)
    streams = spawn_rngs(stream_seed + _ACTOR_RNG_SALT, num_actors * count)
    specs = [
        dict(
            spec,
            actor_id=k,
            num_actors=num_actors,
            max_staleness=max_staleness,
            dtype=np.dtype(get_default_dtype()).name,
            actor_rng=[encode_rng_state(g) for g in streams[k * count : (k + 1) * count]],
        )
        for k in range(num_actors)
    ]
    server = ParameterServer(
        {name: family_vector_size(members) for name, members in families.items()},
        num_rngs=count,
        dtype=family_dtype(next(iter(families.values()))),
    )
    queues: list = []
    processes: list = []
    try:
        for _ in specs:
            queues.append(ShmRingQueue(_QUEUE_BYTES))
        # Version 0 — current weights and RNG states — must exist before
        # the actors' first read.
        _publish(server, exporters, generators)
        _start_actors(kind, server, queues, specs, processes)
        _learn(
            consumer, queues, processes, server, exporters, generators,
            max_staleness == 0,
        )
        return consumer.logger
    finally:
        _shutdown(server, queues, processes)


# ---------------------------------------------------------------------------
# HERO
# ---------------------------------------------------------------------------


def _hero_acting(team: HeroTeam):
    """HERO's acting families and the generators its option selection
    draws from, one per agent."""
    highs = [agent.high_level for agent in team.agents.values()]
    return team.acting_families(), [high._rng for high in highs]


def _hero_worker(spec: dict):
    """The synchronous loop's :class:`BatchedRolloutWorker` over this
    actor's own env batch and seeds; its ``e``-th episode explores at the
    schedule's episode ``actor_id + num_actors * e``."""
    n, first = spec["num_envs"], spec["actor_id"]
    worker = BatchedRolloutWorker(
        VectorEnv(n, env_fns=[spec["factory"]] * n), spec["controller"]
    )
    worker.reset(spec["seed_sets"][first])
    schedule, stride = spec["epsilon_schedule"], spec["num_actors"]
    return lambda: worker.collect(lambda e: schedule(first + stride * e)), None


def train_hero_async(
    env: CooperativeLaneChangeEnv,
    team: HeroTeam,
    consumer: _HeroEpisodeConsumer,
    *,
    num_envs: int,
    rng: np.random.Generator,
    epsilon_schedule,
    config,
    max_staleness: int = 0,
    num_actors: int = 1,
) -> MetricLogger:
    """Algorithm 1 on the async actor–learner stack.

    The synchronous loop of :func:`~repro.core.trainer.train_hero` with
    its :class:`~repro.core.trainer.BatchedRolloutWorker` moved into
    ``num_actors`` actor processes, each on its own copy of ``team``: the
    learner hands each round an actor ships to ``consumer``, the loop's
    per-episode consumer (store, update budget, logging and evaluation
    records, which ``train_hero`` scores after this returns).  At
    ``max_staleness=0`` one actor runs and the run is the synchronous one
    bit for bit; at ``max_staleness>0`` rollout and update overlap, with
    aggregate and per-actor staleness logged per round (see the module
    docstring).  The learner's update engine owns the acting families'
    storage, so each snapshot publish is a plain ``np.copyto`` out of its
    flat buffers.  A team with an observation service raises ``ValueError``
    before any actor starts.  Returns ``consumer.logger``.
    """
    if team.observation_service is not None:
        raise ValueError(
            "async actors roll out without the team's "
            "DistributedObservationService (each actor would exchange over "
            "its own copy of the bus); train a team with a bus synchronously"
        )
    spec = {
        "controller": team,
        "acting": _hero_acting,
        "worker": _hero_worker,
        "factory": EnvReplicaFactory.from_env(env),
        "num_envs": num_envs,
        "epsilon_schedule": epsilon_schedule,
        # Each actor draws its own env seeds, actor-major, so actor 0's
        # seeds are exactly the single-actor run's at any fan-out.
        "seed_sets": [
            [int(rng.integers(0, 2**31 - 1)) for _ in range(num_envs)]
            for _ in range(num_actors)
        ],
    }
    return _run_stack("hero", consumer, spec, config.seed, max_staleness, num_actors)


# ---------------------------------------------------------------------------
# IDQN
# ---------------------------------------------------------------------------


def _idqn_acting(algorithm: IndependentDQN):
    """IDQN's acting family (every agent's Q trunk) and its one
    exploration generator."""
    return {"q": algorithm.acting_members()}, [algorithm._rng]


def _idqn_worker(spec: dict):
    """The synchronous loop's
    :class:`~repro.baselines.base.BaselineRolloutWorker` over this actor's
    :func:`~repro.utils.seeding.episode_partition` stride of the episode
    universe (all of it when one actor runs); once its budget episodes
    are done the actor idles (see :func:`_ship_rounds`)."""
    worker = BaselineRolloutWorker(
        spec["build_batch"](spec["num_envs"]),
        spec["controller"],
        spec["episodes"],
        spec["seed"],
        spec["epsilon_schedule"],
        spec["num_actors"],
        spec["actor_id"],
    )
    return worker.collect, lambda: worker.exhausted


def train_marl_async(
    vec_env,
    algorithm: IndependentDQN,
    episodes: int,
    seed: int,
    epsilon_schedule,
    consumer: BaselineConsumer,
    max_staleness: int = 0,
    num_actors: int = 1,
) -> MetricLogger:
    """IDQN training on the async actor–learner stack.

    The synchronous loop of
    :func:`~repro.baselines.base.train_marl_vectorized` with its
    :class:`~repro.baselines.base.BaselineRolloutWorker` moved into
    ``num_actors`` actor processes, each on its own copy of
    ``algorithm``: each steps a batch from ``vec_env.replica_builder()``
    (the caller's traffic, track and command grid carry over) and ships
    its collection rounds; the learner hands every round's rows to
    ``consumer``, a :class:`~repro.baselines.base.BaselineConsumer`, which
    reads each finished episode's index from the rows and records the
    interleaved evaluations, scored by ``train_marl_vectorized`` after
    this returns.  Lockstep runs one actor, bitwise the synchronous loop;
    staleness fan-out stride-partitions the episode universe across
    actors for real collection parallelism.  Returns ``consumer.logger``.
    """
    spec = {
        "controller": algorithm,
        "acting": _idqn_acting,
        "worker": _idqn_worker,
        "build_batch": vec_env.replica_builder(),
        "num_envs": vec_env.num_envs,
        "episodes": episodes,
        "seed": seed,
        "epsilon_schedule": epsilon_schedule,
    }
    return _run_stack("idqn", consumer, spec, seed, max_staleness, num_actors)
