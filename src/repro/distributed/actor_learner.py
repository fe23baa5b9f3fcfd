"""Async actor–learner training stack (Ape-X/IMPALA style) for DTDE runs.

Topology: **N rollout actor processes** (``num_actors``) each drive a
:class:`~repro.envs.vector_env.VectorEnv` batch with batched policy
inference on a replica of the policy networks, while the **learner**
stays in the calling process, drains transition batches from per-actor
shared-memory :class:`~repro.distributed.queues.ShmRingQueue` rings
merged by :class:`~repro.distributed.queues.ActorFanIn`, and runs
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
actor round function (:func:`_ship_rounds`) and one learner loop
(:func:`_learn`) serve both.  IDQN rows carry their finished episodes'
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
  (:func:`~repro.utils.seeding.spawn_rngs` over ``num_actors * agents``
  children, actor-major, so actor 0 keeps the single-actor streams), and
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
(fork on Linux), so a child inherits the imported package instead of
re-importing it.  A forked child's copies of the learner's rings and
server close their mappings only: the process that created a segment is
the one that unlinks it.  The child still rebuilds its replica from a
picklable spec in the learner's compute dtype, so ``spawn`` and
``forkserver`` keep working.

Shutdown: the learner sets the server's stop flag, closes every queue
(waking actors blocked on backpressure), joins the actors and unlinks
every shared-memory segment.  An actor-side failure (an exception
anywhere in the actor, its env batch included) arrives as an
:class:`~repro.distributed.protocol.ActorError` frame carrying the actor
id; an actor that dies without reporting (SIGKILL, ``os._exit``) is
caught by the learner's abort poll, which names the dead process even
while other actors keep shipping.  Either way the learner re-raises a
``RuntimeError`` naming the failing actor and tears the whole fleet
down.
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
from ..core.options import OptionSet
from ..core.trainer import BatchedRolloutWorker, _HeroEpisodeConsumer
from ..core.trainer import evaluate_hero_vectorized  # noqa: F401 (perfbench/tracing.py wraps it)
from ..core.update_engine import (
    BoundFamilyVector,
    HeroTeamUpdateEngine,
    IDQNUpdateEngine,
    family_dtype,
    family_vector_size,
    gather_family,
)
from ..envs.lane_change_env import CooperativeLaneChangeEnv
from ..envs.vector_env import EnvReplicaFactory, VectorEnv
from ..nn.layers import Linear
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


def _make_exporter(members, flat: np.ndarray | None = None):
    """Slot exporter: the fused optimizer's flat buffer when it exists
    (zero-copy — ``ParameterServer.publish`` copies straight out of it),
    a ``gather_family`` copy otherwise (non-fused updates own their
    parameter storage per network)."""
    size = family_vector_size(members)
    if flat is not None and flat.size == size:
        return lambda: flat
    out = np.empty(size, dtype=family_dtype(members))
    return lambda: gather_family(members, out)


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
    """The actor side of the round protocol, shared by both actors.

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


def _start_actors(target, kind: str, server, queues, specs) -> list:
    """Start one ``{kind}-actor-{k}`` process per spec, on its own ring,
    with the default start method."""
    processes = [
        mp.Process(
            target=target, args=(spec, server, queue), name=f"{kind}-actor-{k}"
        )
        for k, (spec, queue) in enumerate(zip(specs, queues))
    ]
    for process in processes:
        process.start()
    return processes


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
    """The learner side of the round protocol, shared by both learners:
    until ``consumer`` is done, take the next round from the fan-in, adopt
    its post-round RNG states into ``generators`` (lockstep) or log its
    snapshot staleness, consume it as the synchronous loop does, and
    publish the next snapshot unless training is done.
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


# ---------------------------------------------------------------------------
# HERO
# ---------------------------------------------------------------------------


def _hero_actor_main(spec: dict, server: ParameterServer, queue: ShmRingQueue):
    """Rollout actor process: act on snapshots, ship each collected round.

    Rebuilds the learner's team from ``spec`` (its state and its skills'
    RNG states) in the learner's compute dtype, binds its acting families
    to flat import vectors, and runs the synchronous loop's
    :class:`BatchedRolloutWorker` on it, shipping the rounds its
    ``collect`` returns; the learner's consumer writes their experience
    into the learner's team, as the synchronous loop writes its own.  In
    staleness fan-out this actor's batch is its own partition of the
    collection workload, and its ``e``-th episode explores at the
    schedule's episode ``actor_id + num_actors * e``.
    """
    try:
        # A spawned or forkserver child starts at the float64 default;
        # adopt the learner's compute dtype before building any network
        # or env.
        set_default_dtype(spec["dtype"])
        env = spec["factory"]()
        team = HeroTeam(
            env,
            np.random.default_rng(0),
            hyper=spec["hyper"],
            option_set=OptionSet(*spec["option_set_args"]),
            opponent_mode=spec["opponent_mode"],
            batch_size=spec["batch_size"],
        )
        team.load_state_dict(spec["team_state"])
        highs = [team.agents[a].high_level for a in env.agents]
        # Skills are pre-trained and frozen during high-level training,
        # but their exploration RNGs advanced during pre-training: adopt
        # the exact states, shipped once at start.
        load_rng_state(team.skills.driving_in_lane._rng, spec["skill_rng"][0])
        load_rng_state(team.skills.lane_change._rng, spec["skill_rng"][1])
        bound = {
            name: BoundFamilyVector(members)
            for name, members in team.acting_families().items()
        }
        for high, words in zip(highs, spec["actor_rng"]):
            load_rng_state(high._rng, words)
        n = spec["num_envs"]
        worker = BatchedRolloutWorker(VectorEnv(n, env_fns=[spec["factory"]] * n), team)
        worker.reset(spec["seeds"])
        schedule = spec["epsilon_schedule"]
        first, stride = spec["actor_id"], spec["num_actors"]
        _ship_rounds(
            spec, server, queue, bound, [h._rng for h in highs],
            lambda: worker.collect(lambda e: schedule(first + stride * e)),
        )
    except Exception:
        _report_actor_error(queue, spec)
    finally:
        queue.release()
        server.release()


def train_hero_async(
    env: CooperativeLaneChangeEnv,
    team: HeroTeam,
    consumer: _HeroEpisodeConsumer,
    *,
    num_envs: int,
    rng: np.random.Generator,
    epsilon_schedule,
    config,
    engine=None,
    max_staleness: int = 0,
    num_actors: int = 1,
) -> MetricLogger:
    """Algorithm 1 on the async actor–learner stack.

    The synchronous loop of :func:`~repro.core.trainer.train_hero` with
    its :class:`~repro.core.trainer.BatchedRolloutWorker` moved into
    ``num_actors`` actor processes: the learner hands each round an actor
    ships to ``consumer``, the loop's per-episode consumer (store, update
    budget, logging and evaluation records, which ``train_hero`` scores
    after this returns).  At ``max_staleness=0`` one actor runs
    and the run is the synchronous one bit for bit; at
    ``max_staleness>0`` rollout and update overlap, with aggregate and
    per-actor staleness logged per round (see the module docstring).
    ``engine`` is
    the :class:`~repro.core.update_engine.UpdateEngine` behind the
    consumer's update when fused updates are active; its flat optimizer
    buffers make each snapshot publish a plain ``np.copyto``.  A team
    with an observation service raises ``ValueError`` before any actor
    starts: the actors rebuild the team without a bus.  Returns
    ``consumer.logger``.
    """
    check_fanout(max_staleness, num_actors)
    if team.observation_service is not None:
        raise ValueError(
            "async actors roll out without the team's "
            "DistributedObservationService (their replica teams have no bus); "
            "train a team with a bus synchronously"
        )
    factory = EnvReplicaFactory.from_env(env)
    if type(team.option_set) is not OptionSet:
        raise ValueError(
            "async actors require the default OptionSet (custom option sets "
            "hold unpicklable predicates and cannot be shipped to the actor)"
        )

    highs = [team.agents[a].high_level for a in env.agents]
    first = highs[0]
    impl = getattr(engine, "_impl", None)
    fused_impl = impl if isinstance(impl, HeroTeamUpdateEngine) else None
    fused_opts = (
        {"actor": fused_impl.actor_opt, "opponent": fused_impl.opponent_opt}
        if fused_impl
        else {}
    )
    families = team.acting_families()
    slots = {name: family_vector_size(members) for name, members in families.items()}
    exporters = {
        name: _make_exporter(
            members, fused_opts[name]._flat if name in fused_opts else None
        )
        for name, members in families.items()
    }

    generators = [h._rng for h in highs]
    server = ParameterServer(slots, num_rngs=len(highs), dtype=get_default_dtype())
    queues = [ShmRingQueue(_QUEUE_BYTES) for _ in range(num_actors)]
    # Each actor draws its own env seeds, actor-major, so actor 0's seeds
    # are exactly the single-actor run's at any fan-out.
    seed_sets = [
        [int(rng.integers(0, 2**31 - 1)) for _ in range(num_envs)]
        for _ in range(num_actors)
    ]
    # Actor-major RNG forks (lockstep swaps in the sidecar every round):
    # actor k's agent streams are children [k * agents, (k + 1) * agents)
    # of one SeedSequence, so actor 0's streams equal the single-actor
    # run's at any fan-out (SeedSequence children depend only on their
    # index, not on how many are spawned).
    actor_streams = [
        encode_rng_state(g)
        for g in spawn_rngs(config.seed + _ACTOR_RNG_SALT, num_actors * len(highs))
    ]
    shared_spec = {
        "factory": factory,
        "num_envs": num_envs,
        "epsilon_schedule": epsilon_schedule,
        "hyper": team.hyper,
        "option_set_args": (
            team.option_set.option_duration,
            team.option_set.lane_change_max_steps,
        ),
        "opponent_mode": first.opponent_mode,
        "batch_size": first.batch_size,
        "team_state": team.state_dict(),
        "skill_rng": [
            encode_rng_state(team.skills.driving_in_lane._rng),
            encode_rng_state(team.skills.lane_change._rng),
        ],
        "max_staleness": max_staleness,
        "num_actors": num_actors,
        "dtype": np.dtype(get_default_dtype()).name,
    }
    # Version 0 — current weights and RNG states — must exist before the
    # actors' first read.
    _publish(server, exporters, generators)
    processes = _start_actors(
        _hero_actor_main,
        "hero",
        server,
        queues,
        [
            dict(
                shared_spec,
                actor_id=k,
                seeds=seed_sets[k],
                actor_rng=actor_streams[k * len(highs) : (k + 1) * len(highs)],
            )
            for k in range(num_actors)
        ],
    )

    try:
        _learn(
            consumer, queues, processes, server, exporters, generators,
            max_staleness == 0,
        )
        return consumer.logger
    finally:
        _shutdown(server, queues, processes)


# ---------------------------------------------------------------------------
# IDQN
# ---------------------------------------------------------------------------


def _idqn_hidden_dim(algorithm: IndependentDQN) -> int:
    trunk = algorithm.q_networks[algorithm.agent_ids[0]].trunk
    for child in trunk.net.children:
        if isinstance(child, Linear):
            return child.out_features
    raise ValueError("IDQN trunk has no Linear layer")


def _idqn_actor_main(spec: dict, server: ParameterServer, queue: ShmRingQueue):
    """IDQN rollout actor: the synchronous loop's
    :class:`~repro.baselines.base.BaselineRolloutWorker`, acting on
    snapshots and shipping each collection round's rows (every round ends
    where the synchronous loop would run updates).

    Each actor walks its :func:`episode_partition` stride of the episode
    universe (all of it when one actor runs).  Once its budget episodes
    are done the actor idles (see :func:`_ship_rounds`).
    """
    try:
        # Adopt the learner's compute dtype before building the replica.
        set_default_dtype(spec["dtype"])
        algo = IndependentDQN(
            spec["agent_ids"],
            spec["obs_dim"],
            spec["num_actions"],
            np.random.default_rng(0),
            hidden_dim=spec["hidden_dim"],
            buffer_capacity=1,  # the actor never observes; learner owns replay
        )
        bound = {"q": BoundFamilyVector(algo.acting_members())}
        load_rng_state(algo._rng, spec["actor_rng"])
        worker = BaselineRolloutWorker(
            spec["build_batch"](spec["num_envs"]),
            algo,
            spec["episodes"],
            spec["seed"],
            spec["epsilon_schedule"],
            spec["num_actors"],
            spec["actor_id"],
        )
        _ship_rounds(
            spec, server, queue, bound, [algo._rng], worker.collect,
            lambda: worker.exhausted,
        )
    except Exception:
        _report_actor_error(queue, spec)
    finally:
        queue.release()
        server.release()


def train_marl_async(
    vec_env,
    algorithm: IndependentDQN,
    episodes: int,
    seed: int,
    epsilon_schedule,
    consumer: BaselineConsumer,
    engine=None,
    max_staleness: int = 0,
    num_actors: int = 1,
) -> MetricLogger:
    """IDQN training on the async actor–learner stack.

    The synchronous loop of
    :func:`~repro.baselines.base.train_marl_vectorized` with its
    :class:`~repro.baselines.base.BaselineRolloutWorker` moved into
    ``num_actors`` actor processes: each steps a batch from
    ``vec_env.replica_builder()`` (the caller's traffic, track and command
    grid carry over) and ships its collection rounds; the learner hands every
    round's rows to ``consumer``, a
    :class:`~repro.baselines.base.BaselineConsumer`, which reads each
    finished episode's index from the rows and records the interleaved
    evaluations, scored by ``train_marl_vectorized`` after this returns.
    Lockstep runs one actor,
    bitwise the synchronous loop; staleness fan-out stride-partitions the
    episode universe across actors for real collection parallelism.
    Returns ``consumer.logger``.
    """
    check_fanout(max_staleness, num_actors)
    build_batch = vec_env.replica_builder()
    ids = algorithm.agent_ids
    members = algorithm.acting_members()
    impl = getattr(engine, "_impl", None)
    fused_impl = impl if isinstance(impl, IDQNUpdateEngine) else None
    exporters = {"q": _make_exporter(members, fused_impl.opt._flat if fused_impl else None)}
    generators = [algorithm._rng]
    server = ParameterServer(
        {"q": family_vector_size(members)}, num_rngs=1, dtype=family_dtype(members)
    )
    queues = [ShmRingQueue(_QUEUE_BYTES) for _ in range(num_actors)]
    actor_streams = spawn_rngs(seed + _ACTOR_RNG_SALT, num_actors)
    shared_spec = {
        "agent_ids": list(ids),
        "obs_dim": algorithm.obs_dim,
        "num_actions": algorithm.num_actions,
        "hidden_dim": _idqn_hidden_dim(algorithm),
        "build_batch": build_batch,
        "num_envs": vec_env.num_envs,
        "episodes": episodes,
        "seed": seed,
        "epsilon_schedule": epsilon_schedule,
        "max_staleness": max_staleness,
        "num_actors": num_actors,
        "dtype": np.dtype(get_default_dtype()).name,
    }
    _publish(server, exporters, generators)
    processes = _start_actors(
        _idqn_actor_main,
        "idqn",
        server,
        queues,
        [
            dict(shared_spec, actor_id=k, actor_rng=encode_rng_state(actor_streams[k]))
            for k in range(num_actors)
        ],
    )

    try:
        _learn(
            consumer, queues, processes, server, exporters, generators,
            max_staleness == 0,
        )
        return consumer.logger
    finally:
        _shutdown(server, queues, processes)
