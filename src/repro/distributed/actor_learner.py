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
each collection round, and the learner hands every round to the same
per-episode consumer the synchronous loop uses.  IDQN rows carry their
finished episodes' indices, so the learner keeps no episode accounting
of its own.

Option selection consumes one shared RNG stream across an env batch, so
an env batch is never *split* across actors (batch-shaped draws and
batch-shaped BLAS forwards would both change bits).  Two modes:

* **Lockstep** (``max_staleness=0``) — *one actor*, the correctness
  mode.  Each round the actor reads the newest snapshot and the
  learner's published RNG sidecar, collects and ships; the learner
  adopts the shipped post-round RNG state, replays the captured
  experience in order, updates, and only then publishes version
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
  :func:`~repro.utils.seeding.episode_reset_seeds` universe.  Every
  actor imports the newest snapshot with version >= ``round - k`` before
  each of its rounds; collection and update genuinely overlap and scale
  with N.  The learner logs ``{prefix}/snapshot_staleness`` (aggregate,
  at the merged-payload counter) and
  ``{prefix}/snapshot_staleness/actor{k}`` (per actor, at that actor's
  round counter).

Shutdown: the learner sets the server's stop flag, closes every queue
(waking actors blocked on backpressure), joins the actors and unlinks
every shared-memory segment.  An actor-side failure (an exception
anywhere in the actor, its env batch included) arrives as an
:class:`~repro.distributed.protocol.ActorError` frame carrying the
actor id; an actor that dies without reporting (SIGKILL, ``os._exit``)
is caught by the learner's abort poll, which names the dead actor
process even while other actors keep shipping.  Either way the learner
re-raises a ``RuntimeError`` naming the failing actor and tears the
whole fleet down.
"""

from __future__ import annotations

import itertools
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

# Spawned (not forked) actors: a fork would duplicate the learner's BLAS
# state and open shm handles; spawn re-imports cleanly.
_CTX = mp.get_context("spawn")

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
    """Abort callback for learner-side waits: names the first dead actor."""

    def check() -> str | None:
        for process in processes:
            if not process.is_alive():
                return (
                    f"async actor process '{process.name}' died without "
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
    second (wakes actors blocked on backpressure), then join every actor
    — with a terminate fallback so a wedged actor cannot hang the
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


def _ship_rounds(spec: dict, server, queue, collect_round, exhausted=None) -> None:
    """The actor side of the round protocol, shared by both actors.

    Before round ``r`` read the newest snapshot with version >=
    ``r - max_staleness``, let ``collect_round(vectors, rng_words)`` load
    it and collect (it returns the payload's ``data`` and ``rng_states``),
    and ship the round.  In lockstep the learner publishes version r+1
    only after receiving round r, so the next read observes exactly
    version r+1.  Runs until the learner's stop flag or a closed queue;
    while ``exhausted()`` holds the actor idles instead (exiting early
    would race the learner's liveness poll, which treats a missing actor
    process as a crash).
    """
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
        data, rng_states = collect_round(vectors, rng_words)
        payload = RolloutPayload(
            round_index=round_index,
            version_used=version,
            data=data,
            rng_states=rng_states,
            actor_id=spec["actor_id"],
        )
        try:
            queue.put(payload, abort=_parent_abort)
        except QueueClosed:
            break
        round_index += 1


def _start_actors(target, kind: str, server, queues, specs) -> list:
    """Start one ``{kind}-actor-{k}`` process per spec, on its own ring."""
    processes = [
        _CTX.Process(
            target=target, args=(spec, server, queue), name=f"{kind}-actor-{k}"
        )
        for k, (spec, queue) in enumerate(zip(specs, queues))
    ]
    for process in processes:
        process.start()
    return processes


def _receive_rounds(queues, processes, lockstep: bool, logger: MetricLogger, prefix: str):
    """Yield each collection round's payload as the fan-in delivers it.

    Staleness mode also logs each payload's snapshot staleness: the
    aggregate series at the merged-payload counter (monotonic across
    actors; equal to the round index at N=1) and the per-actor series at
    that actor's round.
    """
    abort = _actor_abort(processes)
    fan_in = ActorFanIn(queues)
    for merged in itertools.count():
        payload = _check_payload(fan_in.get(abort=abort))
        if not lockstep:
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
        yield payload


# ---------------------------------------------------------------------------
# HERO
# ---------------------------------------------------------------------------


def _capture_transition(events: list, agent_index: int):
    def capture(transition) -> None:
        events.append(("t", agent_index, transition))

    return capture


def _capture_record(events: list, agent_index: int):
    def capture(obs, other_options) -> None:
        events.append(
            (
                "r",
                agent_index,
                np.array(obs, dtype=get_default_dtype(), copy=True),
                np.array(other_options, dtype=np.int64, copy=True),
            )
        )

    return capture


def _capture_record_batch(events: list, agent_index: int):
    capture = _capture_record(events, agent_index)

    def capture_batch(obs, other_options) -> None:
        for row, options in zip(obs, other_options):
            capture(row, options)

    return capture_batch


def _hero_actor_main(spec: dict, server: ParameterServer, queue: ShmRingQueue):
    """Rollout actor process: act on snapshots, ship captured experience.

    Runs the same :class:`BatchedRolloutWorker` code path as the
    synchronous loop on a replica team whose learnable families are bound
    to flat import vectors.  Replay-buffer writes and opponent-model
    records are captured as an ordered event log instead of being applied
    locally — the learner replays them verbatim, so its buffers evolve
    exactly as the synchronous loop's would.  In staleness fan-out this
    actor's batch is its own partition of the collection workload.
    """
    try:
        # Spawned processes start at the float64 default; adopt the
        # learner's compute dtype before building any network or env.
        set_default_dtype(spec.get("dtype", "float64"))
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
        # Skills are pre-trained and frozen during high-level training, but
        # their exploration RNGs advanced during pre-training: adopt the
        # exact states, shipped once at spawn.
        load_rng_state(team.skills.driving_in_lane._rng, spec["skill_rng"][0])
        load_rng_state(team.skills.lane_change._rng, spec["skill_rng"][1])
        for high, words in zip(highs, spec["actor_rng"]):
            load_rng_state(high._rng, words)

        bound = {"actor": BoundFamilyVector([h.actor.trunk for h in highs])}
        if spec["has_opponent_slot"]:
            bound["opponent"] = BoundFamilyVector(
                [p.trunk for h in highs for p in h.opponent_model.predictors]
            )
        events: list = []
        for k, high in enumerate(highs):
            high.store_transition = _capture_transition(events, k)
            if spec["has_opponent_slot"]:
                high.opponent_model.record = _capture_record(events, k)
                high.opponent_model.record_batch = _capture_record_batch(events, k)

        n = spec["num_envs"]
        worker = BatchedRolloutWorker(VectorEnv(n, env_fns=[spec["factory"]] * n), team)
        worker.reset(spec["seeds"])
        lockstep = spec["max_staleness"] == 0

        def collect_round(vectors, rng_words):
            for name, view in bound.items():
                view.load(vectors[name])
            if lockstep:
                for high, words in zip(highs, rng_words):
                    load_rng_state(high._rng, words)
            events.clear()
            stats = worker.collect(spec["epsilon_schedule"])
            data = {
                "events": list(events),
                "stats": stats,
                "last_observed": [h._last_observed_options.copy() for h in highs],
            }
            return data, [encode_rng_state(h._rng) for h in highs] if lockstep else []

        _ship_rounds(spec, server, queue, collect_round)
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
    ``num_actors`` actor processes: the learner replays each round's
    capture log into the team and hands the round's finished episodes to
    ``consumer``, the loop's per-episode consumer (update budget, logging,
    interleaved evals).  At ``max_staleness=0`` one actor runs and the
    run is the synchronous one bit for bit; at ``max_staleness>0``
    rollout and update overlap, with aggregate and per-actor staleness
    logged per round (see the module docstring).  ``engine`` is
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

    actor_members = [h.actor.trunk for h in highs]
    slots = {"actor": family_vector_size(actor_members)}
    exporters = {
        "actor": _make_exporter(
            actor_members, fused_impl.actor_opt._flat if fused_impl else None
        )
    }
    has_opponent_slot = bool(first.num_opponents) and first.opponent_mode == "model"
    if has_opponent_slot:
        opponent_members = [
            p.trunk for h in highs for p in h.opponent_model.predictors
        ]
        slots["opponent"] = family_vector_size(opponent_members)
        exporters["opponent"] = _make_exporter(
            opponent_members,
            fused_impl.opponent_opt._flat if fused_impl else None,
        )

    def rng_sidecar() -> np.ndarray:
        return np.stack([encode_rng_state(h._rng) for h in highs])

    lockstep = max_staleness == 0
    server = ParameterServer(slots, num_rngs=len(highs), dtype=get_default_dtype())
    queues = [ShmRingQueue(_QUEUE_BYTES, context=_CTX) for _ in range(num_actors)]
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
        "has_opponent_slot": has_opponent_slot,
        "max_staleness": max_staleness,
        "dtype": np.dtype(get_default_dtype()).name,
    }
    # Version 0 — current weights and RNG states — must exist before the
    # actors' first read.
    server.publish({name: fn() for name, fn in exporters.items()}, rng_sidecar())
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
        rounds = _receive_rounds(queues, processes, lockstep, consumer.logger, consumer.prefix)
        while not consumer.done:
            payload = next(rounds)
            if lockstep:
                for high, words in zip(highs, payload.rng_states):
                    load_rng_state(high._rng, words)
            # Replay the actor's capture log: buffer pushes and opponent
            # records land in the learner's team in the exact order the
            # synchronous loop would have produced them.
            for event in payload.data["events"]:
                if event[0] == "t":
                    highs[event[1]].store_transition(event[2])
                else:
                    highs[event[1]].opponent_model.record(event[2], event[3])
            for high, observed in zip(highs, payload.data["last_observed"]):
                high._last_observed_options = observed
            consumer.consume(payload.data["stats"])
            if not consumer.done:
                server.publish(
                    {name: fn() for name, fn in exporters.items()}, rng_sidecar()
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
        set_default_dtype(spec.get("dtype", "float64"))
        algo = IndependentDQN(
            spec["agent_ids"],
            spec["obs_dim"],
            spec["num_actions"],
            np.random.default_rng(0),
            hidden_dim=spec["hidden_dim"],
            buffer_capacity=1,  # the actor never observes; learner owns replay
        )
        bound = BoundFamilyVector(
            [algo.q_networks[a].trunk for a in algo.agent_ids]
        )
        load_rng_state(algo._rng, spec["actor_rng"])
        lockstep = spec["max_staleness"] == 0
        worker = BaselineRolloutWorker(
            spec["build_batch"](spec["num_envs"]),
            algo,
            spec["episodes"],
            spec["seed"],
            spec["epsilon_schedule"],
            spec["num_actors"],
            spec["actor_id"],
        )

        def collect_round(vectors, rng_words):
            bound.load(vectors["q"])
            if lockstep:
                load_rng_state(algo._rng, rng_words[0])
            rows = worker.collect()
            return {"rows": rows}, [encode_rng_state(algo._rng)] if lockstep else []

        _ship_rounds(spec, server, queue, collect_round, lambda: worker.exhausted)
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
    finished episode's index from the rows.  Lockstep runs one actor,
    bitwise the synchronous loop; staleness fan-out stride-partitions the
    episode universe across actors for real collection parallelism.
    Returns ``consumer.logger``.
    """
    check_fanout(max_staleness, num_actors)
    build_batch = vec_env.replica_builder()
    ids = algorithm.agent_ids
    members = [algorithm.q_networks[a].trunk for a in ids]
    impl = getattr(engine, "_impl", None)
    fused_impl = impl if isinstance(impl, IDQNUpdateEngine) else None
    export = _make_exporter(members, fused_impl.opt._flat if fused_impl else None)

    lockstep = max_staleness == 0
    server = ParameterServer(
        {"q": family_vector_size(members)}, num_rngs=1, dtype=family_dtype(members)
    )
    queues = [ShmRingQueue(_QUEUE_BYTES, context=_CTX) for _ in range(num_actors)]
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
    server.publish({"q": export()}, np.stack([encode_rng_state(algorithm._rng)]))
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
        rounds = _receive_rounds(queues, processes, lockstep, consumer.logger, consumer.prefix)
        while not consumer.done:
            payload = next(rounds)
            if lockstep:
                load_rng_state(algorithm._rng, payload.rng_states[0])
            consumer.consume(payload.data["rows"])
            if not consumer.done:
                server.publish(
                    {"q": export()}, np.stack([encode_rng_state(algorithm._rng)])
                )
        return consumer.logger
    finally:
        _shutdown(server, queues, processes)
