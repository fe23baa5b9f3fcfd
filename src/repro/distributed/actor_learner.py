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

Option selection consumes one shared RNG stream across an env batch, so
an env batch is never *split* across actors (batch-shaped draws and
batch-shaped BLAS forwards would both change bits).  Fan-out instead
changes what each whole actor steps, per mode:

* **Lockstep fan-out** (``max_staleness=0``) — *replicated collection*.
  All N actors step identical env-batch replicas: same env seeds, same
  snapshot, same published RNG sidecar each round, hence identical
  trajectories.  Every replica ships every round; the learner drains the
  full replica set in rotation (``ActorFanIn.get(expected=merged % N)``)
  before publishing the next version, replaying only the round owner's
  (``round % N``) bit-identical copy.  The drain is the lockstep
  barrier: each ship acks that its replica has consumed the current
  snapshot, so every replica's next ``read`` observes exactly
  ``version == round`` — without it, a newest-wins read would let a fast
  learner feed a slow replica a later snapshot and silently fork the
  replicated state.  The learner adopts the shipped post-round RNG
  state, replays the captured experience in order, updates, and
  publishes version ``round + 1`` — so the run is **bitwise identical**
  to the synchronous vectorized loop at any ``num_actors``
  (``tests/test_actor_learner.py`` locks N in {1, 2, 3}).  This is the
  correctness mode: replication buys attribution coverage, not
  throughput.
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
actor id and jumps the fan-in merge; an actor that dies without
reporting (SIGKILL, ``os._exit``) is caught by the learner's abort poll,
which names the dead actor process.  Either way the learner re-raises a
``RuntimeError`` naming the failing actor and tears the whole fleet
down.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
import warnings

import numpy as np

from ..baselines.base import evaluate_marl_vectorized
from ..baselines.idqn import IndependentDQN
from ..core.batched import BatchedHeroRunner
from ..core.hero import HeroTeam
from ..core.options import OptionSet
from ..core.trainer import (
    BatchedRolloutWorker,
    _log_hero_episode,
    _log_hero_eval,
    evaluate_hero_vectorized,
)
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
from ..envs.wrappers import make_baseline_vector_env
from ..nn.layers import Linear
from ..nn.tensor import get_default_dtype, set_default_dtype
from ..utils.logging_utils import MetricLogger
from ..utils.seeding import episode_partition, episode_reset_seeds, spawn_rngs
from .parameter_server import ParameterServer
from .protocol import ActorError, RolloutPayload, encode_rng_state, load_rng_state
from .queues import ActorFanIn, QueueClosed, ShmRingQueue

__all__ = ["train_hero_async", "train_marl_async"]

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


def _actor_seed_sets(rng, num_envs: int, num_actors: int, lockstep: bool):
    """Per-actor env reset seeds for HERO fan-out.

    Lockstep replicates: every actor steps the same seeds (one draw of
    ``num_envs``, shared), so trajectories are identical and round
    attribution can rotate.  Staleness partitions: each actor draws its
    own batch, actor-major, so actor 0's seeds are exactly the
    single-actor run's at any N.
    """
    if lockstep:
        seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(num_envs)]
        return [seeds] * num_actors
    return [
        [int(rng.integers(0, 2**31 - 1)) for _ in range(num_envs)]
        for _ in range(num_actors)
    ]


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
    exactly as the synchronous loop's would.

    Fan-out: in lockstep mode all ``num_actors`` replicas collect and
    ship every round (the learner replays the round owner's bit-identical
    copy and treats each ship as that replica's snapshot ack); in
    staleness mode this actor's batch is its own partition of the
    collection workload.
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
        if spec["actor_rng"] is not None:  # staleness mode: forked streams
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
        max_staleness = spec["max_staleness"]
        lockstep = max_staleness == 0
        actor_id = spec["actor_id"]
        round_index = 0
        while not server.stop_requested:
            try:
                version, vectors, rng_words = server.read(
                    max(round_index - max_staleness, 0), abort=_parent_abort
                )
            except RuntimeError:
                if server.stop_requested:
                    break
                raise
            for name, view in bound.items():
                view.load(vectors[name])
            if lockstep:
                for j, high in enumerate(highs):
                    load_rng_state(high._rng, rng_words[j])
            events.clear()
            stats = worker.collect(spec["epsilon_schedule"])
            # Every replica ships every round.  In lockstep the ship is
            # also this replica's ack that it consumed the current
            # snapshot: the learner publishes version r+1 only after
            # draining all N round-r payloads, so a replica's next read
            # observes exactly version r+1 — a newest-wins read without
            # that barrier lets a fast learner feed a slow replica a
            # later snapshot and silently fork the replicated state.
            payload = RolloutPayload(
                round_index=round_index,
                version_used=version,
                data={
                    "events": list(events),
                    "stats": stats,
                    "last_observed": [
                        h._last_observed_options.copy() for h in highs
                    ],
                },
                rng_states=(
                    [encode_rng_state(h._rng) for h in highs] if lockstep else []
                ),
                actor_id=actor_id,
            )
            try:
                queue.put(payload, abort=_parent_abort)
            except QueueClosed:
                break
            round_index += 1
    except Exception:
        try:
            queue.put(
                ActorError(
                    message=traceback.format_exc(),
                    actor_id=spec.get("actor_id", -1),
                ),
                timeout=5.0,
            )
        except Exception:
            pass
    finally:
        queue.release()
        server.release()


def train_hero_async(
    env: CooperativeLaneChangeEnv,
    team: HeroTeam,
    episodes: int,
    *,
    num_envs: int,
    rng: np.random.Generator,
    epsilon_schedule,
    n_updates: int,
    logger: MetricLogger,
    metric_prefix: str,
    eval_every: int | None,
    eval_episodes: int,
    config,
    update_fn,
    engine=None,
    max_staleness: int = 0,
    num_actors: int = 1,
) -> MetricLogger:
    """Algorithm 1 on the async actor–learner stack.

    Same contract as the synchronous ``_train_hero_vectorized`` — at
    ``max_staleness=0`` the same bits (at any ``num_actors``), at
    ``max_staleness>0`` overlapped rollout and update with aggregate and
    per-actor staleness logged per round.  ``num_actors`` fans collection
    out over that many actor processes (see the module docstring for the
    replicated-lockstep / partitioned-staleness split).  ``engine`` is
    the :class:`~repro.core.update_engine.UpdateEngine` behind
    ``update_fn`` when fused updates are active; its flat optimizer
    buffers make each snapshot publish a plain ``np.copyto``.
    """
    if type(env) is not CooperativeLaneChangeEnv:
        raise ValueError(
            f"async actors cannot replicate a {type(env).__name__}; the actor "
            "process rebuilds the env from its configuration — use the stock "
            "CooperativeLaneChangeEnv or the synchronous loop"
        )
    if type(team.option_set) is not OptionSet:
        raise ValueError(
            "async actors require the default OptionSet (custom option sets "
            "hold unpicklable predicates and cannot be shipped to the actor)"
        )
    if max_staleness < 0:
        raise ValueError(f"max_staleness must be >= 0, got {max_staleness}")
    if num_actors < 1:
        raise ValueError(f"num_actors must be >= 1, got {num_actors}")

    factory = EnvReplicaFactory(
        scenario=env.scenario,
        rewards=env.rewards,
        track=env.track,
        scripted_policy=env._scripted_policy,
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
    seed_sets = _actor_seed_sets(rng, num_envs, num_actors, lockstep)
    # Actor-major RNG forks: actor k's agent streams are children
    # [k * agents, (k + 1) * agents) of one SeedSequence, so actor 0's
    # streams equal the single-actor run's at any fan-out (SeedSequence
    # children depend only on their index, not on how many are spawned).
    actor_streams = (
        None
        if lockstep
        else [
            encode_rng_state(g)
            for g in spawn_rngs(
                config.seed + _ACTOR_RNG_SALT, num_actors * len(highs)
            )
        ]
    )
    shared_spec = {
        "factory": factory,
        "num_envs": num_envs,
        "num_actors": num_actors,
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
    processes = []
    for k in range(num_actors):
        spec = dict(
            shared_spec,
            actor_id=k,
            seeds=seed_sets[k],
            actor_rng=(
                None
                if lockstep
                else actor_streams[k * len(highs) : (k + 1) * len(highs)]
            ),
        )
        processes.append(
            _CTX.Process(
                target=_hero_actor_main,
                args=(spec, server, queues[k]),
                name=f"hero-actor-{k}",
            )
        )
    for process in processes:
        process.start()

    try:
        evaluator = None
        if eval_every:
            # Same sizing note as the synchronous loop: the eval batch is
            # capped at eval_episodes.
            eval_envs = max(min(num_envs, eval_episodes), 1)
            eval_vec = VectorEnv(eval_envs, env_fns=[factory] * eval_envs)
            if not eval_vec.fast_path:
                warnings.warn(
                    "vectorized HERO rollouts are stepping on the scalar "
                    f"fallback ({eval_vec.fallback_reason}); training is "
                    "correct but --num-envs will not speed it up",
                    RuntimeWarning,
                    stacklevel=2,
                )
            eval_runner = BatchedHeroRunner(team, eval_vec)

            def evaluator(episodes, seed):
                return evaluate_hero_vectorized(
                    eval_vec, team, episodes=episodes, seed=seed, runner=eval_runner
                )

        abort = _actor_abort(processes)
        fan_in = ActorFanIn(queues)
        completed = 0
        merged = 0  # payloads consumed; the global round counter in lockstep
        losses: dict[str, float] = {}
        while completed < episodes:
            if lockstep:
                # Drain one payload per replica, in rotation.  Draining
                # the full replica set before the next publish is the
                # lockstep barrier: each ship acks that its replica has
                # consumed the current snapshot, so every replica's next
                # read observes exactly version == round.  The round
                # owner's copy (round % N) is replayed; the rest are
                # bit-identical and only served as acks.
                round_payloads = []
                for _ in range(num_actors):
                    round_payloads.append(
                        _check_payload(
                            fan_in.get(expected=merged % num_actors, abort=abort)
                        )
                    )
                    merged += 1
                round_idx = merged // num_actors - 1
                payload = round_payloads[round_idx % num_actors]
                for high, words in zip(highs, payload.rng_states):
                    load_rng_state(high._rng, words)
            else:
                payload = _check_payload(fan_in.get(abort=abort))
                merged += 1
                # version_used can exceed this actor's round counter when
                # other actors drive versions up faster; staleness is the
                # lag behind the actor's own progress, floored at 0.  The
                # aggregate series is logged at the merged-payload counter
                # (monotonic across actors; equals round_index at N=1).
                staleness = float(
                    max(payload.round_index - payload.version_used, 0)
                )
                logger.log(
                    f"{metric_prefix}/snapshot_staleness", staleness, merged - 1
                )
                logger.log(
                    f"{metric_prefix}/snapshot_staleness/actor{payload.actor_id}",
                    staleness,
                    payload.round_index,
                )
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
            for stat in payload.data["stats"]:
                for _ in range(n_updates):
                    losses = update_fn()
                _log_hero_episode(
                    logger,
                    metric_prefix,
                    env,
                    stat["episode"],
                    stat["epsilon"],
                    stat["lane_change_attempts"],
                    losses,
                    completed,
                )
                if eval_every and (
                    completed % eval_every == 0 or completed == episodes - 1
                ):
                    _log_hero_eval(
                        logger,
                        metric_prefix,
                        env,
                        team,
                        eval_episodes,
                        config,
                        completed,
                        evaluator=evaluator,
                    )
                completed += 1
                if completed >= episodes:
                    break
            if completed < episodes:
                server.publish(
                    {name: fn() for name, fn in exporters.items()}, rng_sidecar()
                )
        return logger
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


def _idqn_episode_plan(episodes: int, n: int, num_actors: int, actor: int):
    """Episode universe bookkeeping shared by the IDQN actor and learner.

    Returns ``(universe, my_episodes)``: the size of the
    :func:`episode_reset_seeds` universe and the (global) episode indices
    this actor walks, in start order.  The universe is padded so every
    actor can seed its initial batch of ``n`` envs; indices at or beyond
    ``episodes`` are warm-up/overflow episodes that are stepped but never
    counted.  At ``num_actors=1`` this reduces to the synchronous loop's
    ``max(episodes, n)`` universe walked in order.
    """
    universe = max(episodes, n * num_actors)
    return universe, episode_partition(universe, num_actors, actor)


def _idqn_actor_main(spec: dict, server: ParameterServer, queue: ShmRingQueue):
    """IDQN rollout actor: replicates the synchronous vectorized loop's
    env/episode accounting step for step, acting on snapshots and shipping
    per-step transition rows; every step that would trigger updates in the
    synchronous loop closes a collection round.

    Fan-out: lockstep replicas all walk the full episode universe (only
    actor ``round % num_actors`` ships each round); staleness actors walk
    their :func:`episode_partition` stride of the same universe and ship
    every round they close.  Either way the actor keeps stepping until
    the learner's stop flag — exiting early would race the learner's
    liveness poll, which treats a missing actor process as a crash.
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
        if spec["actor_rng"] is not None:  # staleness mode: forked stream
            load_rng_state(algo._rng, spec["actor_rng"])
        vec_env = make_baseline_vector_env(
            spec["num_envs"],
            scenario=spec["scenario"],
            rewards=spec["rewards"],
        )
        episodes = spec["episodes"]
        schedule = spec["epsilon_schedule"]
        max_staleness = spec["max_staleness"]
        lockstep = max_staleness == 0
        actor_id = spec["actor_id"]
        num_actors = spec["num_actors"]
        # Lockstep replicates the whole universe on every actor; staleness
        # partitions it by stride.
        part_actors, part_id = (1, 0) if lockstep else (num_actors, actor_id)

        n = vec_env.num_envs
        universe, my_episodes = _idqn_episode_plan(episodes, n, part_actors, part_id)
        reset_seeds = episode_reset_seeds(spec["seed"], universe)
        episode_of_env = my_episodes[:n].copy()
        next_slot = n
        budget_count = int((my_episodes < episodes).sum())
        completed_budget = 0
        obs = vec_env.reset(seeds=[int(reset_seeds[e]) for e in episode_of_env])

        rows: list[dict] = []
        round_index = 0
        version = -1
        need_snapshot = True
        while not server.stop_requested:
            if completed_budget >= budget_count and not need_snapshot:
                # Budget drained and no round pending: idle until the
                # learner's stop flag rather than busy-stepping envs.
                time.sleep(0.01)
                continue
            if need_snapshot:
                try:
                    version, vectors, rng_words = server.read(
                        max(round_index - max_staleness, 0), abort=_parent_abort
                    )
                except RuntimeError:
                    if server.stop_requested:
                        break
                    raise
                bound.load(vectors["q"])
                if lockstep:
                    load_rng_state(algo._rng, rng_words[0])
                need_snapshot = False

            eps = np.array(
                [schedule(min(int(e), episodes - 1)) for e in episode_of_env]
            )
            algo.epsilon = float(eps[0]) if n == 1 else eps
            actions = algo.act_batch(obs, explore=True)
            next_obs, rewards, dones, infos = vec_env.step(actions)
            observed_next = next_obs
            if dones.any():
                observed_next = next_obs.copy()
                for i in np.flatnonzero(dones):
                    observed_next[i] = infos[i]["terminal_observation"]
            rows.append(
                {
                    "obs": np.array(obs, copy=True),
                    "actions": actions,
                    "rewards": np.array(rewards, copy=True),
                    "next_obs": np.array(observed_next, copy=True),
                    "dones": np.array(dones, copy=True),
                    "summaries": {
                        int(i): infos[i]["episode"] for i in np.flatnonzero(dones)
                    },
                }
            )
            obs = next_obs

            if any(episode_of_env[i] < episodes for i in np.flatnonzero(dones)):
                # Every replica ships every round; in lockstep the ship is
                # also the snapshot ack that keeps each replica's next
                # read at exactly version == round (see _hero_actor_main).
                payload = RolloutPayload(
                    round_index=round_index,
                    version_used=version,
                    data={"rows": rows},
                    rng_states=(
                        [encode_rng_state(algo._rng)] if lockstep else []
                    ),
                    actor_id=actor_id,
                )
                try:
                    queue.put(payload, abort=_parent_abort)
                except QueueClosed:
                    break
                rows = []
                round_index += 1
                need_snapshot = True
            elif completed_budget >= budget_count:
                # All owned budget episodes done: keep stepping (see the
                # docstring) but stop accumulating unshippable rows.
                rows = []

            # Mirror the learner's episode accounting (the learner has no
            # envs; the actor has no logger — both follow the same rule).
            for i in np.flatnonzero(dones):
                if int(episode_of_env[i]) < episodes:
                    completed_budget += 1
                if next_slot < len(my_episodes):
                    nxt = int(my_episodes[next_slot])
                    episode_of_env[i] = nxt
                    obs[i] = vec_env.reset_env(i, seed=int(reset_seeds[nxt]))
                else:
                    episode_of_env[i] = episodes  # out of budget: never counted
                next_slot += 1
    except Exception:
        try:
            queue.put(
                ActorError(
                    message=traceback.format_exc(),
                    actor_id=spec.get("actor_id", -1),
                ),
                timeout=5.0,
            )
        except Exception:
            pass
    finally:
        queue.release()
        server.release()


def train_marl_async(
    vec_env,
    algorithm: IndependentDQN,
    episodes: int,
    seed: int,
    epsilon_schedule,
    updates_per_episode: int,
    logger: MetricLogger,
    prefix: str,
    eval_every: int | None,
    eval_episodes: int,
    eval_vec_env,
    update_fn,
    engine=None,
    max_staleness: int = 0,
    num_actors: int = 1,
) -> MetricLogger:
    """IDQN training on the async actor–learner stack.

    Drop-in for ``_train_marl_vectorized_loop`` (same argument roles; the
    caller keeps ownership of ``eval_vec_env``): each of the ``num_actors``
    actor processes steps a fresh replica of ``vec_env``'s configuration,
    the learner replays the shipped transition rows into its own replay
    buffers and runs the update/logging/eval sequence under the identical
    episode accounting.  Lockstep fan-out replicates collection (only the
    round-robin owner ships, so results are bitwise independent of
    ``num_actors``); staleness fan-out stride-partitions the episode
    universe across actors for real collection parallelism.
    """
    if max_staleness < 0:
        raise ValueError(f"max_staleness must be >= 0, got {max_staleness}")
    if num_actors < 1:
        raise ValueError(f"num_actors must be >= 1, got {num_actors}")
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
    actor_streams = (
        None if lockstep else spawn_rngs(seed + _ACTOR_RNG_SALT, num_actors)
    )
    shared_spec = {
        "agent_ids": list(ids),
        "obs_dim": algorithm.obs_dim,
        "num_actions": algorithm.num_actions,
        "hidden_dim": _idqn_hidden_dim(algorithm),
        "scenario": vec_env.scenario,
        "rewards": vec_env.rewards,
        "num_envs": vec_env.num_envs,
        "episodes": episodes,
        "seed": seed,
        "epsilon_schedule": epsilon_schedule,
        "max_staleness": max_staleness,
        "num_actors": num_actors,
        "dtype": np.dtype(get_default_dtype()).name,
    }
    server.publish({"q": export()}, np.stack([encode_rng_state(algorithm._rng)]))
    processes = []
    for k in range(num_actors):
        spec = dict(
            shared_spec,
            actor_id=k,
            actor_rng=(
                None if lockstep else encode_rng_state(actor_streams[k])
            ),
        )
        processes.append(
            _CTX.Process(
                target=_idqn_actor_main,
                args=(spec, server, queues[k]),
                name=f"idqn-actor-{k}",
            )
        )
    for process in processes:
        process.start()

    try:
        n = vec_env.num_envs
        # Mirror each collecting actor's episode accounting (one shared
        # mirror in lockstep: the replicas all walk the full universe).
        part_actors = 1 if lockstep else num_actors
        mirrors = []
        for k in range(part_actors):
            _, mine = _idqn_episode_plan(episodes, n, part_actors, k)
            mirrors.append(
                {"mine": mine, "episode_of_env": mine[:n].copy(), "next_slot": n}
            )
        pending: dict[int, dict] = {}
        next_to_log = 0
        merged = 0
        abort = _actor_abort(processes)
        fan_in = ActorFanIn(queues)
        while next_to_log < episodes:
            if lockstep:
                # Drain one payload per replica, in rotation — the
                # lockstep barrier (see train_hero_async): each ship acks
                # its replica's snapshot consumption, so every replica
                # reads exactly version == round.  The round owner's copy
                # is replayed; the rest are bit-identical acks.
                round_payloads = []
                for _ in range(num_actors):
                    round_payloads.append(
                        _check_payload(
                            fan_in.get(expected=merged % num_actors, abort=abort)
                        )
                    )
                    merged += 1
                round_idx = merged // num_actors - 1
                payload = round_payloads[round_idx % num_actors]
                load_rng_state(algorithm._rng, payload.rng_states[0])
            else:
                payload = _check_payload(fan_in.get(abort=abort))
                merged += 1
                staleness = float(
                    max(payload.round_index - payload.version_used, 0)
                )
                logger.log(
                    f"{prefix}/snapshot_staleness", staleness, merged - 1
                )
                logger.log(
                    f"{prefix}/snapshot_staleness/actor{payload.actor_id}",
                    staleness,
                    payload.round_index,
                )
            mirror = mirrors[0] if lockstep else mirrors[payload.actor_id]
            episode_of_env = mirror["episode_of_env"]
            for row in payload.data["rows"]:
                algorithm.observe_batch(
                    row["obs"],
                    row["actions"],
                    row["rewards"],
                    row["next_obs"],
                    row["dones"],
                )
                for i in np.flatnonzero(row["dones"]):
                    episode = int(episode_of_env[i])
                    algorithm.end_episode()
                    if episode < episodes:
                        losses = None
                        for _ in range(updates_per_episode):
                            losses = update_fn()
                        summary = row["summaries"][int(i)]
                        entry = {
                            "metrics": {
                                f"{prefix}/episode_reward": summary["episode_reward"],
                                f"{prefix}/collision_rate": summary["collision"],
                                f"{prefix}/merge_success_rate": summary[
                                    "merge_success_rate"
                                ],
                                f"{prefix}/mean_speed": summary["mean_speed"],
                            },
                            "losses": {
                                f"{prefix}/{name}": value
                                for name, value in (losses or {}).items()
                            },
                            "eval": None,
                        }
                        if eval_every and (
                            episode % eval_every == 0 or episode == episodes - 1
                        ):
                            eval_metrics = evaluate_marl_vectorized(
                                eval_vec_env,
                                algorithm,
                                episodes=eval_episodes,
                                seed=seed + 500 + episode,
                            )
                            entry["eval"] = {
                                f"{prefix}/eval_episode_reward": eval_metrics[
                                    "episode_reward"
                                ],
                                f"{prefix}/eval_collision_rate": eval_metrics[
                                    "collision_rate"
                                ],
                                f"{prefix}/eval_merge_success_rate": eval_metrics[
                                    "success_rate"
                                ],
                                f"{prefix}/eval_mean_speed": eval_metrics[
                                    "mean_speed"
                                ],
                            }
                        pending[episode] = entry
                        while next_to_log in pending:
                            flushed = pending.pop(next_to_log)
                            logger.log_many(flushed["metrics"], next_to_log)
                            for name, value in flushed["losses"].items():
                                logger.log(name, value, next_to_log)
                            if flushed["eval"]:
                                logger.log_many(flushed["eval"], next_to_log)
                            next_to_log += 1
                    slot = mirror["next_slot"]
                    if slot < len(mirror["mine"]):
                        episode_of_env[i] = int(mirror["mine"][slot])
                    else:
                        episode_of_env[i] = episodes  # out of budget
                    mirror["next_slot"] += 1
            if next_to_log < episodes:
                server.publish(
                    {"q": export()}, np.stack([encode_rng_state(algorithm._rng)])
                )
        algorithm.epsilon = float(epsilon_schedule(episodes - 1))
        return logger
    finally:
        _shutdown(server, queues, processes)
