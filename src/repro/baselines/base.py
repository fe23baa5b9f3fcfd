"""Common interface and training loop for the end-to-end MARL baselines
(Sec. V-A).

All four baselines act on the *flattened, discretised* environment stack
(:func:`repro.envs.make_baseline_env`, vectorized as
:class:`~repro.envs.wrappers.VectorBaselineEnv`): per-agent flat
observations and a discrete grid of primitive (linear, angular) commands.
HERO's advantage in the paper comes precisely from not having to learn in
that flat space.

Training has one loop, :func:`train_marl_vectorized`, built from a
:class:`BaselineRolloutWorker` (collection rounds) and a
:class:`BaselineConsumer` (observe, update, log, record evaluations); the
async IDQN learner reuses both across processes.  The recorded
interleaved evaluations are scored after training by
:func:`score_marl_records` (:mod:`repro.utils.evaluation`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.update_engine import UpdateEngine, gather_family, scatter_family
from ..utils.evaluation import (
    EvalRecord,
    is_eval_point,
    log_scored_records,
    scored_reset_seeds,
    step_seeded_episodes,
    summarise_records,
)
from ..utils.logging_utils import (
    MetricLogger,
    episode_series,
    summarise_eval_episodes,
)
from ..utils.schedule import LinearSchedule
from ..utils.seeding import episode_partition, episode_reset_seeds


class MARLAlgorithm:
    """Interface every baseline implements.

    Acting and learning go through two methods, :meth:`act_batch` and
    :meth:`observe_batch`, which take stacked arrays from a
    :class:`~repro.envs.wrappers.VectorBaselineEnv`, one row per env; a
    gradient step is ``UpdateEngine(algorithm).update()``
    (:mod:`repro.core.update_engine`: fused families for IDQN, MADDPG
    and MAAC, COMA's own ``update`` behind a delegating engine).
    Training, the scoring of
    recorded evaluations, served evaluations, the async IDQN actors and
    the Table 2 testbed (:func:`evaluate_marl`, one
    ``(1, num_agents, obs_dim)`` row per step) all act through
    :meth:`act_batch`, which the in-tree baselines run on the
    gradient-free ``Sequential.infer`` paths.
    """

    name: str = "base"

    def __init__(self, agent_ids: list[str], obs_dim: int, num_actions: int):
        self.agent_ids = list(agent_ids)
        self.obs_dim = obs_dim
        self.num_actions = num_actions

    @property
    def num_agents(self) -> int:
        return len(self.agent_ids)

    def act_batch(self, observations: np.ndarray, explore: bool = True) -> np.ndarray:
        """Actions for a ``(num_envs, num_agents, obs_dim)`` observation stack.

        Returns integer actions of shape ``(num_envs, num_agents)``.  During
        training ``self.epsilon`` (when the algorithm has one) may be a
        ``(num_envs,)`` array — one exploration rate per env, since the
        envs run different episode indices of the schedule.  Greedy calls
        (``explore=False``) consume no RNG and read no epsilon.
        """
        raise NotImplementedError

    def observe_batch(
        self,
        observations: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_observations: np.ndarray,
        dones: np.ndarray,
    ) -> None:
        """Record a batch of transitions, one row per env.

        ``rewards`` and ``dones`` are ``(num_envs,)`` (the team reward is
        shared and every agent terminates with the env).  Rows of
        different envs interleave, so an on-policy method accumulates one
        episode per env, as :class:`~repro.baselines.coma.COMA` does.
        """
        raise NotImplementedError

    def acting_members(self) -> list:
        """The networks a greedy :meth:`act_batch` reads, as one flat-vector
        family (:func:`~repro.core.update_engine.gather_family`).  The
        async IDQN actors' parameter-server slot and the recorded
        interleaved evaluations copy them."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Persistence (the shared checkpoint contract)
    # ------------------------------------------------------------------
    # Every method in the repository — HeroTeam and all four baselines —
    # exposes the same state_dict()/load_state_dict()/save(path)/load(path)
    # quartet (see docs/SERVING.md).  The default below discovers every
    # network automatically: any Module attribute, plus Modules held in
    # dict/list/tuple attributes (IDQN's per-agent dicts, MADDPG/COMA's
    # per-agent lists), target networks included, so a round trip restores
    # the learner exactly.  Optimiser moments (held by a training call's
    # update engine) and replay buffers are excluded: checkpoints describe
    # the *policy*, and the serving stack (repro.serving) only ever loads
    # parameters.
    def named_modules(self) -> dict[str, "object"]:
        """Discover this algorithm's networks as ``{dotted_name: Module}``.

        Traverses ``vars(self)`` in attribute-definition order (which is
        deterministic per construction), descending one level into dicts,
        lists and tuples — the container shapes the in-tree baselines use.
        """
        from ..nn.module import Module

        modules: dict[str, Module] = {}
        for name, value in vars(self).items():
            if isinstance(value, Module):
                modules[name] = value
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Module):
                        modules[f"{name}.{key}"] = item
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        modules[f"{name}.{i}"] = item
        return modules

    def state_dict(self) -> dict[str, np.ndarray]:
        """All network parameters as ``{dotted_name: array}`` (copies)."""
        state: dict[str, np.ndarray] = {}
        for prefix, module in self.named_modules().items():
            for key, value in module.state_dict().items():
                state[f"{prefix}.{key}"] = value
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameters written by :meth:`state_dict` (strict)."""
        modules = self.named_modules()
        own_keys = set()
        for prefix, module in modules.items():
            for key, _ in module.named_parameters():
                own_keys.add(f"{prefix}.{key}")
        missing = own_keys - set(state)
        unexpected = set(state) - own_keys
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for prefix, module in modules.items():
            sub = {
                key[len(prefix) + 1:]: value
                for key, value in state.items()
                if key.startswith(f"{prefix}.")
            }
            module.load_state_dict(sub)

    def save(self, path) -> None:
        """Write all network parameters as one ``.npz`` archive."""
        np.savez(path, **self.state_dict())

    def load(self, path) -> None:
        """Restore an archive written by :meth:`save`."""
        with np.load(path) as archive:
            self.load_state_dict({name: archive[name] for name in archive.files})


def _episode_plan(episodes: int, n: int, num_actors: int, actor: int):
    """The episode universe of a rollout worker: ``(universe, order)``.

    ``universe`` is the size of the :func:`episode_reset_seeds` universe,
    padded so that every one of ``num_actors`` workers can seed its first
    batch of ``n`` envs; indices at or beyond ``episodes`` are
    warm-up/overflow episodes that are stepped but never counted.
    ``order`` holds the episode indices worker ``actor`` walks, in start
    order: its :func:`episode_partition` stride, which for one worker is
    the whole universe in order.
    """
    universe = max(episodes, n * num_actors)
    return universe, episode_partition(universe, num_actors, actor)


class BaselineRolloutWorker:
    """Collects a baseline's experience on a ``VectorBaselineEnv``.

    The baselines' counterpart of HERO's
    :class:`~repro.core.trainer.BatchedRolloutWorker`.  It owns the env
    batch, the per-episode reset seeds and exploration rates, and the
    episode index each env runs: env ``i`` always runs one episode ``e`` of
    the universe, reset with ``episode_reset_seeds(seed, universe)[e]`` and
    explored at ``epsilon_schedule(min(e, episodes - 1))``.  Each
    :meth:`collect` is one collection round.  The synchronous loop hands
    its rows to a :class:`BaselineConsumer` in-process; an async IDQN
    actor ships them to the learner's consumer.

    ``num_actors``/``actor`` restrict the worker to one
    :func:`~repro.utils.seeding.episode_partition` stride of the universe
    (a staleness-mode actor); the default walks all of it.
    """

    def __init__(
        self,
        vec_env,
        algorithm: MARLAlgorithm,
        episodes: int,
        seed: int,
        epsilon_schedule,
        num_actors: int = 1,
        actor: int = 0,
    ):
        n = vec_env.num_envs
        universe, self._order = _episode_plan(episodes, n, num_actors, actor)
        self.vec_env = vec_env
        self.algorithm = algorithm
        self.episodes = episodes
        self._epsilon_schedule = epsilon_schedule
        self._reset_seeds = episode_reset_seeds(seed, universe)
        self._episode_of_env = self._order[:n].copy()
        self._next_slot = n
        self._budget_left = int((self._order < episodes).sum())
        self._obs = vec_env.reset(
            seeds=[int(self._reset_seeds[e]) for e in self._episode_of_env]
        )

    @property
    def exhausted(self) -> bool:
        """Whether every budget episode this worker owns has finished."""
        return self._budget_left == 0

    def collect(self) -> list[dict]:
        """Step the batch until a budget episode finishes; return the rows.

        One row per step: ``obs``, ``actions``, ``rewards``, ``next_obs``
        and ``dones`` as ``observe_batch`` takes them (done rows of
        ``next_obs`` hold the terminal observation, as the stored
        transition must), plus ``finished``, an ``(episode, summary)`` pair
        per finished env in env order.  A finished env starts its next
        seeded episode, or idles on the auto-reset rollout once the
        worker's universe is used up.  Call it only while not
        :attr:`exhausted`.
        """
        algorithm, vec_env, episodes = self.algorithm, self.vec_env, self.episodes
        n = vec_env.num_envs
        rows: list[dict] = []
        while True:
            if hasattr(algorithm, "epsilon"):
                eps = np.array(
                    [
                        self._epsilon_schedule(min(int(e), episodes - 1))
                        for e in self._episode_of_env
                    ]
                )
                algorithm.epsilon = float(eps[0]) if n == 1 else eps
            obs = self._obs
            actions = algorithm.act_batch(obs, explore=True)
            next_obs, rewards, dones, infos = vec_env.step(actions)
            done_rows = np.flatnonzero(dones)
            observed_next = next_obs
            if len(done_rows):
                observed_next = next_obs.copy()
                for i in done_rows:
                    observed_next[i] = infos[i]["terminal_observation"]
            finished = [
                (int(self._episode_of_env[i]), infos[i]["episode"]) for i in done_rows
            ]
            rows.append(
                {
                    "obs": obs,
                    "actions": actions,
                    "rewards": rewards,
                    "next_obs": observed_next,
                    "dones": dones,
                    "finished": finished,
                }
            )
            self._obs = next_obs
            for i in done_rows:
                if self._next_slot < len(self._order):
                    episode = int(self._order[self._next_slot])
                    next_obs[i] = vec_env.reset_env(
                        i, seed=int(self._reset_seeds[episode])
                    )
                else:
                    episode = episodes  # out of the universe: never counted
                self._episode_of_env[i] = episode
                self._next_slot += 1
            budget = sum(episode < episodes for episode, _ in finished)
            if budget:
                self._budget_left -= budget
                return rows


@dataclass
class BaselineConsumer:
    """Trains a baseline on collected rows: observe, update, log, record.

    Takes each row through ``observe_batch``, then for each finished budget
    episode runs the update budget and the episode metrics, and (every
    ``eval_every`` episodes, and at the last) records a greedy evaluation
    seeded ``seed + 500 + episode``: an
    :class:`~repro.utils.evaluation.EvalRecord` of the algorithm's
    :meth:`~MARLAlgorithm.acting_members` at that instant, all under that
    episode's index.  Episode metrics reach the logger strictly in episode
    order, so a batch that finishes episodes out of order logs the series
    one env would.  :meth:`score` scores the records on batches from
    ``build_batch`` (a :meth:`VectorBaselineEnv.replica_builder`) once
    training is done.  The synchronous loop and the async IDQN learner
    both consume through it.
    """

    algorithm: MARLAlgorithm
    episodes: int
    seed: int
    update_fn: Callable
    updates_per_episode: int
    logger: MetricLogger
    prefix: str
    eval_every: int | None
    eval_episodes: int
    build_batch: Callable | None
    records: list = field(default_factory=list, init=False)
    _pending: dict = field(default_factory=dict, init=False)
    _next_to_log: int = field(default=0, init=False)

    @property
    def done(self) -> bool:
        """Whether every budget episode has been logged."""
        return self._next_to_log >= self.episodes

    def consume(self, rows: list[dict]) -> None:
        algorithm = self.algorithm
        for row in rows:
            algorithm.observe_batch(
                row["obs"], row["actions"], row["rewards"], row["next_obs"], row["dones"]
            )
            for episode, summary in row["finished"]:
                if episode < self.episodes:
                    self._finish(episode, summary)

    def _finish(self, episode: int, summary: dict) -> None:
        losses = None
        for _ in range(self.updates_per_episode):
            losses = self.update_fn()
        series = episode_series(self.prefix, summary)
        for name, value in (losses or {}).items():
            series[f"{self.prefix}/{name}"] = value
        if is_eval_point(episode, self.eval_every, self.episodes):
            self.records.append(
                EvalRecord(
                    step=episode,
                    seed=self.seed + 500 + episode,
                    vectors=gather_family(self.algorithm.acting_members()),
                )
            )
        self._pending[episode] = series
        while self._next_to_log in self._pending:
            self.logger.log_many(self._pending.pop(self._next_to_log), self._next_to_log)
            self._next_to_log += 1

    def score(self) -> None:
        """Score every record and log its ``{prefix}/eval_*`` series at its
        step, in step order."""
        log_scored_records(
            self.records,
            lambda batch: score_marl_records(
                self.build_batch, self.algorithm, batch, self.eval_episodes
            ),
            self.logger,
            self.prefix,
        )
        self.records.clear()


def score_marl_records(
    build_batch, algorithm: MARLAlgorithm, records: list[EvalRecord], episodes: int
) -> list[dict[str, float]]:
    """Greedy metrics of each record, from one rollout of all of them.

    ``build_batch`` is a :meth:`VectorBaselineEnv.replica_builder` (the
    caller's traffic, track and command grid); it builds one batch of
    ``len(records) * episodes`` envs without auto-reset, where env
    ``k * episodes + j`` runs episode ``j`` of ``records[k]`` once, from
    that record's seeds (:func:`~repro.utils.evaluation.scored_reset_seeds`).
    Each step, every record with an unfinished episode loads its vector
    into the algorithm's acting members and calls ``act_batch(...,
    explore=False)`` on its own ``episodes`` rows, the calls a stand-alone
    :func:`evaluate_marl_vectorized` on ``episodes`` envs makes, so a
    record's metrics do not depend on which records share the batch.  The
    live parameters are restored exactly, also when acting raises.
    """
    seeds = scored_reset_seeds(records, episodes)
    vec_env = build_batch(len(seeds), auto_reset=False)
    obs = vec_env.reset(seeds)
    members = algorithm.acting_members()
    live = gather_family(members)
    actions = np.zeros((vec_env.num_envs, algorithm.num_agents), dtype=np.int64)

    def act(obs, scoring):
        for k, record in enumerate(records):
            rows = slice(k * episodes, (k + 1) * episodes)
            if scoring[rows].any():
                scatter_family(members, record.vectors)
                actions[rows] = algorithm.act_batch(obs[rows], explore=False)
        return actions

    try:
        summaries = step_seeded_episodes(vec_env, obs, seeds, act)
    finally:
        scatter_family(members, live)
    return summarise_records(summaries, episodes)


def train_marl_vectorized(
    vec_env,
    algorithm: MARLAlgorithm,
    episodes: int,
    seed: int = 0,
    epsilon_start: float = 1.0,
    epsilon_end: float = 0.05,
    epsilon_decay_episodes: int | None = None,
    updates_per_episode: int = 1,
    logger: MetricLogger | None = None,
    metric_prefix: str | None = None,
    eval_every: int | None = None,
    eval_episodes: int = 3,
    async_actors: bool = False,
    max_staleness: int = 0,
    num_actors: int = 1,
) -> MetricLogger:
    """Train a baseline on a ``VectorBaselineEnv``, recording the paper's
    four metrics per episode.

    The one training loop of the baselines, at any batch size (the CLI's
    default ``--num-envs 1`` included): a :class:`BaselineRolloutWorker`
    collects and a :class:`BaselineConsumer` trains, both through the
    batched interface only (``act_batch``, ``observe_batch``), with every
    gradient step through one :class:`~repro.core.update_engine.UpdateEngine`
    over ``algorithm``: IDQN's per-agent DQNs update as one stacked family,
    and MADDPG/MAAC run their actor steps through the cross-family VJP
    against frozen stacked critics.  Only COMA (whole variable-length
    episodes, no fixed family shape) delegates to its own ``update``.  The
    engine, and with it the optimiser state, lives for this call.
    Works for both off-policy (per-episode batched updates) and on-policy
    (COMA queues each env's episode in ``observe_batch``) baselines.
    Episode accounting is per env: env ``i`` always runs a specific episode
    index, whose reset seed and exploration epsilon are pure functions of
    that index, and each finished episode triggers the update budget, the
    logging and the greedy eval under its own index (flushed in episode
    order).  More envs change only experience collection: once the episode
    budget is exhausted, still-running envs keep feeding the replay buffers
    until their last counted episode finishes.

    ``eval_every`` (default: episodes // 40) interleaves short greedy
    evaluations of ``eval_episodes`` episodes, logged under
    ``{prefix}/eval_*``: the exploration-free curves Fig. 7 plots.
    Training does not stop for them: each cadence point records its
    episode, seed and acting parameters, and after the last episode
    :func:`score_marl_records` scores every record in one wide greedy
    rollout on batches built by :meth:`VectorBaselineEnv.replica_builder`,
    so scoring sees the caller's traffic, track and command grid.  The
    builder is made up front, so an env subclass raises ``ValueError``
    before the first episode.

    ``async_actors`` moves the rollout phase into separate actor processes
    on the async actor–learner stack
    (:func:`~repro.distributed.actor_learner.train_marl_async`); only IDQN
    supports it (other baselines fall back to this synchronous loop with a
    warning: only IDQN has an actor rollout worker, the actor stack's
    ``_idqn_worker``).  ``max_staleness=0`` is a lockstep barrier, bitwise
    identical to the synchronous loop; larger values let the actors run
    ahead of the newest policy snapshot by that many collection rounds.
    ``num_actors`` fans collection out to that many actor processes, a
    stride partition of the same episode/seed universe; it needs
    ``max_staleness > 0`` (lockstep runs one actor).
    """
    logger = logger or MetricLogger()
    prefix = metric_prefix or algorithm.name
    update_fn = UpdateEngine(algorithm).update
    if async_actors:
        from .idqn import IndependentDQN

        if not isinstance(algorithm, IndependentDQN):
            warnings.warn(
                f"async_actors supports IDQN only; {algorithm.name} falls "
                "back to the synchronous vectorized loop",
                RuntimeWarning,
                stacklevel=2,
            )
            async_actors = False
    epsilon_schedule = LinearSchedule(
        epsilon_start, epsilon_end, epsilon_decay_episodes or max(episodes // 2, 1)
    )
    if eval_every is None:
        eval_every = max(episodes // 40, 1)
    build_batch = vec_env.replica_builder() if eval_every else None
    if not vec_env.fast_path:
        warnings.warn(
            "VectorBaselineEnv is stepping on the scalar fallback "
            f"({vec_env.fallback_reason}); training is correct but "
            "--num-envs will not speed it up",
            RuntimeWarning,
            stacklevel=2,
        )

    consumer = BaselineConsumer(
        algorithm,
        episodes,
        seed,
        update_fn,
        updates_per_episode,
        logger,
        prefix,
        eval_every,
        eval_episodes,
        build_batch,
    )
    if async_actors:
        from ..distributed.actor_learner import train_marl_async

        train_marl_async(
            vec_env,
            algorithm,
            episodes,
            seed,
            epsilon_schedule,
            consumer,
            max_staleness=max_staleness,
            num_actors=num_actors,
        )
    else:
        worker = BaselineRolloutWorker(
            vec_env, algorithm, episodes, seed, epsilon_schedule
        )
        while not consumer.done:
            consumer.consume(worker.collect())
    consumer.score()
    if hasattr(algorithm, "epsilon"):
        algorithm.epsilon = float(epsilon_schedule(episodes - 1))
    return logger


def evaluate_marl(
    env, algorithm: MARLAlgorithm, episodes: int, seed: int = 0
) -> dict[str, float]:
    """Greedy evaluation with the paper's Table II metrics on one scalar
    env (dict in, dict out), such as the Table 2 testbed stack.

    Each step's actions come from ``algorithm.act_batch`` on the
    ``(1, num_agents, obs_dim)`` stack of the agents' observations, the
    one acting path of every baseline.  Episode reset seeds come from one
    ``SeedSequence`` spawn (:func:`repro.utils.seeding.episode_reset_seeds`),
    so evaluation episode ``e`` is a pure function of ``(seed, e)`` and
    :func:`evaluate_marl_vectorized` — which finishes episodes out of
    order — can replay the identical seed stream.
    """
    agent_ids = algorithm.agent_ids
    reset_seeds = episode_reset_seeds(seed, episodes)
    summaries = []
    for episode in range(episodes):
        obs = env.reset(seed=int(reset_seeds[episode]))
        done = False
        info: dict = {}
        while not done:
            stack = np.stack([obs[agent] for agent in agent_ids])[None]
            actions = algorithm.act_batch(stack, explore=False)[0]
            obs, _, dones, info = env.step(dict(zip(agent_ids, actions.tolist())))
            done = dones["__all__"]
        summaries.append(info["episode"])
    return summarise_eval_episodes(summaries)


def evaluate_marl_vectorized(
    vec_env, algorithm: MARLAlgorithm, episodes: int, seed: int = 0
) -> dict[str, float]:
    """Greedy evaluation over a ``VectorBaselineEnv``.

    Steps the env batch with ``algorithm.act_batch(..., explore=False)``
    (no exploration RNG, no replay-buffer writes — identical side-effect
    profile to the scalar :func:`evaluate_marl`).  Per-env episode accounting scores exactly
    ``episodes`` completed episodes: env ``i`` always runs a specific
    evaluation-episode index whose reset seed comes from the same
    ``SeedSequence`` spawn as the scalar evaluator's, and summaries are
    accumulated by episode index so the means aggregate the identical
    episode set in the identical order.  At ``num_envs=1`` the result is
    **bit-for-bit** equal to :func:`evaluate_marl`; at larger batches the
    only difference is last-ulp float noise from batched network forwards,
    so results are statistically identical.
    """
    reset_seeds = episode_reset_seeds(seed, episodes)
    # Envs beyond the episode budget run unseeded and are never scored.
    obs = vec_env.reset(
        [int(reset_seeds[i]) if i < episodes else None for i in range(vec_env.num_envs)]
    )
    summaries = step_seeded_episodes(
        vec_env, obs, reset_seeds, lambda obs, _: algorithm.act_batch(obs, explore=False)
    )
    return summarise_eval_episodes(summaries)
