"""Training loops for HERO (Algorithms 1 and 2 of the paper).

:func:`train_low_level_skills` runs Algorithm 2 for both skills;
:func:`train_hero` runs Algorithm 1 on the cooperative lane-change game,
recording the paper's four evaluation metrics per episode.  At every
``num_envs`` (one included) the rollout phase runs on a
:class:`~repro.envs.vector_env.VectorEnv` through
:class:`BatchedRolloutWorker`, which collects rounds of experience with
batched policy inference for a per-episode consumer to store and train
on.  The consumer records each interleaved greedy evaluation at its
cadence point, and :func:`score_hero_records` scores the records after
training in one wide greedy rollout (:mod:`repro.utils.evaluation`).

Evaluation seeding: both evaluators derive episode reset seeds from one
``SeedSequence`` spawn (:func:`repro.utils.seeding.episode_reset_seeds`),
so evaluation episode ``e`` is a pure function of ``(seed, e)`` — the
vectorized evaluator, which finishes episodes out of order, replays the
exact seed stream of :func:`evaluate_hero` (a one-env runner over the
caller's scalar env) and is bit-for-bit equal to it at ``num_envs=1``
(``tests/test_eval_vectorized.py`` locks this in).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import TrainingConfig
from ..envs.lane_change_env import CooperativeLaneChangeEnv
from ..envs.skill_envs import LaneChangeEnv, LaneKeepingEnv, low_level_obs_dim
from ..envs.stepping import PoseStepper
from ..envs.vector_env import EnvReplicaFactory, VectorEnv
from ..nn import get_default_dtype
from ..utils.evaluation import (
    EvalRecord,
    is_eval_point,
    log_scored_records,
    scored_reset_seeds,
    step_seeded_episodes,
    summarise_records,
)
from ..utils.jobs import Job, run_jobs
from ..utils.logging_utils import (
    MetricLogger,
    episode_series,
    summarise_eval_episodes,
)
from ..utils.schedule import LinearSchedule
from ..utils.seeding import episode_reset_seeds
from .batched import BatchedHeroRunner
from .hero import HeroTeam
from .low_level import SkillLibrary, train_skill
from .update_engine import UpdateEngine, gather_family, scatter_family


def train_low_level_skills(
    config: TrainingConfig,
    episodes: int,
    skills: SkillLibrary | None = None,
    logger: MetricLogger | None = None,
) -> tuple[SkillLibrary, MetricLogger]:
    """Algorithm 2: train driving-in-lane and lane-change skills with SAC.

    The two skills are trained in separate environments with their own
    intrinsic reward functions ("we create parallel training environments
    with different intrinsic reward functions"), side by side through
    :func:`repro.utils.jobs.run_jobs`: with two usable CPUs lane change,
    the shorter skill, trains in one child process while this process
    trains lane keeping.  With one usable CPU, or inside a daemonic
    process (a ``multiprocessing.Pool`` worker), the two skills train one
    after the other here.

    The result is bitwise that of training the skills one after the other
    with two :func:`~repro.core.low_level.train_skill` calls: the skills
    share no state.  ``skills.driving_in_lane`` is trained in place.
    ``skills.lane_change`` is replaced by the agent the child trained (its
    parameters, ``log_alpha``, RNG state and replay buffer; the optimiser
    moments live in each ``train_skill`` call's engine), and the child's
    series are appended to ``logger`` after lane keeping's, as sequential
    training logs them.  A child that raises or dies raises
    ``RuntimeError`` here, naming the skill; the child is joined on every
    path.
    """
    logger = logger or MetricLogger()
    rng = np.random.default_rng(config.seed)
    obs_dim = low_level_obs_dim(config.scenario)
    skills = skills or SkillLibrary(obs_dim, rng, hyper=config.hyper)
    keeping = (
        skills.driving_in_lane, LaneKeepingEnv, config, episodes, config.seed,
        "lane_keeping",
    )
    change = (
        skills.lane_change, LaneChangeEnv, config, episodes, config.seed + 1,
        "lane_change",
    )
    (skills.driving_in_lane, keeping_log), (skills.lane_change, change_log) = run_jobs(
        [
            Job("lane_keeping", _train_one_skill, keeping),
            Job("lane_change", _train_one_skill, change),
        ]
    )
    logger.extend(keeping_log)
    logger.extend(change_log)
    return skills, logger


def _train_one_skill(
    agent, env_cls, config: TrainingConfig, episodes: int, seed: int, log_prefix: str
) -> tuple:
    """One :func:`train_skill` run on a fresh skill env; returns the trained
    agent and its series."""
    logger = train_skill(
        env_cls(config.scenario, config.rewards),
        agent,
        episodes=episodes,
        seed=seed,
        log_prefix=log_prefix,
    )
    return agent, logger


class BatchedRolloutWorker:
    """Collects HERO's experience from vectorized rollouts.

    Wraps a :class:`~repro.envs.vector_env.VectorEnv` and a
    :class:`~repro.core.batched.BatchedHeroRunner`; every call to
    :meth:`collect` advances all environments synchronously with batched
    policy inference and returns one round: the episodes that finished,
    tagged with the episode index each env was running (so per-episode
    schedules such as epsilon annealing stay well defined), and the
    round's experience, which the round's consumer stores.
    """

    def __init__(
        self,
        vec_env: VectorEnv,
        team: HeroTeam,
        runner: BatchedHeroRunner | None = None,
    ):
        self.vec_env = vec_env
        self.team = team
        self.runner = runner or BatchedHeroRunner(team, vec_env)
        self._obs: dict[str, np.ndarray] | None = None
        self._episode_of_env = np.arange(vec_env.num_envs)
        self._episodes_started = vec_env.num_envs

    @property
    def episode_indices(self) -> np.ndarray:
        """Episode index each env is currently rolling out."""
        return self._episode_of_env

    def reset(self, seeds=None) -> None:
        self._obs = self.vec_env.reset(seeds)
        self.runner.start_all()
        self._episode_of_env = np.arange(self.vec_env.num_envs)
        self._episodes_started = self.vec_env.num_envs

    def collect(self, epsilon_schedule) -> tuple[list[dict], list[tuple]]:
        """Step the vector env until at least one episode finishes.

        ``epsilon_schedule`` maps an episode index to an exploration rate.
        Returns the round ``(stats, experience)``: the finished episodes'
        stats (see :meth:`BatchedHeroRunner.after_step`) with
        ``"episode_index"`` and ``"epsilon"`` entries added, and every
        step's experience in order, each as
        :meth:`~repro.core.hero.HeroTeam.store` takes it.
        """
        if self._obs is None:
            self.reset()
        experience = []
        while True:
            epsilon = np.array(
                [epsilon_schedule(int(e)) for e in self._episode_of_env]
            )
            actions = self.runner.act(self._obs, epsilon=epsilon)
            self._obs, rewards, dones, infos = self.vec_env.step(actions)
            stats, step = self.runner.after_step(self._obs, rewards, dones, infos)
            experience.append(step)
            for stat in stats:
                env_index = stat["env"]
                stat["episode_index"] = int(self._episode_of_env[env_index])
                stat["epsilon"] = float(epsilon[env_index])
                self._episode_of_env[env_index] = self._episodes_started
                self._episodes_started += 1
            if stats:
                return stats, experience


def train_hero(
    env: CooperativeLaneChangeEnv,
    team: HeroTeam,
    episodes: int,
    config: TrainingConfig | None = None,
    logger: MetricLogger | None = None,
    updates_per_episode: int | None = None,
    metric_prefix: str = "hero",
    eval_every: int | None = None,
    eval_episodes: int = 3,
    num_envs: int | None = None,
    async_actors: bool | None = None,
    max_staleness: int | None = None,
    num_actors: int | None = None,
    checkpoint_path: str | None = None,
) -> MetricLogger:
    """Algorithm 1: train the high-level cooperative strategy.

    Per episode: roll out with asynchronous option selection, store SMDP
    transitions and opponent observations, then run gradient updates for
    every agent through one
    :class:`~repro.core.update_engine.UpdateEngine` over the team: all
    agents' critics, actors and opponent predictors update as three
    stacked network families (target nets by the engine's soft update).
    The engine, and with it the optimiser state, lives for this call.

    ``eval_every`` (default: episodes // 40) interleaves short greedy
    evaluations of ``eval_episodes`` episodes and logs them as
    ``{prefix}/eval_*`` — these are the exploration-free learning curves
    Fig. 7 plots.  Training does not stop for them: each cadence point
    records its step, seed and acting parameters, and after the last
    episode :func:`score_hero_records` scores every record in one wide
    greedy rollout on replicas of ``env``, before this function returns
    and before ``checkpoint_path`` is written.  The values are those of
    evaluating at the cadence point; at ``num_envs=1`` they may differ
    from a one-env evaluation in the last ulp (the skill forwards run on
    the wide batch, and BLAS is not row-stable across batch sizes).

    Rollouts come from ``num_envs`` vectorized copies of ``env`` (default
    ``config.num_envs``; one copy is a one-env batch) with batched policy
    inference; updates, logging and evaluation cadence stay per-episode.
    The copies share ``env``'s track and traffic, and an ``env`` subclass
    raises ``ValueError`` (see
    :meth:`~repro.envs.vector_env.EnvReplicaFactory.from_env`).  A team
    built with a :class:`~repro.distributed.DistributedObservationService`
    learns its opponents' options over that delayed, lossy bus (the DTDE
    setting) at any ``num_envs``.

    ``async_actors`` (default ``config.async_actors``) moves the rollout
    phase into a separate actor process on the async actor–learner stack
    (:func:`~repro.distributed.actor_learner.train_hero_async`): the
    actor acts on versioned policy snapshots from a shared-memory
    parameter server and ships experience back through a transition
    queue; the learner records the interleaved evaluations as the
    synchronous loop does, and they are scored once it returns.
    ``max_staleness`` (default
    ``config.max_staleness``) bounds how many collection rounds the actor
    may run ahead of the newest snapshot — 0 is a lockstep barrier,
    bitwise identical to the synchronous path; larger values overlap
    rollout and update and log per-round snapshot staleness.  ``num_actors`` (default
    ``config.num_actors``) fans the rollout phase out to that many actor
    processes, which needs ``max_staleness > 0`` (lockstep runs one
    actor; more raise ``ValueError``): each actor steps its own env batch
    on forked RNG streams and collection throughput scales with the
    actor count.  Actor ``k``'s ``e``-th episode explores at the
    schedule's episode ``k + num_actors * e``, so the actors together
    anneal epsilon once, as one actor does.  The actors run without a
    bus, so a team with an observation service raises ``ValueError``.

    ``checkpoint_path`` (optional) writes the trained team as a versioned
    serving checkpoint (:func:`repro.serving.save_checkpoint`) once
    training finishes, synchronous or async, so ``repro serve`` /
    :func:`repro.load_policy` can pick it up without the training harness.
    """
    config = config or TrainingConfig()
    if num_envs is None:
        num_envs = config.num_envs
    if async_actors is None:
        async_actors = config.async_actors
    if max_staleness is None:
        max_staleness = config.max_staleness
    if num_actors is None:
        num_actors = config.num_actors
    update_fn = UpdateEngine(team).update
    logger = logger or MetricLogger()
    rng = np.random.default_rng(config.seed + 12345)
    epsilon_schedule = LinearSchedule(
        config.epsilon_start, config.epsilon_end, config.epsilon_decay_episodes
    )
    n_updates = (
        updates_per_episode
        if updates_per_episode is not None
        else config.updates_per_episode
    )
    if eval_every is None:
        eval_every = max(episodes // 40, 1)
    # Replicas share the caller's track and traffic, so custom traffic
    # falls through to VectorEnv's scalar fallback instead of being
    # swapped for the defaults; env subclasses are rejected.
    factory = EnvReplicaFactory.from_env(env)
    consumer = _HeroEpisodeConsumer(
        env, team, episodes, n_updates, update_fn, logger, metric_prefix,
        eval_every, eval_episodes, config,
    )
    if async_actors:
        from ..distributed.actor_learner import train_hero_async

        train_hero_async(
            env,
            team,
            consumer,
            num_envs=num_envs,
            rng=rng,
            epsilon_schedule=epsilon_schedule,
            config=config,
            max_staleness=max_staleness,
            num_actors=num_actors,
        )
    else:
        worker = BatchedRolloutWorker(_hero_vector_env(factory, num_envs), team)
        worker.reset([int(rng.integers(0, 2**31 - 1)) for _ in range(num_envs)])
        while not consumer.done:
            consumer.consume(worker.collect(epsilon_schedule))
    consumer.score(factory)
    if checkpoint_path is not None:
        from ..serving.checkpoint import save_checkpoint

        save_checkpoint(
            checkpoint_path,
            team,
            scenario=env.scenario,
            rewards=env.rewards,
            hyper=config.hyper,
            extra={"seed": config.seed},
        )
    return logger


@dataclass
class _HeroEpisodeConsumer:
    """The per-episode step of every HERO training loop.

    :meth:`consume` takes a collection round as
    :meth:`BatchedRolloutWorker.collect` returns it, writes its experience
    into the team (:meth:`~repro.core.hero.HeroTeam.store`, one step at a
    time) and then, for each finished episode's stats (``episode``
    summary, ``epsilon``, ``lane_change_attempts``), runs the update
    budget and logs the episode's metrics, all under a running
    completed-episode counter.  Every ``eval_every`` episodes and at the
    last it records a greedy evaluation seeded
    ``config.seed + 500 + episode``: an
    :class:`~repro.utils.evaluation.EvalRecord` of the team's acting
    families and last-observed options at that instant.  :meth:`score`
    scores the records once training is done.  The synchronous loop and
    the async learner both consume through it.
    """

    env: CooperativeLaneChangeEnv
    team: HeroTeam
    episodes: int
    n_updates: int
    update_fn: Callable
    logger: MetricLogger
    prefix: str
    eval_every: int | None
    eval_episodes: int
    config: TrainingConfig
    completed: int = field(default=0, init=False)
    records: list = field(default_factory=list, init=False)
    _losses: dict = field(default_factory=dict, init=False)

    @property
    def done(self) -> bool:
        return self.completed >= self.episodes

    def consume(self, collected: tuple[list[dict], list[tuple]]) -> None:
        stats, experience = collected
        for step in experience:
            self.team.store(step)
        for stat in stats:
            if self.done:
                break
            for _ in range(self.n_updates):
                self._losses = self.update_fn()
            self._log_episode(stat)
            if is_eval_point(self.completed, self.eval_every, self.episodes):
                self.records.append(self._record())
            self.completed += 1

    def _log_episode(self, stat: dict) -> None:
        prefix, episode = self.prefix, self.completed
        series = episode_series(prefix, stat["episode"])
        series[f"{prefix}/epsilon"] = stat["epsilon"]
        series[f"{prefix}/lane_change_attempts"] = float(stat["lane_change_attempts"])
        self.logger.log_many(series, episode)
        if self._losses:
            # Log a stable subset: the first agent's core losses.
            first = self.env.agents[0]
            for name in ("critic_loss", "actor_loss"):
                key = f"{first}/{name}"
                if key in self._losses:
                    self.logger.log(f"{prefix}/{name}", self._losses[key], episode)
            for key, value in self._losses.items():
                if "_nll" in key:
                    self.logger.log(f"{prefix}/{key}", value, episode)

    def _record(self) -> EvalRecord:
        return EvalRecord(
            step=self.completed,
            seed=self.config.seed + 500 + self.completed,
            vectors={
                name: gather_family(members)
                for name, members in self.team.acting_families().items()
            },
            last_observed=[
                agent.high_level._last_observed_options.copy()
                for agent in self.team.agents.values()
            ],
        )

    def score(self, factory: EnvReplicaFactory) -> None:
        """Score every record on replicas from ``factory`` and log its
        ``{prefix}/eval_*`` series at its step."""
        log_scored_records(
            self.records,
            lambda batch: score_hero_records(
                factory, self.team, batch, self.eval_episodes
            ),
            self.logger,
            self.prefix,
        )
        self.records.clear()


def _hero_vector_env(
    factory: EnvReplicaFactory, num_envs: int, auto_reset: bool = True
) -> VectorEnv:
    """``num_envs`` replicas of one env, warning when they step on the
    scalar fallback (the warning shows once per fallback reason)."""
    vec_env = VectorEnv(num_envs, env_fns=[factory] * num_envs, auto_reset=auto_reset)
    if not vec_env.fast_path:
        warnings.warn(
            "vectorized HERO rollouts are stepping on the scalar fallback "
            f"({vec_env.fallback_reason}); training is correct but "
            "--num-envs will not speed it up",
            RuntimeWarning,
        )
    return vec_env


def score_hero_records(
    factory: EnvReplicaFactory,
    team: HeroTeam,
    records: list[EvalRecord],
    episodes: int,
) -> list[dict[str, float]]:
    """Greedy metrics of each record, from one rollout of all of them.

    Builds one :class:`VectorEnv` of ``len(records) * episodes`` replicas
    from ``factory`` (the caller's traffic, track and scenario) without
    auto-reset: env ``k * episodes + j`` runs episode ``j`` of
    ``records[k]`` once, from that record's seeds
    (:func:`~repro.utils.evaluation.scored_reset_seeds`).  Each record's
    rows choose their options at episode start with the record's acting
    families and last-observed options loaded into ``team``
    (:meth:`BatchedHeroRunner.select_options`); then every row runs its
    skill to the end of its episode through the runner's usual batched
    forwards, as :func:`evaluate_hero_vectorized` does.  The team's live
    acting parameters and last-observed options are restored exactly,
    also when a selection raises.  Nothing is stored and the team's bus
    is neither exchanged over nor reset.  One record of one episode is
    bitwise :func:`evaluate_hero` on a scalar env of the scenario.
    """
    seeds = scored_reset_seeds(records, episodes)
    vec_env = _hero_vector_env(factory, len(seeds), auto_reset=False)
    runner = BatchedHeroRunner(team, vec_env)
    obs = vec_env.reset(seeds)
    families = team.acting_families()
    highs = [agent.high_level for agent in team.agents.values()]
    live = {name: gather_family(members) for name, members in families.items()}
    live_observed = [high._last_observed_options for high in highs]
    try:
        for k, record in enumerate(records):
            for name, members in families.items():
                scatter_family(members, record.vectors[name])
            for high, observed in zip(highs, record.last_observed):
                high._last_observed_options = observed
            runner.select_options(obs, slice(k * episodes, (k + 1) * episodes))
    finally:
        for name, members in families.items():
            scatter_family(members, live[name])
        for high, observed in zip(highs, live_observed):
            high._last_observed_options = observed
    # Every row holds its record's options now.  The skills are not among
    # the recorded families, so the rest of the rollout acts on the live
    # team.
    summaries = step_seeded_episodes(
        vec_env, obs, seeds, lambda obs, _: runner.act(obs, epsilon=0.0, explore=False)
    )
    return summarise_records(summaries, episodes)


def evaluate_hero(
    env: CooperativeLaneChangeEnv,
    team: HeroTeam,
    episodes: int,
    seed: int = 0,
) -> dict[str, float]:
    """Greedy evaluation on a scalar env, returning Table II style metrics.

    ``env`` is any scalar env of the team's scenario — the env the team
    was built over, another copy, or a wrapper such as the Table 2
    :class:`~repro.envs.testbed.RealWorldTestbed` that forwards
    ``vehicle(agent)``.  It acts through a one-env
    :class:`BatchedHeroRunner` over a :class:`~repro.envs.stepping.PoseStepper`
    that reads each step's exact poses from ``env`` itself; observations
    are cast to the compute dtype, as :class:`VectorEnv` casts them.

    Episode reset seeds come from one ``SeedSequence`` spawn
    (:func:`repro.utils.seeding.episode_reset_seeds`), so evaluation
    episode ``e`` is a pure function of ``(seed, e)`` and
    :func:`evaluate_hero_vectorized` — which finishes episodes out of
    order — replays the identical seed stream (at ``num_envs=1`` over the
    same scenario, bit for bit).
    """
    reset_seeds = episode_reset_seeds(seed, episodes)
    poses = PoseStepper(team.env, 1)
    runner = BatchedHeroRunner(team, poses)
    agents, dtype = runner.agents, get_default_dtype()
    summaries = []
    for episode in range(episodes):
        obs = env.reset(seed=int(reset_seeds[episode]))
        runner.start_episode(0)
        done = False
        info: dict = {}
        while not done:
            poses.read_poses(env)
            batch = {
                key: np.asarray([[obs[a][key] for a in agents]], dtype=dtype)
                for key in obs[agents[0]]
            }
            actions = runner.act(batch, epsilon=0.0, explore=False)[0]
            obs, _, dones, info = env.step(dict(zip(agents, actions)))
            done = dones["__all__"]
        summaries.append(info.get("episode", env.episode_summary()))
    return summarise_eval_episodes(summaries)


def evaluate_hero_vectorized(
    vec_env: VectorEnv,
    team: HeroTeam,
    episodes: int,
    seed: int = 0,
    runner: BatchedHeroRunner | None = None,
) -> dict[str, float]:
    """Greedy evaluation of ``team`` over a :class:`VectorEnv`.

    Drives the env batch with :meth:`BatchedHeroRunner.act` in greedy mode
    (``epsilon=0``, ``explore=False``) and never calls ``after_step``, as
    :func:`evaluate_hero` does: each agent selects one option at episode
    start and runs its skill to the episode's end, and replay buffers,
    opponent-model histories and the team's bus stay untouched.

    Per-env episode accounting scores exactly ``episodes`` completed
    episodes: env ``i`` always runs a specific evaluation-episode index
    whose reset seed comes from the same ``SeedSequence`` spawn as
    :func:`evaluate_hero`'s, and per-episode summaries are accumulated by
    episode index, so the returned means aggregate the identical episode
    set in the identical order.  At ``num_envs=1`` the result is
    **bit-for-bit** equal to :func:`evaluate_hero` on a scalar env of the
    same scenario; at larger batches the only difference is last-ulp
    float noise from batched network forwards (BLAS matmuls are not
    row-wise bit-stable across batch sizes), so results are statistically
    identical.

    ``runner`` may be a pre-built :class:`BatchedHeroRunner` over
    ``vec_env``, reused across calls (as a benchmark timing repeated
    evaluations does); it must not be the training runner — evaluation
    clobbers its per-env option state.  An evaluation runner never
    exchanges over the team's bus, so the training runner's bus state
    survives it.
    """
    runner = runner or BatchedHeroRunner(team, vec_env)
    if runner.vec_env is not vec_env:
        raise ValueError("runner was built over a different VectorEnv")
    reset_seeds = episode_reset_seeds(seed, episodes)
    # opponent_mode='observed' actors condition on state the training
    # rollouts left on the team; a reused/fresh eval runner must see it.
    runner.sync_observed_options()
    runner.start_all()
    # Envs beyond the episode budget run unseeded and are never scored.
    obs = vec_env.reset(
        [int(reset_seeds[i]) if i < episodes else None for i in range(vec_env.num_envs)]
    )
    summaries = step_seeded_episodes(
        vec_env,
        obs,
        reset_seeds,
        lambda obs, _: runner.act(obs, epsilon=0.0, explore=False),
        restart=runner.start_episode,
    )
    return summarise_eval_episodes(summaries)
