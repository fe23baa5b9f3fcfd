"""Training loops for HERO (Algorithms 1 and 2 of the paper).

:func:`train_low_level_skills` runs Algorithm 2 for both skills;
:func:`train_hero` runs Algorithm 1 on the cooperative lane-change game,
recording the paper's four evaluation metrics per episode.  At every
``num_envs`` (one included) the rollout phase runs on a
:class:`~repro.envs.vector_env.VectorEnv` through
:class:`BatchedRolloutWorker`, which fills the replay buffers from
vectorized rollouts with batched policy inference, and the interleaved
greedy evaluations run on their own ``VectorEnv`` through
:func:`evaluate_hero_vectorized`.

Evaluation seeding: both evaluators derive episode reset seeds from one
``SeedSequence`` spawn (:func:`repro.utils.seeding.episode_reset_seeds`),
so evaluation episode ``e`` is a pure function of ``(seed, e)`` — the
vectorized evaluator, which finishes episodes out of order, replays the
exact seed stream of :func:`evaluate_hero` (a one-env runner over the
caller's scalar env) and is bit-for-bit equal to it at ``num_envs=1``
(``tests/test_eval_vectorized.py`` locks this in).
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import TrainingConfig
from ..envs.lane_change_env import CooperativeLaneChangeEnv
from ..envs.skill_envs import LaneChangeEnv, LaneKeepingEnv, low_level_obs_dim
from ..envs.stepping import PoseStepper
from ..envs.vector_env import EnvReplicaFactory, VectorEnv
from ..nn import get_default_dtype, set_default_dtype
from ..utils.logging_utils import (
    MetricLogger,
    episode_series,
    eval_series,
    summarise_eval_episodes,
)
from ..utils.schedule import LinearSchedule
from ..utils.seeding import episode_reset_seeds
from .batched import BatchedHeroRunner
from .hero import HeroTeam
from .low_level import SkillLibrary, train_skill
from .update_engine import UpdateEngine


def train_low_level_skills(
    config: TrainingConfig,
    episodes: int,
    skills: SkillLibrary | None = None,
    logger: MetricLogger | None = None,
) -> tuple[SkillLibrary, MetricLogger]:
    """Algorithm 2: train driving-in-lane and lane-change skills with SAC.

    The two skills are trained in separate environments with their own
    intrinsic reward functions ("we create parallel training environments
    with different intrinsic reward functions"), and on two cores: lane
    change, the shorter skill, trains in one child process while this
    process trains lane keeping.  The child starts with the platform's
    default start method (fork on Linux); its entry point is module-level,
    so ``spawn`` works too.  Inside a daemonic process, which may not start
    children (a ``multiprocessing.Pool`` worker), the two skills train one
    after the other here.

    The result is bitwise that of training the skills one after the other
    with two :func:`~repro.core.low_level.train_skill` calls, on the
    default and the ``fused_updates`` path: the skills share no state.
    ``skills.driving_in_lane`` is trained in place.  ``skills.lane_change``
    is replaced by the agent the child trained (its parameters, optimiser
    moments, ``log_alpha``, RNG state and replay buffer), and the child's
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
    if mp.current_process().daemon:
        logger.extend(_train_one_skill(*keeping))
        logger.extend(_train_one_skill(*change))
        return skills, logger

    ctx = mp.get_context()
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(
        target=_skill_child_main,
        args=(sender, np.dtype(get_default_dtype()).name, change),
        daemon=True,
        name="repro-skill-lane_change",
    )
    with receiver:
        with sender:  # the child holds its own end
            child.start()
        try:
            logger.extend(_train_one_skill(*keeping))
            try:
                reply = receiver.recv()
            except (EOFError, OSError):
                child.join()
                raise RuntimeError(
                    "the lane_change skill's training process exited with "
                    f"code {child.exitcode} before sending its result"
                ) from None
        except BaseException:
            child.terminate()
            raise
        finally:
            child.join()
    if reply[0] != "ok":
        raise RuntimeError(
            "training the lane_change skill failed in its child process:\n"
            + reply[1]
        )
    _, skills.lane_change, change_logger = reply
    logger.extend(change_logger)
    return skills, logger


def _train_one_skill(
    agent, env_cls, config: TrainingConfig, episodes: int, seed: int, log_prefix: str
) -> MetricLogger:
    """One :func:`train_skill` run on a fresh skill env; returns its series."""
    return train_skill(
        env_cls(config.scenario, config.rewards),
        agent,
        episodes=episodes,
        seed=seed,
        log_prefix=log_prefix,
        engine=UpdateEngine(agent) if config.fused_updates else None,
    )


def _skill_child_main(sender, float_dtype: str, job: tuple) -> None:
    """Child process of :func:`train_low_level_skills`: train one skill.

    Module-level, so a ``spawn`` child can import it; ``float_dtype``
    replays the parent's compute dtype (a spawned interpreter starts at
    the float64 default).  Sends ``("ok", agent, logger)`` with the trained
    agent, or ``("error", traceback)``.
    """
    try:
        set_default_dtype(float_dtype)
        logger = _train_one_skill(*job)
        sender.send(("ok", job[0], logger))
    except Exception:
        sender.send(("error", traceback.format_exc()))
    finally:
        sender.close()


class BatchedRolloutWorker:
    """Fills the team's replay buffers from vectorized rollouts.

    Wraps a :class:`~repro.envs.vector_env.VectorEnv` and a
    :class:`~repro.core.batched.BatchedHeroRunner`; every call to
    :meth:`collect` advances all environments synchronously with batched
    policy inference and returns the episodes that finished, tagged with
    the episode index each env was running (so per-episode schedules such
    as epsilon annealing stay well defined).
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

    def collect(
        self,
        epsilon_schedule,
        explore: bool = True,
        max_steps: int | None = None,
    ) -> list[dict]:
        """Step the vector env until at least one episode finishes.

        ``epsilon_schedule`` maps an episode index to an exploration rate.
        Returns the finished episodes' stats (see
        :meth:`BatchedHeroRunner.after_step`) with an ``"episode_index"``
        entry added.
        """
        if self._obs is None:
            self.reset()
        steps = 0
        while True:
            epsilon = np.array(
                [epsilon_schedule(int(e)) for e in self._episode_of_env]
            )
            actions = self.runner.act(self._obs, epsilon=epsilon, explore=explore)
            self._obs, rewards, dones, infos = self.vec_env.step(actions)
            stats = self.runner.after_step(self._obs, rewards, dones, infos)
            for stat in stats:
                env_index = stat["env"]
                stat["episode_index"] = int(self._episode_of_env[env_index])
                stat["epsilon"] = float(epsilon[env_index])
                self._episode_of_env[env_index] = self._episodes_started
                self._episodes_started += 1
            steps += 1
            if stats or (max_steps is not None and steps >= max_steps):
                return stats


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
    fused_updates: bool | None = None,
    async_actors: bool | None = None,
    max_staleness: int | None = None,
    num_actors: int | None = None,
    checkpoint_path: str | None = None,
) -> MetricLogger:
    """Algorithm 1: train the high-level cooperative strategy.

    Per episode: roll out with asynchronous option selection, store SMDP
    transitions and opponent observations, then run gradient updates for
    every agent (critic, actor, opponent models; target nets via the
    soft-update inside each agent update).

    ``eval_every`` (default: episodes // 40) interleaves short greedy
    evaluations and logs them as ``{prefix}/eval_*`` — these are the
    exploration-free learning curves Fig. 7 plots.

    Rollouts come from ``num_envs`` vectorized copies of ``env`` (default
    ``config.num_envs``; one copy is a one-env batch) with batched policy
    inference; updates, logging and evaluation cadence stay per-episode.
    The copies share ``env``'s track and traffic, and an ``env`` subclass
    raises ``ValueError`` (see
    :meth:`~repro.envs.vector_env.EnvReplicaFactory.from_env`).  A team
    built with a :class:`~repro.distributed.DistributedObservationService`
    learns its opponents' options over that delayed, lossy bus (the DTDE
    setting) at any ``num_envs``.

    ``fused_updates`` (default ``config.fused_updates``) routes the
    gradient phase through a :class:`~repro.core.update_engine.UpdateEngine`
    over the team: all agents' critics, actors and opponent predictors are
    updated as three stacked network families — tolerance-equivalent to the
    per-agent loop, substantially faster (see docs/ARCHITECTURE.md).

    ``async_actors`` (default ``config.async_actors``) moves the rollout
    phase into a separate actor process on the async actor–learner stack
    (:func:`~repro.distributed.actor_learner.train_hero_async`): the
    actor acts on versioned policy snapshots from a shared-memory
    parameter server and ships experience back through a transition
    queue.  ``max_staleness`` (default ``config.max_staleness``) bounds
    how many collection rounds the actor may run ahead of the newest
    snapshot — 0 is a lockstep barrier, bitwise identical to the
    synchronous path; larger values overlap rollout and update and log
    per-round snapshot staleness.  ``num_actors`` (default
    ``config.num_actors``) fans the rollout phase out to that many actor
    processes, which needs ``max_staleness > 0`` (lockstep runs one
    actor; more raise ``ValueError``): each actor steps its own env batch
    on forked RNG streams and collection throughput scales with the
    actor count.  The actors run without a bus, so a team with an
    observation service raises ``ValueError``.

    ``checkpoint_path`` (optional) writes the trained team as a versioned
    serving checkpoint (:func:`repro.serving.save_checkpoint`) once
    training finishes, synchronous or async, so ``repro serve`` /
    :func:`repro.load_policy` can pick it up without the training harness.
    """
    config = config or TrainingConfig()
    if num_envs is None:
        num_envs = config.num_envs
    if fused_updates is None:
        fused_updates = config.fused_updates
    if async_actors is None:
        async_actors = config.async_actors
    if max_staleness is None:
        max_staleness = config.max_staleness
    if num_actors is None:
        num_actors = config.num_actors
    engine = UpdateEngine(team) if fused_updates else None
    update_fn = engine.update if engine is not None else team.update
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
    consumer = _HeroEpisodeConsumer(
        env, team, episodes, n_updates, update_fn, logger, metric_prefix,
        eval_every, eval_episodes, config,
    )
    # Replicas share the caller's track and traffic, so custom traffic
    # falls through to VectorEnv's scalar fallback instead of being
    # swapped for the defaults; env subclasses are rejected.
    factory = EnvReplicaFactory.from_env(env)
    if eval_every:
        consumer.evaluator = _interleaved_evaluator(
            team, factory, num_envs, eval_episodes
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
            engine=engine,
            max_staleness=max_staleness,
            num_actors=num_actors,
        )
    else:
        worker = BatchedRolloutWorker(_hero_vector_env(factory, num_envs), team)
        worker.reset([int(rng.integers(0, 2**31 - 1)) for _ in range(num_envs)])
        while not consumer.done:
            consumer.consume(worker.collect(epsilon_schedule))
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

    :meth:`consume` takes finished-episode stats (``episode`` summary,
    ``epsilon``, ``lane_change_attempts``, as
    :meth:`BatchedRolloutWorker.collect` returns them) and, for each,
    runs the update budget, logs the episode's metrics and, every
    ``eval_every`` episodes and at the last, a greedy evaluation seeded
    ``config.seed + 500 + episode``, all under a running
    completed-episode counter.  ``evaluator`` (set by
    :func:`_interleaved_evaluator` whenever ``eval_every`` is non-zero)
    maps ``(episodes, seed)`` to the metrics dict.  The synchronous loop
    and the async learner both consume through it.
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
    evaluator: Callable | None = None
    completed: int = field(default=0, init=False)
    _losses: dict = field(default_factory=dict, init=False)

    @property
    def done(self) -> bool:
        return self.completed >= self.episodes

    def consume(self, stats: list[dict]) -> None:
        for stat in stats:
            if self.done:
                break
            for _ in range(self.n_updates):
                self._losses = self.update_fn()
            self._log_episode(stat)
            if self.eval_every and (
                self.completed % self.eval_every == 0
                or self.completed == self.episodes - 1
            ):
                self._log_eval()
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

    def _log_eval(self) -> None:
        seed = self.config.seed + 500 + self.completed
        metrics = self.evaluator(self.eval_episodes, seed)
        self.logger.log_many(eval_series(self.prefix, metrics), self.completed)


def _hero_vector_env(factory: EnvReplicaFactory, num_envs: int) -> VectorEnv:
    """``num_envs`` replicas of one env, warning when they step on the
    scalar fallback (the warning shows once per fallback reason)."""
    vec_env = VectorEnv(num_envs, env_fns=[factory] * num_envs)
    if not vec_env.fast_path:
        warnings.warn(
            "vectorized HERO rollouts are stepping on the scalar fallback "
            f"({vec_env.fallback_reason}); training is correct but "
            "--num-envs will not speed it up",
            RuntimeWarning,
        )
    return vec_env


def _interleaved_evaluator(
    team: HeroTeam, factory: EnvReplicaFactory, num_envs: int, eval_episodes: int
):
    """The training loops' interleaved greedy evaluator.

    Runs :func:`evaluate_hero_vectorized` on a dedicated ``VectorEnv`` of
    replicas (the training batch holds live mid-episode state) with one
    reused runner.  The batch is capped at ``eval_episodes``: more envs
    would only burn steps on rollouts that are never scored.
    """
    eval_vec = _hero_vector_env(factory, max(min(num_envs, eval_episodes), 1))
    runner = BatchedHeroRunner(team, eval_vec)

    def evaluator(episodes, seed):
        return evaluate_hero_vectorized(
            eval_vec, team, episodes=episodes, seed=seed, runner=runner
        )

    return evaluator


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
    rewards, collisions, successes, speeds = [], [], [], []
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
        summary = info.get("episode", env.episode_summary())
        rewards.append(summary["episode_reward"])
        collisions.append(summary["collision"])
        successes.append(summary["merge_success_rate"])
        speeds.append(summary["mean_speed"])
    return summarise_eval_episodes(rewards, collisions, successes, speeds)


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
    ``vec_env`` (the interleaved-evaluation path reuses one across calls);
    it must not be the training runner — evaluation clobbers its per-env
    option state.  An evaluation runner never exchanges over the team's
    bus, so the training runner's bus state survives it.
    """
    runner = runner or BatchedHeroRunner(team, vec_env)
    if runner.vec_env is not vec_env:
        raise ValueError("runner was built over a different VectorEnv")
    reset_seeds = episode_reset_seeds(seed, episodes)
    n = vec_env.num_envs

    # opponent_mode='observed' actors condition on state the training
    # rollouts left on the team; a reused/fresh eval runner must see it.
    runner.sync_observed_options()
    runner.start_all()
    # Envs beyond the episode budget run unseeded and are never scored.
    obs = vec_env.reset(
        [int(reset_seeds[i]) if i < episodes else None for i in range(n)]
    )

    episode_of_env = np.arange(n)
    next_to_start = n
    rewards = np.zeros(episodes)
    collisions = np.zeros(episodes)
    successes = np.zeros(episodes)
    speeds = np.zeros(episodes)
    remaining = episodes
    while remaining:
        actions = runner.act(obs, epsilon=0.0, explore=False)
        obs, _, dones, infos = vec_env.step(actions)
        for i in np.flatnonzero(dones):
            episode = int(episode_of_env[i])
            if episode < episodes:
                summary = infos[i]["episode"]
                rewards[episode] = summary["episode_reward"]
                collisions[episode] = summary["collision"]
                successes[episode] = summary["merge_success_rate"]
                speeds[episode] = summary["mean_speed"]
                remaining -= 1
            runner.start_episode(i)
            episode_of_env[i] = next_to_start
            if next_to_start < episodes:
                row = vec_env.reset_env(i, seed=int(reset_seeds[next_to_start]))
                for key in obs:
                    obs[key][i] = row[key]
            next_to_start += 1
    return summarise_eval_episodes(rewards, collisions, successes, speeds)
