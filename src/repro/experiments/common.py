"""Shared experiment plumbing: scenario construction and method training.

Every figure/table harness goes through :func:`train_all_methods` so HERO
and the four baselines always see the same scenario, seeds and episode
budget. ``scale`` expresses the fraction of the paper's 14,000-episode
budget; benchmarks default to a small documented fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines import (
    evaluate_marl,
    evaluate_marl_vectorized,
    make_baseline,
    train_marl_vectorized,
)
from ..config import (
    PaperHyperparameters,
    RewardConfig,
    ScenarioConfig,
    TrainingConfig,
    check_fused_updates,
)
from ..core import HeroTeam, train_hero, train_low_level_skills
from ..core.trainer import evaluate_hero, evaluate_hero_vectorized
from ..envs import (
    CooperativeLaneChangeEnv,
    VectorStepper,
    make_baseline_vector_env,
)
from ..envs.wrappers import VectorBaselineEnv
from ..utils.jobs import Job, run_jobs
from ..utils.logging_utils import MetricLogger

METHOD_NAMES = ["hero", "idqn", "coma", "maddpg", "maac"]


def bench_scenario(episode_length: int = 30) -> ScenarioConfig:
    """The four-vehicle scenario of Fig. 9/12 at benchmark scale.

    Episode length follows Table I (30 steps); at this horizon the three
    strategies separate cleanly: keep-lane rams the congestion before the
    episode ends, crawling survives but forfeits travel reward, merging is
    safe *and* fast.
    """
    return ScenarioConfig(episode_length=episode_length)


@dataclass
class TrainedMethod:
    """One trained method plus its training curves.

    :meth:`evaluate` runs a greedy evaluation of the trained controller.
    A trained method is plain data, so it crosses a pipe or a ``spawn``
    boundary by pickle: :func:`train_all_methods` trains methods in worker
    processes and adopts what they send back.

    :meth:`to_checkpoint` / :meth:`from_checkpoint` round the trained
    controller through the versioned serving format
    (:mod:`repro.serving.checkpoint`), so a training sweep's result
    survives process exit — the testbed phase can re-evaluate persisted
    teams instead of retraining.  Training curves are not part of a
    policy checkpoint; a reloaded method starts with an empty logger.
    """

    name: str
    logger: MetricLogger
    controller: object = None
    scenario: ScenarioConfig | None = None
    rewards: RewardConfig | None = None

    def evaluate(self, eval_env, episodes: int, eval_seed: int = 0) -> dict:
        """Greedy evaluation of the controller over ``episodes`` episodes.

        ``eval_env`` may be the method's scalar evaluation stack (any
        wrapper, e.g. the Table 2 domain-shifted testbed) or a vectorized
        one — a :class:`~repro.envs.vector_env.VectorEnv` (any
        :class:`~repro.envs.stepping.VectorStepper`) for HERO, a
        :class:`~repro.envs.wrappers.VectorBaselineEnv` for the baselines —
        in which case episodes are batched through the vectorized
        evaluators (bit-for-bit equal to scalar at one env,
        ~episode-parallel otherwise).
        """
        if isinstance(self.controller, HeroTeam):
            if isinstance(eval_env, VectorStepper):
                evaluator = evaluate_hero_vectorized
            else:
                evaluator = evaluate_hero
        elif isinstance(eval_env, VectorBaselineEnv):
            evaluator = evaluate_marl_vectorized
        else:
            evaluator = evaluate_marl
        return evaluator(eval_env, self.controller, episodes, seed=eval_seed)

    def to_checkpoint(self, path) -> None:
        """Persist the trained controller as a serving checkpoint."""
        if self.controller is None:
            raise ValueError(
                f"method {self.name!r} has no controller to checkpoint"
            )
        from ..serving.checkpoint import save_checkpoint

        save_checkpoint(
            path,
            self.controller,
            scenario=self.scenario,
            rewards=self.rewards,
            extra={"method": self.name},
        )

    @classmethod
    def from_checkpoint(cls, path) -> "TrainedMethod":
        """Rebuild a ready-to-evaluate method from a serving checkpoint."""
        from ..serving.checkpoint import load_policy

        loaded = load_policy(path)
        return cls(
            loaded.method,
            MetricLogger(),
            controller=loaded.controller,
            scenario=loaded.scenario,
            rewards=loaded.rewards,
        )


@dataclass
class ExperimentResult:
    """Everything a figure/table needs from one training sweep."""

    methods: dict[str, TrainedMethod] = field(default_factory=dict)
    scenario: ScenarioConfig = field(default_factory=bench_scenario)
    rewards: RewardConfig = field(default_factory=RewardConfig)
    skill_logger: MetricLogger | None = None

    def series(self, method: str, metric: str) -> np.ndarray:
        trained = self.methods[method]
        return trained.logger.values(f"{method}/{metric}")


def episodes_from_scale(scale: float, hyper: PaperHyperparameters | None = None) -> int:
    hyper = hyper or PaperHyperparameters()
    return max(int(round(hyper.training_episodes * scale)), 10)


def train_hero_method(
    scenario: ScenarioConfig,
    rewards: RewardConfig,
    episodes: int,
    skill_episodes: int,
    seed: int,
    opponent_mode: str = "model",
    lr: float = 2e-3,
    batch_size: int = 128,
    updates_per_episode: int = 4,
    metric_prefix: str = "hero",
    num_envs: int = 1,
    async_actors: bool = False,
    max_staleness: int = 0,
    num_actors: int = 1,
) -> TrainedMethod:
    """Two-stage HERO training (Algorithm 2 then Algorithm 1).

    ``async_actors`` moves the rollout phase to a separate actor process on
    the async actor–learner stack; ``max_staleness`` bounds how far it may
    run ahead of the newest policy snapshot (0 = lockstep, bitwise equal to
    the synchronous path); ``num_actors`` fans collection out to that many
    actor processes (staleness mode only: lockstep runs one actor).
    """
    config = TrainingConfig(
        seed=seed,
        num_envs=num_envs,
        async_actors=async_actors,
        max_staleness=max_staleness,
        num_actors=num_actors,
    )
    config.scenario = scenario
    config.rewards = rewards
    config.epsilon_start = 0.4
    config.epsilon_end = 0.05
    config.epsilon_decay_episodes = max(episodes // 2, 1)
    config.entropy_coef = 0.02

    skills, skill_logger = train_low_level_skills(config, episodes=skill_episodes)
    env = CooperativeLaneChangeEnv(scenario=scenario, rewards=rewards)
    team = HeroTeam(
        env,
        np.random.default_rng(seed),
        hyper=config.hyper,
        skills=skills,
        opponent_mode=opponent_mode,
        lr=lr,
        batch_size=batch_size,
    )
    logger = train_hero(
        env,
        team,
        episodes=episodes,
        config=config,
        updates_per_episode=updates_per_episode,
        metric_prefix=metric_prefix,
        num_envs=num_envs,
    )
    # Keep the skill curves available to Fig. 8.
    logger.extend(skill_logger)
    return TrainedMethod(
        metric_prefix,
        logger,
        controller=team,
        scenario=scenario,
        rewards=rewards,
    )


def train_baseline_method(
    name: str,
    scenario: ScenarioConfig,
    rewards: RewardConfig,
    episodes: int,
    seed: int,
    updates_per_episode: int = 1,
    num_envs: int = 1,
    async_actors: bool = False,
    max_staleness: int = 0,
    num_actors: int = 1,
    **baseline_kwargs,
) -> TrainedMethod:
    """Train one end-to-end baseline.

    Experience comes from ``num_envs`` vectorized env copies through the
    algorithm's ``act_batch``/``observe_batch`` interface
    (:func:`~repro.baselines.base.train_marl_vectorized`, the one baseline
    training loop, at ``num_envs == 1`` too), whose interleaved greedy
    evaluations are recorded during training and scored in one wide batch
    after it (:func:`~repro.baselines.base.score_marl_records`).
    ``async_actors`` runs the rollouts in separate actor processes (IDQN
    only; other baselines warn and fall back); ``max_staleness=0`` runs
    one actor, bitwise equal to the synchronous loop.
    """
    vec_env = make_baseline_vector_env(num_envs, scenario=scenario, rewards=rewards)
    algo = make_baseline(name, vec_env, seed=seed, **baseline_kwargs)
    logger = train_marl_vectorized(
        vec_env,
        algo,
        episodes=episodes,
        seed=seed,
        updates_per_episode=updates_per_episode,
        epsilon_decay_episodes=max(episodes // 2, 1),
        async_actors=async_actors,
        max_staleness=max_staleness,
        num_actors=num_actors,
    )
    return TrainedMethod(
        name,
        logger,
        controller=algo,
        scenario=scenario,
        rewards=rewards,
    )


def train_all_methods(
    scale: float = 0.02,
    seed: int = 0,
    methods: list[str] | None = None,
    scenario: ScenarioConfig | None = None,
    skill_scale: float | None = None,
    num_envs: int = 1,
    fused_updates: bool = True,
    async_actors: bool = False,
    max_staleness: int = 0,
    num_actors: int = 1,
) -> ExperimentResult:
    """Train HERO and the baselines on the shared scenario.

    ``scale=1.0`` reproduces the paper's full 14,000-episode budget;
    benchmark defaults use a small fraction so the suite finishes in
    minutes (docs/REPRODUCING.md documents the budgets).  ``num_envs > 1``
    collects every method's rollouts — HERO's and the four baselines' —
    from that many vectorized env copies with batched policy inference;
    each method's interleaved greedy evaluations (the Fig. 7 curves) are
    recorded during training and scored in one wide batch after it.  ``async_actors`` runs each supporting method's rollouts
    in a separate actor process on the async actor–learner stack
    (``repro.distributed.actor_learner``; HERO and IDQN — the other
    baselines warn and stay synchronous); ``max_staleness=0`` runs one
    actor, bitwise equal to synchronous.  ``fused_updates`` is accepted
    for compatibility and must be True: every method's gradient step runs
    through :class:`~repro.core.update_engine.UpdateEngine`.

    The methods share no state, so they train side by side, one
    :func:`~repro.utils.jobs.run_jobs` job each in the order of
    ``methods``: the first (HERO in :data:`METHOD_NAMES`, the longest)
    trains in this process, the others in worker processes that send
    their :class:`TrainedMethod` back.  Every logged series and every
    controller is bitwise the one of training the methods one after the
    other.  A method worker is not daemonic, so HERO's Algorithm 2 and
    the ``async_actors`` actors start their own processes inside it.
    """
    check_fused_updates(fused_updates)
    methods = list(methods or METHOD_NAMES)
    scenario = scenario or bench_scenario()
    rewards = RewardConfig()
    episodes = episodes_from_scale(scale)
    # Skills are single-agent and cheap; under-trained skills would turn a
    # high-level comparison into a controller-quality comparison, so give
    # them a floor regardless of the sweep scale.
    if skill_scale is not None:
        skill_episodes = episodes_from_scale(skill_scale)
    else:
        skill_episodes = max(episodes, 250)

    options = {
        "num_envs": num_envs,
        "async_actors": async_actors,
        "max_staleness": max_staleness,
        "num_actors": num_actors,
    }
    trained = run_jobs(
        Job(
            f"train {name}",
            _train_method,
            (name, scenario, rewards, episodes, skill_episodes, seed, options),
        )
        for name in methods
    )
    return ExperimentResult(
        methods=dict(zip(methods, trained)), scenario=scenario, rewards=rewards
    )


def _train_method(
    name: str,
    scenario: ScenarioConfig,
    rewards: RewardConfig,
    episodes: int,
    skill_episodes: int,
    seed: int,
    options: dict,
) -> TrainedMethod:
    """One method of :func:`train_all_methods` (a :func:`run_jobs` job)."""
    if name == "hero":
        return train_hero_method(
            scenario, rewards, episodes, skill_episodes, seed, **options
        )
    return train_baseline_method(name, scenario, rewards, episodes, seed, **options)
