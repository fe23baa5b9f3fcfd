"""Interleaved greedy evaluations: recorded during training, scored after it.

The Fig. 7 curves are greedy evaluations interleaved with training, one
every ``eval_every`` episodes and one at the last.  Both training loops
(HERO's :func:`~repro.core.trainer.train_hero` and the baselines'
:func:`~repro.baselines.base.train_marl_vectorized`, synchronous or
async) no longer stop to run them.  At each cadence point the loop keeps
an :class:`EvalRecord`: its step, its seed and a copy of the parameters
greedy acting reads.  After the last episode, one wide greedy rollout per
batch of at most :data:`MAX_SCORED_RECORDS` records scores them all: env
``k * E + j`` of the batch runs episode ``j`` of record ``k`` with that
record's parameters, reset with ``episode_reset_seeds(seed_k, E)[j]``,
the seed a stand-alone evaluation of ``E`` episodes gives it.  The
records are logged at their steps, in step order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .logging_utils import MetricLogger, eval_series, summarise_eval_episodes
from .seeding import episode_reset_seeds

# The most records one scoring rollout holds; its env batch is
# records x eval_episodes wide.  A default-cadence run (eval_every =
# episodes // 40) records at most 79 evaluations, so it scores in one
# batch; a small eval_every on a long run scores in several.
MAX_SCORED_RECORDS = 80


@dataclass
class EvalRecord:
    """One interleaved evaluation, as its cadence point left it.

    Score ``episodes`` greedy episodes from ``seed`` acting with
    ``vectors`` (HERO: one flat vector per acting family of
    :meth:`~repro.core.hero.HeroTeam.acting_families`; a baseline: the flat
    vector of its :meth:`~repro.baselines.base.MARLAlgorithm.acting_members`)
    and, for HERO, every agent's ``last_observed`` opponent options; log
    the metrics at ``step``, the completed-episode index.
    """

    step: int
    seed: int
    vectors: dict | np.ndarray
    last_observed: list | None = None


def is_eval_point(episode: int, eval_every: int | None, episodes: int) -> bool:
    """Whether completed episode ``episode`` of ``episodes`` is evaluated:
    every ``eval_every`` episodes and at the last; never when
    ``eval_every`` is 0 or None."""
    return bool(eval_every) and (
        episode % eval_every == 0 or episode == episodes - 1
    )


def scored_reset_seeds(records: list[EvalRecord], episodes: int) -> list[int]:
    """Reset seed of each env of a scoring batch: env ``k * episodes + j``
    runs episode ``j`` of ``records[k]``."""
    return [
        int(seed)
        for record in records
        for seed in episode_reset_seeds(record.seed, episodes)
    ]


def step_seeded_episodes(
    vec_env, obs, reset_seeds, act: Callable, restart: Callable | None = None
) -> list[dict]:
    """Step ``vec_env`` until every episode of ``reset_seeds`` has finished.

    The one episode-accounting loop of the vectorized evaluators and the
    scoring rollouts.  ``obs`` is the batch's reset observation, where env
    ``i`` started episode ``i`` (seeded ``reset_seeds[i]``; envs beyond
    the episodes run unscored).  A finished env resets with the next
    unstarted episode's seed, or runs unscored when none is left: on its
    auto-reset episodes, or idling on its final state in a batch without
    auto-reset.  ``act(obs, scoring)`` returns each step's actions, where
    ``scoring`` marks the envs still running an episode of
    ``reset_seeds``; ``restart(i)``, when given, runs for every env ``i``
    that finishes (HERO restarts the runner row).  Returns each episode's
    summary, in episode order.
    """
    episodes, n = len(reset_seeds), vec_env.num_envs
    summaries: list = [None] * episodes
    episode_of_env = np.arange(n)
    # Without auto-reset an env with no episode left idles on its final
    # state and reports done on every later step: it finished once.
    idle = np.zeros(n, dtype=bool)
    next_to_start = n
    remaining = episodes
    while remaining:
        obs, _, dones, infos = vec_env.step(act(obs, episode_of_env < episodes))
        for i in np.flatnonzero(dones & ~idle):
            episode = int(episode_of_env[i])
            if episode < episodes:
                summaries[episode] = infos[i]["episode"]
                remaining -= 1
            if restart is not None:
                restart(i)
            episode_of_env[i] = next_to_start
            if next_to_start < episodes:
                row = vec_env.reset_env(i, seed=int(reset_seeds[next_to_start]))
                if isinstance(obs, dict):
                    for key in obs:
                        obs[key][i] = row[key]
                else:
                    obs[i] = row
            elif not vec_env.auto_reset:
                idle[i] = True
            next_to_start += 1
    return summaries


def summarise_records(summaries: list[dict], episodes: int) -> list[dict[str, float]]:
    """Each record's metrics from its ``episodes`` consecutive summaries,
    in episode order."""
    return [
        summarise_eval_episodes(summaries[start : start + episodes])
        for start in range(0, len(summaries), episodes)
    ]


def log_scored_records(
    records: list[EvalRecord],
    score: Callable[[list[EvalRecord]], list[dict[str, float]]],
    logger: MetricLogger,
    prefix: str,
) -> None:
    """Score ``records`` in batches of at most :data:`MAX_SCORED_RECORDS`
    (``score(batch)`` returns each record's metrics) and log each record's
    ``{prefix}/eval_*`` series at its step, in step order."""
    ordered = sorted(records, key=lambda record: record.step)
    for start in range(0, len(ordered), MAX_SCORED_RECORDS):
        batch = ordered[start : start + MAX_SCORED_RECORDS]
        for record, metrics in zip(batch, score(batch)):
            logger.log_many(eval_series(prefix, metrics), record.step)
