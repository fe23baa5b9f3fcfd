"""Deterministic seeding utilities.

Every stochastic component in this repository takes an explicit
``numpy.random.Generator``; this module provides the conventions for
deriving independent child generators so experiments are reproducible
and agents do not share RNG state (which would couple "independent"
learners in subtle ways).
"""

from __future__ import annotations

import numpy as np


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``seed``.

    Uses numpy's ``SeedSequence.spawn`` so children never collide even when
    seeds are small consecutive integers.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def episode_reset_seeds(seed: int, episodes: int) -> np.ndarray:
    """Per-episode environment reset seeds, derived by ``SeedSequence.spawn``.

    Seed ``e`` is a pure function of ``(seed, e)`` — unlike drawing from a
    sequential generator stream, a training loop that runs episodes out of
    order (vectorized rollouts finishing at different times) reproduces the
    exact same reset seed for episode ``e`` as a one-env loop does.
    """
    if episodes < 0:
        raise ValueError(f"episodes must be non-negative, got {episodes}")
    children = np.random.SeedSequence(seed).spawn(episodes)
    return np.array(
        [int(child.generate_state(1)[0]) for child in children], dtype=np.int64
    )


def episode_partition(episodes: int, num_actors: int, actor: int) -> np.ndarray:
    """Strided slice of the episode universe owned by one rollout actor.

    Actor ``k`` of ``N`` owns episodes ``k, k + N, k + 2N, ...`` — a pure
    function of ``(episodes, num_actors, actor)``.  The slices are disjoint
    and their union is exactly ``arange(episodes)`` for any ``N``, so a
    fan-out of ``N`` actors consumes the same :func:`episode_reset_seeds`
    universe as a single actor, each episode's seed exactly once.
    ``num_actors == 1`` is the identity ``arange(episodes)``.
    """
    if episodes < 0:
        raise ValueError(f"episodes must be non-negative, got {episodes}")
    if num_actors < 1:
        raise ValueError(f"num_actors must be >= 1, got {num_actors}")
    if not 0 <= actor < num_actors:
        raise ValueError(f"actor must be in [0, {num_actors}), got {actor}")
    return np.arange(actor, episodes, num_actors, dtype=np.int64)
