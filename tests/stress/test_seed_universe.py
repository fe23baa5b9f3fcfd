"""Seed-universe regression locks for the N-actor fan-out.

Any fan-out width must consume the *same* episode seed universe: actor
``k`` of ``N`` owns episodes ``k, k+N, k+2N, ...`` and every episode's
reset seed is a pure function of ``(seed, episode)``
(:func:`~repro.utils.seeding.episode_reset_seeds` spawns by child index),
so partitioning commutes with seeding.  These tests lock the partition
algebra, the prefix stability that padding the universe relies on, and —
end to end — that an IDQN staleness run at ``num_actors`` 1, 2 and 3
logs every episode of the same universe exactly once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import make_baseline, train_marl_vectorized
from repro.baselines.base import _episode_plan
from repro.config import ScenarioConfig
from repro.envs import make_baseline_vector_env
from repro.utils.seeding import episode_partition, episode_reset_seeds

SCENARIO = ScenarioConfig(episode_length=5)


def test_partition_is_exact_for_random_universes(stress_round):
    """Disjoint slices whose sorted union is arange(episodes), any N."""
    rng = np.random.default_rng(40_000 + stress_round)
    for _ in range(25):
        episodes = int(rng.integers(0, 60))
        num_actors = int(rng.integers(1, 8))
        slices = [
            episode_partition(episodes, num_actors, k) for k in range(num_actors)
        ]
        merged = np.concatenate(slices) if slices else np.array([], dtype=np.int64)
        np.testing.assert_array_equal(np.sort(merged), np.arange(episodes))
        for k, mine in enumerate(slices):
            assert (np.diff(mine) > 0).all(), "per-actor slice must be sorted"
            if mine.size:
                assert (mine % num_actors == k).all()
    np.testing.assert_array_equal(episode_partition(13, 1, 0), np.arange(13))


def test_partition_rejects_bad_arguments():
    with pytest.raises(ValueError, match="episodes"):
        episode_partition(-1, 2, 0)
    with pytest.raises(ValueError, match="num_actors"):
        episode_partition(5, 0, 0)
    with pytest.raises(ValueError, match="actor"):
        episode_partition(5, 2, 2)


def test_reset_seed_prefix_stable_across_universe_sizes(stress_round):
    """Growing the universe (padding for more actors) never changes the
    seeds of episodes already in it — seed ``e`` depends only on
    ``(seed, e)``, not on how many episodes were requested."""
    rng = np.random.default_rng(50_000 + stress_round)
    for _ in range(10):
        seed = int(rng.integers(0, 1 << 31))
        small = int(rng.integers(1, 30))
        large = small + int(rng.integers(0, 30))
        seeds_small = episode_reset_seeds(seed, small)
        seeds_large = episode_reset_seeds(seed, large)
        np.testing.assert_array_equal(seeds_small, seeds_large[:small])
        # Pure function: recomputing reproduces bit-identically.
        np.testing.assert_array_equal(seeds_large, episode_reset_seeds(seed, large))


def test_any_fanout_consumes_the_same_budget_seed_set(stress_round):
    """The (episode, reset seed) pairs inside the episode budget are the
    same for every fan-out width, each consumed by exactly one actor."""
    rng = np.random.default_rng(60_000 + stress_round)
    for _ in range(10):
        episodes = int(rng.integers(1, 40))
        n = int(rng.integers(1, 5))
        seed = int(rng.integers(0, 1 << 31))
        reference = None
        for num_actors in (1, 2, 3):
            consumed = {}
            for actor in range(num_actors):
                universe, mine = _episode_plan(episodes, n, num_actors, actor)
                assert universe >= episodes and universe >= n * num_actors
                seeds = episode_reset_seeds(seed, universe)
                for episode in mine[mine < episodes]:
                    assert episode not in consumed, "episode consumed twice"
                    consumed[int(episode)] = int(seeds[episode])
            if reference is None:
                reference = consumed
            else:
                assert consumed == reference, f"num_actors={num_actors} diverged"


@pytest.mark.parametrize("num_actors", [1, 2, 3])
def test_idqn_staleness_run_logs_each_episode_once(num_actors):
    """End to end: partitioned collection at any width walks the same
    episode universe — every budget episode logged exactly once, in
    order, with nothing dropped or duplicated past the budget."""
    vec_env = make_baseline_vector_env(2, scenario=SCENARIO)
    algo = make_baseline("idqn", vec_env, seed=3, batch_size=16, buffer_capacity=500)
    try:
        logger = train_marl_vectorized(
            vec_env,
            algo,
            episodes=4,
            seed=5,
            eval_every=0,
            async_actors=True,
            max_staleness=2,
            num_actors=num_actors,
        )
    finally:
        vec_env.close()
    np.testing.assert_array_equal(logger.steps("idqn/episode_reward"), np.arange(4))
