"""The greedy-episode loop shared by the evaluators and the scorers.

:func:`repro.utils.evaluation.step_seeded_episodes` steps a batch until a
list of seeded episodes has finished.  The contract under test:

* env ``i`` starts episode ``i``; the summaries come back in episode
  order, whatever order the episodes finish in;
* a finished env resets with the next unstarted episode's seed, and that
  reset's row replaces the env's row of the observation the next action
  reads (dict and flat observations);
* envs beyond the episodes, and envs with no episode left, run unscored:
  ``act`` sees them masked out and their summaries are dropped; without
  auto-reset such an env idles and counts as finished once;
* ``restart(i)`` runs for every env ``i`` that finishes, scored or not;
* on the real vector envs, refilling leaves every episode as it runs
  alone;
* ``summarise_eval_episodes`` / ``summarise_records`` mean the episode
  summaries into the Table II metric names.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ScenarioConfig
from repro.envs import VectorBaselineEnv, VectorEnv
from repro.utils.evaluation import step_seeded_episodes, summarise_records
from repro.utils.logging_utils import summarise_eval_episodes

# Length of the episode each seed starts; -1 marks an unseeded
# (auto-reset) episode.
_LENGTHS = {-1: 2, 10: 5, 11: 1, 12: 1, 13: 3, 14: 1, 20: 1, 21: 1}


def _summary(seed: int) -> dict:
    return {
        "seed": seed,
        "episode_reward": float(seed),
        "collision": float(seed % 2),
        "merge_success_rate": 0.5,
        "mean_speed": 2.0 * seed,
    }


class _ScriptedBatch:
    """A vector env whose episode seeded ``s`` lasts ``_LENGTHS[s]`` steps.

    Each row observes its episode's seed and time step.  Without
    auto-reset a finished env stays on its final state and reports done on
    every later step, as :class:`~repro.envs.VectorEnv` does.  Records the
    seeded resets as ``(env, seed)``.
    """

    def __init__(self, seeds, auto_reset: bool, dict_obs: bool = False):
        self.num_envs = len(seeds)
        self.auto_reset = auto_reset
        self.dict_obs = dict_obs
        self.seeds = np.array(seeds)
        self.t = np.zeros(self.num_envs, dtype=int)
        self.resets: list[tuple[int, int]] = []

    def _row(self, i: int):
        row = np.array([self.seeds[i], self.t[i]], dtype=float)
        return {"seed_t": row, "twice": 2 * row} if self.dict_obs else row

    def observe(self):
        rows = [self._row(i) for i in range(self.num_envs)]
        if self.dict_obs:
            return {key: np.stack([row[key] for row in rows]) for key in rows[0]}
        return np.stack(rows)

    def reset_env(self, i: int, seed: int):
        self.resets.append((i, seed))
        self.seeds[i], self.t[i] = seed, 0
        return self._row(i)

    def step(self, actions):
        self.t += 1
        dones = self.t >= np.array([_LENGTHS[int(s)] for s in self.seeds])
        infos = [{} for _ in range(self.num_envs)]
        for i in np.flatnonzero(dones):
            infos[i]["episode"] = _summary(int(self.seeds[i]))
            if self.auto_reset:
                self.seeds[i], self.t[i] = -1, 0
        return self.observe(), np.zeros(self.num_envs), dones, infos


class _Recorder:
    """``act`` and ``restart`` callbacks that record what the loop hands
    them: each step's observation and scoring mask, each restarted env."""

    def __init__(self, batch: _ScriptedBatch):
        self.batch = batch
        self.steps: list[tuple] = []
        self.restarts: list[int] = []

    def act(self, obs, scoring):
        self.steps.append((self.batch.observe(), obs, scoring.copy()))
        return np.zeros(self.batch.num_envs)

    def restart(self, i):
        self.restarts.append(int(i))


def _run(seeds, reset_seeds, auto_reset, dict_obs=False):
    batch = _ScriptedBatch(seeds, auto_reset, dict_obs)
    recorder = _Recorder(batch)
    summaries = step_seeded_episodes(
        batch, batch.observe(), reset_seeds, recorder.act, recorder.restart
    )
    return summaries, batch, recorder


@pytest.mark.parametrize("auto_reset", [True, False], ids=["auto_reset", "idle"])
def test_summaries_follow_episode_order(auto_reset):
    """Episodes finish in the order 1, 2, 0, 3, 4; the summaries come back
    in episode order, one per seed."""
    reset_seeds = [10, 11, 12, 13, 14]
    summaries, _, _ = _run([10, 11], reset_seeds, auto_reset)
    assert [s["seed"] for s in summaries] == reset_seeds


def test_a_finished_env_resets_with_the_next_unstarted_seed():
    _, batch, recorder = _run([10, 11], [10, 11, 12, 13, 14], auto_reset=True)
    # Env 1 finishes seeds 11 and 12 first; env 0 (seed 10) and env 1
    # (seed 13) finish together at step 5, env 0 first taking seed 14.
    assert batch.resets == [(1, 12), (1, 13), (0, 14)]
    assert recorder.restarts == [1, 1, 0, 1, 0]
    assert len(recorder.steps) == 6


@pytest.mark.parametrize("dict_obs", [True, False], ids=["dict", "flat"])
def test_reset_rows_replace_the_finished_envs_observation(dict_obs):
    """Every action reads each env's current row: the seeded reset's row,
    not the finished episode's terminal or an auto-reset row."""
    _, _, recorder = _run(
        [10, 11], [10, 11, 12, 13, 14], auto_reset=True, dict_obs=dict_obs
    )
    for truth, seen, _ in recorder.steps:
        if dict_obs:
            for key in truth:
                np.testing.assert_array_equal(seen[key], truth[key])
        else:
            np.testing.assert_array_equal(seen, truth)


def test_envs_beyond_the_episodes_run_unscored():
    """Four envs, two episodes: envs 2 and 3 are masked out from the first
    step, their episodes are never summarised, and nothing is reset."""
    summaries, batch, recorder = _run([10, 11, 20, 21], [10, 11], auto_reset=True)
    assert [s["seed"] for s in summaries] == [10, 11]
    assert batch.resets == []
    masks = [scoring.tolist() for _, _, scoring in recorder.steps]
    assert masks[0] == [True, True, False, False]
    # Env 1 finishes seed 11 at step 1 with nothing left to start.
    assert masks[1:] == [[True, False, False, False]] * 4


def test_without_auto_reset_a_spent_env_idles_and_finishes_once():
    """Env 0 finishes at step 1 and reports done on every later step; it
    is restarted once and its summary is not overwritten."""
    summaries, batch, recorder = _run([11, 13], [11, 13], auto_reset=False)
    assert [s["seed"] for s in summaries] == [11, 13]
    assert batch.resets == []
    assert recorder.restarts == [0, 1]
    assert [scoring.tolist() for _, _, scoring in recorder.steps] == [
        [True, True],
        [False, True],
        [False, True],
    ]


def test_with_auto_reset_a_spent_env_keeps_running_unscored():
    """Env 0 finishes seed 11 at step 1, then runs unseeded two-step
    episodes that finish at steps 3 and 5: each restarts the env, none is
    summarised, and the loop ends with env 1's seed 10 at step 5."""
    summaries, batch, recorder = _run([11, 10], [11, 10], auto_reset=True)
    assert [s["seed"] for s in summaries] == [11, 10]
    assert batch.resets == []
    assert recorder.restarts == [0, 0, 0, 1]
    assert len(recorder.steps) == 5
    assert all(not scoring[0] for _, _, scoring in recorder.steps[1:])


def _row_policy(obs, num_agents):
    """A deterministic score per env and agent from a fixed projection of
    every feature of its row, so a stale row changes the episode."""
    flat = obs if isinstance(obs, np.ndarray) else np.concatenate(
        [value.reshape(*value.shape[:2], -1) for value in obs.values()], axis=-1
    )
    flat = flat.reshape(flat.shape[0], num_agents, -1)
    weights = np.random.default_rng(0).normal(size=flat.shape[-1])
    return flat @ weights


def _real_batch(kind: str, num_envs: int, auto_reset: bool):
    vec_env = VectorEnv(
        num_envs, scenario=ScenarioConfig(episode_length=8), auto_reset=auto_reset
    )
    if kind == "flat":
        batch = VectorBaselineEnv(vec_env)

        def act(obs, scoring):
            score = _row_policy(obs, batch.num_agents)
            return (np.abs(score) * 1000).astype(int) % batch.num_actions

        return batch, act

    def act(obs, scoring):
        score = np.tanh(_row_policy(obs, vec_env.num_agents))
        return np.stack([0.5 + 0.5 * score, 0.3 * score], axis=-1)

    return vec_env, act


@pytest.mark.parametrize("kind", ["dict", "flat"])
def test_refills_leave_every_episode_as_it_runs_alone(kind):
    """Five seeded episodes on five envs (one each, no refill) equal the
    same episodes refilled through two envs with and without auto-reset,
    and through seven envs of which two run unscored."""
    reset_seeds = [101, 102, 103, 104, 105]
    results = []
    for num_envs, auto_reset in [(5, False), (2, True), (2, False), (7, True)]:
        batch, act = _real_batch(kind, num_envs, auto_reset)
        seeds = [reset_seeds[i] if i < 5 else None for i in range(num_envs)]
        obs = batch.reset(seeds)
        results.append(step_seeded_episodes(batch, obs, reset_seeds, act))
    alone = results[0]
    assert len({s["episode_reward"] for s in alone}) > 1
    for refilled in results[1:]:
        assert refilled == alone


def test_summarise_eval_episodes_means_each_summary_field():
    summaries = [_summary(seed) for seed in (10, 11, 13)]
    assert summarise_eval_episodes(summaries) == {
        "episode_reward": pytest.approx(34 / 3),
        "collision_rate": pytest.approx(2 / 3),
        "success_rate": 0.5,
        "mean_speed": pytest.approx(68 / 3),
    }


def test_summarise_records_groups_consecutive_summaries():
    summaries = [_summary(seed) for seed in (10, 12, 14, 11, 13, 21)]
    metrics = summarise_records(summaries, episodes=3)
    assert metrics == [
        summarise_eval_episodes(summaries[:3]),
        summarise_eval_episodes(summaries[3:]),
    ]
    assert [m["episode_reward"] for m in metrics] == [12.0, 15.0]
