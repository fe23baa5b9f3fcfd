"""Scoring a training run's recorded interleaved evaluations.

The training loops record each greedy evaluation at its cadence point
(:class:`repro.utils.evaluation.EvalRecord`: step, seed, acting
parameters) and score every record after training in one wide greedy
rollout.  The contract under test:

* batching invariance (baselines): scoring K records together equals
  scoring each one alone, and equals a stand-alone
  ``evaluate_marl_vectorized`` on ``eval_episodes`` envs, bitwise;
* the anchor (HERO): one record of one episode equals ``evaluate_hero``
  on a scalar env of the scenario, bitwise;
* restore: after scoring — also when scoring raises midway — the live
  ``state_dict()``, a fused engine's flat buffers and every agent's
  ``_last_observed_options`` hold the bytes they held before;
* step order: HERO's and IDQN's eval series at ``num_envs=8`` are logged
  at exactly ``0, e, 2e, ..., episodes - 1``, in increasing order;
* the cap: more records than ``MAX_SCORED_RECORDS`` score in several
  batches and log the single-batch values (bitwise for a baseline);
* the bus: scoring neither exchanges over a team's
  ``DistributedObservationService`` nor resets it.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.baselines import base as base_module
from repro.baselines import (
    evaluate_marl_vectorized,
    make_baseline,
    train_marl_vectorized,
)
from repro.config import ScenarioConfig, TrainingConfig
from repro.core import BatchedHeroRunner, HeroTeam, UpdateEngine, train_hero
from repro.core import trainer as trainer_module
from repro.core.trainer import evaluate_hero, score_hero_records
from repro.core.update_engine import FamilyAdam, gather_family, scatter_family
from repro.distributed import DistributedObservationService
from repro.envs import CooperativeLaneChangeEnv, EnvReplicaFactory
from repro.envs.wrappers import make_baseline_vector_env
from repro.utils import evaluation
from repro.utils.evaluation import EvalRecord
from repro.utils.logging_utils import MetricLogger

BASELINE_NAMES = ["idqn", "coma", "maddpg", "maac"]
SCENARIO = ScenarioConfig(episode_length=8)


def trained_hero(opponent_mode="model", observation_service=None):
    config = TrainingConfig(seed=0)
    config.scenario = SCENARIO
    env = CooperativeLaneChangeEnv(scenario=SCENARIO)
    team = HeroTeam(
        env,
        np.random.default_rng(0),
        batch_size=8,
        opponent_mode=opponent_mode,
        observation_service=observation_service,
    )
    train_hero(env, team, episodes=2, config=config, eval_every=0)
    return env, team


def trained_baseline(name):
    kwargs = {"batch_size": 16} if name != "coma" else {}
    vec_env = make_baseline_vector_env(1, scenario=SCENARIO)
    algo = make_baseline(name, vec_env, seed=3, **kwargs)
    train_marl_vectorized(vec_env, algo, episodes=2, seed=7, eval_every=0)
    return vec_env, algo


def perturbed(vector, k):
    """Record ``k``'s policy: the live vector for ``k == 0``, otherwise a
    seeded perturbation large enough to change greedy choices."""
    if k == 0:
        return vector
    noise = np.random.default_rng(k).normal(0.0, 0.5, vector.shape)
    return vector + noise.astype(vector.dtype)


def hero_records(team, count):
    """``count`` records of distinct policies, with rolled last-observed
    options."""
    families = team.acting_families()
    observed = [a.high_level._last_observed_options for a in team.agents.values()]
    return [
        EvalRecord(
            step=2 * k,
            seed=100 + k,
            vectors={
                name: perturbed(gather_family(members), k)
                for name, members in families.items()
            },
            last_observed=[(o + k) % 4 for o in observed],
        )
        for k in range(count)
    ]


def baseline_records(algo, count):
    live = gather_family(algo.acting_members())
    return [
        EvalRecord(step=k, seed=100 + k, vectors=perturbed(live, k))
        for k in range(count)
    ]


def live_bytes(controller, engine=None):
    """Everything scoring must leave as it found: parameters, the fused
    engine's flat buffers and (HERO) last-observed options."""
    state = {k: v.tobytes() for k, v in controller.state_dict().items()}
    if engine is not None:
        for name, opt in vars(engine._impl).items():
            if isinstance(opt, FamilyAdam):
                state[f"flat.{name}"] = opt._flat.tobytes()
    for agent_id, agent in getattr(controller, "agents", {}).items():
        state[f"observed.{agent_id}"] = agent.high_level._last_observed_options.tobytes()
    return state


class TestBaselineScoring:
    @pytest.mark.parametrize("name", BASELINE_NAMES)
    def test_batching_invariance(self, name):
        """A record's metrics do not depend on which records share its
        rollout, and equal a stand-alone 3-env evaluation with its vector
        loaded."""
        vec_env, algo = trained_baseline(name)
        build = vec_env.replica_builder()
        records = baseline_records(algo, 3)
        together = base_module.score_marl_records(build, algo, records, 3)
        alone = [base_module.score_marl_records(build, algo, [r], 3)[0] for r in records]
        assert together == alone
        members = algo.acting_members()
        live = gather_family(members)
        for record, metrics in zip(records, together):
            scatter_family(members, record.vectors)
            assert metrics == evaluate_marl_vectorized(build(3), algo, 3, record.seed)
        scatter_family(members, live)

    def test_restores_live_state_also_when_acting_raises(self, monkeypatch):
        vec_env, algo = trained_baseline("idqn")
        engine = UpdateEngine(algo)
        before = live_bytes(algo, engine)
        build = vec_env.replica_builder()
        records = baseline_records(algo, 3)
        base_module.score_marl_records(build, algo, records, 2)
        assert live_bytes(algo, engine) == before

        calls = []
        original = algo.act_batch

        def failing_act_batch(obs, explore=True):
            calls.append(1)
            if len(calls) == 2:  # the second record's snapshot is loaded
                raise RuntimeError("injected acting failure")
            return original(obs, explore=explore)

        monkeypatch.setattr(algo, "act_batch", failing_act_batch)
        with pytest.raises(RuntimeError, match="injected acting failure"):
            base_module.score_marl_records(build, algo, records, 2)
        assert live_bytes(algo, engine) == before


class TestHeroScoring:
    @pytest.mark.parametrize("opponent_mode", ["model", "observed"])
    def test_one_record_of_one_episode_is_evaluate_hero(self, opponent_mode):
        """Scoring a record equals evaluate_hero with the record loaded into
        the team by hand."""
        env, team = trained_hero(opponent_mode)
        factory = EnvReplicaFactory.from_env(env)
        for record in hero_records(team, 5)[1:]:  # none is the live policy
            scored = score_hero_records(factory, team, [record], 1)
            live = copy.deepcopy(team)
            for name, members in live.acting_families().items():
                scatter_family(members, record.vectors[name])
            for agent, observed in zip(live.agents.values(), record.last_observed):
                agent.high_level._last_observed_options = observed
            assert scored == [evaluate_hero(env, live, 1, record.seed)]

    def test_records_score_as_they_would_alone(self):
        """Each record chooses with its own snapshot: scored together they
        read what they read alone (up to BLAS row noise on the skills)."""
        env, team = trained_hero()
        factory = EnvReplicaFactory.from_env(env)
        records = hero_records(team, 3)
        together = score_hero_records(factory, team, records, 2)
        for record, metrics in zip(records, together):
            alone = score_hero_records(factory, team, [record], 2)[0]
            assert metrics == pytest.approx(alone, rel=1e-9, abs=1e-12)

    def test_restores_live_state_also_when_selection_raises(self, monkeypatch):
        env, team = trained_hero(opponent_mode="observed")
        engine = UpdateEngine(team)  # binds the parameters to flat buffers
        observed = [a.high_level._last_observed_options for a in team.agents.values()]
        before = live_bytes(team, engine)
        factory = EnvReplicaFactory.from_env(env)
        records = hero_records(team, 3)
        score_hero_records(factory, team, records, 2)
        assert live_bytes(team, engine) == before
        assert all(
            a.high_level._last_observed_options is o
            for a, o in zip(team.agents.values(), observed)
        )

        calls = []
        original = BatchedHeroRunner.select_options

        def failing_select(self, obs, rows):
            calls.append(1)
            if len(calls) == 2:  # the second record's snapshot is loaded
                raise RuntimeError("injected selection failure")
            return original(self, obs, rows)

        monkeypatch.setattr(BatchedHeroRunner, "select_options", failing_select)
        with pytest.raises(RuntimeError, match="injected selection failure"):
            score_hero_records(factory, team, records, 2)
        assert live_bytes(team, engine) == before

    def test_scoring_leaves_the_bus_alone(self):
        service = DistributedObservationService(
            CooperativeLaneChangeEnv(scenario=SCENARIO).agents,
            latency_steps=2,
            drop_probability=0.3,
            seed=0,
        )
        env, team = trained_hero(observation_service=service)
        assert service.stats()["sent"] > 0
        before = copy.deepcopy(service.__dict__)
        score_hero_records(EnvReplicaFactory.from_env(env), team, hero_records(team, 2), 2)
        after = service.__dict__
        assert service.stats() == {
            "sent": before["sent_count"],
            "dropped": before["dropped_count"],
            "delivered": before["delivered_count"],
            "in_flight": int((before["_ring"] >= 0).sum()),
        }
        np.testing.assert_array_equal(after["_last_known"], before["_last_known"])
        np.testing.assert_array_equal(after["_ring"], before["_ring"])
        assert after["_cursor"] == before["_cursor"]
        assert after["_rng"].bit_generator.state == before["_rng"].bit_generator.state


class TestLoggedSeries:
    def test_records_are_logged_in_step_order(self):
        """A baseline records episodes as they finish, out of order at
        num_envs > 1; each record is logged at its step, in step order."""
        records = [EvalRecord(step, 0, None) for step in (4, 0, 2)]
        logger = MetricLogger()
        metrics = {
            "episode_reward": 1.0, "collision_rate": 0.0,
            "success_rate": 0.0, "mean_speed": 0.0,
        }

        def score(batch):
            return [dict(metrics, episode_reward=float(r.step)) for r in batch]

        evaluation.log_scored_records(records, score, logger, "m")
        assert logger.steps("m/eval_episode_reward").tolist() == [0, 2, 4]
        assert logger.values("m/eval_episode_reward").tolist() == [0.0, 2.0, 4.0]

    def test_eval_steps_follow_the_cadence_in_order(self):
        """At num_envs=8 episodes finish out of order; the eval series are
        still logged at 0, e, 2e, ..., episodes - 1, increasing."""
        episodes, every = 11, 3
        cadence = [0, 3, 6, 9, 10]
        config = TrainingConfig(seed=0)
        config.scenario = SCENARIO
        env = CooperativeLaneChangeEnv(scenario=SCENARIO)
        team = HeroTeam(env, np.random.default_rng(0), batch_size=8)
        logger = train_hero(
            env, team, episodes=episodes, config=config, num_envs=8,
            eval_every=every, eval_episodes=2,
        )
        vec_env = make_baseline_vector_env(8, scenario=SCENARIO)
        algo = make_baseline("idqn", vec_env, seed=3, batch_size=16)
        idqn_logger = train_marl_vectorized(
            vec_env, algo, episodes=episodes, seed=5, eval_every=every, eval_episodes=2
        )
        for log, prefix in ((logger, "hero"), (idqn_logger, "idqn")):
            evals = [name for name in log.names() if name.startswith(f"{prefix}/eval_")]
            assert len(evals) == 4, evals
            for name in evals:
                assert log.steps(name).tolist() == cadence, name

    @pytest.mark.parametrize("method", ["idqn", "hero"])
    def test_more_records_than_the_cap_score_in_batches(self, monkeypatch, method):
        """A cap of 2 scores 5 records in 3 batches and logs what one batch
        logs: bitwise for a baseline, up to BLAS row noise for HERO."""
        default_cap = evaluation.MAX_SCORED_RECORDS

        def run(cap):
            monkeypatch.setattr(evaluation, "MAX_SCORED_RECORDS", cap)
            batches = []
            if method == "idqn":
                module, attr = base_module, "score_marl_records"
            else:
                module, attr = trainer_module, "score_hero_records"
            original = getattr(module, attr)

            def counting(*args):
                batches.append(len(args[2]))
                return original(*args)

            monkeypatch.setattr(module, attr, counting)
            if method == "idqn":
                vec_env = make_baseline_vector_env(2, scenario=SCENARIO)
                algo = make_baseline("idqn", vec_env, seed=3, batch_size=16)
                logger = train_marl_vectorized(
                    vec_env, algo, episodes=9, seed=5, eval_every=2, eval_episodes=2
                )
            else:
                config = TrainingConfig(seed=0)
                config.scenario = SCENARIO
                env = CooperativeLaneChangeEnv(scenario=SCENARIO)
                team = HeroTeam(env, np.random.default_rng(0), batch_size=8)
                logger = train_hero(
                    env, team, episodes=9, config=config, num_envs=2,
                    eval_every=2, eval_episodes=2,
                )
            monkeypatch.setattr(module, attr, original)
            return logger, batches

        capped, capped_batches = run(2)
        single, single_batches = run(default_cap)
        assert capped_batches == [2, 2, 1]
        assert single_batches == [5]
        evals = [name for name in single.names() if "/eval_" in name]
        assert evals
        for name in evals:
            assert capped.steps(name).tolist() == [0, 2, 4, 6, 8]
            if method == "idqn":
                np.testing.assert_array_equal(capped.values(name), single.values(name))
            else:
                np.testing.assert_allclose(
                    capped.values(name), single.values(name), rtol=1e-9, atol=1e-12
                )
