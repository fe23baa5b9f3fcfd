"""Tests for the vectorized environment (repro.envs.vector_env).

The contract under test:

* reset/step return stacked arrays with the documented shapes,
* finished environments auto-reset and report their episode summary,
* the fast path agrees **bitwise** with N independent scalar
  ``CooperativeLaneChangeEnv`` instances stepped with the same seeds and
  actions (the vectorized kernels mirror the scalar arithmetic
  elementwise and share the lidar raycast kernel),
* configurations the fast path cannot express fall back to scalar
  stepping with identical results.
"""

import numpy as np
import pytest

from repro.config import RewardConfig, ScenarioConfig
from repro.envs import (
    CooperativeLaneChangeEnv,
    LaneKeepingCruiser,
    ScriptedPolicy,
    StationaryObstacle,
    VectorEnv,
)
from repro.envs.geometry import make_track
from repro.nn.tensor import default_dtype


def random_actions(rng, num_envs, num_agents):
    return rng.uniform([0.0, -0.5], [0.3, 0.5], size=(num_envs, num_agents, 2))


def assert_obs_rows_equal(vec_obs, scalar_obs, env_index, agents):
    for k, agent in enumerate(agents):
        for key, value in scalar_obs[agent].items():
            np.testing.assert_array_equal(
                vec_obs[key][env_index, k],
                value,
                err_msg=f"env {env_index} agent {agent} key {key}",
            )


class TestShapes:
    def setup_method(self):
        self.vec = VectorEnv(3)

    def test_fast_path_active_for_default_config(self):
        assert self.vec.fast_path

    def test_reset_shapes(self):
        obs = self.vec.reset(0)
        cfg = self.vec.scenario
        n, a = 3, cfg.num_learning_vehicles
        assert obs["lidar"].shape == (n, a, cfg.lidar_beams)
        assert obs["speed"].shape == (n, a, 1)
        assert obs["lane_onehot"].shape == (n, a, cfg.num_lanes)
        assert obs["features"].shape[:2] == (n, a)

    def test_step_shapes_and_types(self):
        self.vec.reset(0)
        rng = np.random.default_rng(0)
        obs, rewards, dones, infos = self.vec.step(
            random_actions(rng, 3, self.vec.num_agents)
        )
        assert rewards.shape == (3,)
        assert dones.shape == (3,) and dones.dtype == bool
        assert len(infos) == 3 and all("t" in info for info in infos)
        high = VectorEnv.flatten_high(obs)
        assert high.shape == (3, self.vec.num_agents, self.vec.high_level_obs_dim)
        low = VectorEnv.flatten_low(obs)
        assert low.shape == (3, self.vec.num_agents, self.vec.low_level_obs_dim)

    def test_step_rejects_wrong_shape(self):
        self.vec.reset(0)
        with pytest.raises(ValueError):
            self.vec.step(np.zeros((3, self.vec.num_agents, 3)))
        with pytest.raises(ValueError):
            self.vec.step(np.zeros((2, self.vec.num_agents, 2)))

    def test_unseeded_reset_gives_distinct_envs(self):
        """reset(None) continues per-env RNG streams — they must differ,
        or N parallel envs would collect N copies of the same episode."""
        obs = self.vec.reset()
        assert not np.array_equal(obs["features"][0], obs["features"][1])
        assert not np.array_equal(obs["features"][1], obs["features"][2])

    def test_reset_seed_forms(self):
        obs_int = self.vec.reset(5)
        obs_list = self.vec.reset([5, 6, 7])
        for key in obs_int:
            np.testing.assert_array_equal(obs_int[key], obs_list[key])
        with pytest.raises(ValueError):
            self.vec.reset([1, 2])


class TestScalarAgreement:
    """Bitwise agreement with N independent scalar envs, same seeds."""

    @pytest.mark.parametrize("num_envs", [1, 4])
    def test_bitwise_agreement_with_autoreset(self, num_envs):
        vec = VectorEnv(num_envs)
        assert vec.fast_path
        seeds = [100 + i for i in range(num_envs)]
        scalars = [CooperativeLaneChangeEnv() for _ in range(num_envs)]
        scalar_obs = [env.reset(seed=s) for env, s in zip(scalars, seeds)]
        vec_obs = vec.reset(seeds)
        agents = vec.agents
        for i in range(num_envs):
            assert_obs_rows_equal(vec_obs, scalar_obs[i], i, agents)

        rng = np.random.default_rng(9)
        episodes_seen = 0
        for step in range(120):
            actions = random_actions(rng, num_envs, vec.num_agents)
            vec_obs, vec_rewards, vec_dones, vec_infos = vec.step(actions)
            for i, env in enumerate(scalars):
                action_dict = {
                    agent: actions[i, k] for k, agent in enumerate(agents)
                }
                obs, rewards, dones, info = env.step(action_dict)
                assert rewards[agents[0]] == vec_rewards[i]
                assert dones["__all__"] == vec_dones[i]
                if dones["__all__"]:
                    episodes_seen += 1
                    # Terminal observation and summary must match before the
                    # row is replaced by the autoreset observation.
                    summary = info.get("episode", env.episode_summary())
                    assert vec_infos[i]["episode"] == summary
                    term = vec_infos[i]["terminal_observation"]
                    for k, agent in enumerate(agents):
                        for key, value in obs[agent].items():
                            np.testing.assert_array_equal(term[key][k], value)
                    obs = env.reset()  # scalar mirror of the autoreset
                scalar_obs[i] = obs
                assert_obs_rows_equal(vec_obs, scalar_obs[i], i, agents)
        assert episodes_seen > 0, "rollout never hit an episode boundary"

    def test_crashed_vehicles_stay_frozen_without_auto_reset(self):
        """Without auto-reset a finished env keeps stepping; crashed
        vehicles must stay frozen exactly as the scalar early return does."""
        vec = VectorEnv(1, auto_reset=False)
        scalar = CooperativeLaneChangeEnv()
        vec.reset(5)
        scalar.reset(seed=5)
        agents = vec.agents
        # Put agent 1 on top of agent 0 in both: the next step collides.
        first, second = scalar.vehicle(agents[0]), scalar.vehicle(agents[1])
        second.state.s, second.state.d = first.state.s, first.state.d
        vec._s[0, 1], vec._d[0, 1] = vec._s[0, 0], vec._d[0, 0]
        rng = np.random.default_rng(2)
        for _ in range(4):
            actions = random_actions(rng, 1, vec.num_agents)
            vec_obs, _, vec_dones, _ = vec.step(actions)
            obs, _, _, _ = scalar.step(
                {agent: actions[0, k] for k, agent in enumerate(agents)}
            )
            assert_obs_rows_equal(vec_obs, obs, 0, agents)
        assert vec_dones[0] and first.crashed and second.crashed

    def test_post_step_lane_state_matches_scalar(self):
        vec = VectorEnv(2)
        scalar = CooperativeLaneChangeEnv()
        vec.reset([3, 4])
        scalar.reset(seed=3)
        rng = np.random.default_rng(1)
        actions = random_actions(rng, 2, vec.num_agents)
        vec.step(actions)
        scalar.step({a: actions[0, k] for k, a in enumerate(scalar.agents)})
        for k, agent in enumerate(scalar.agents):
            vehicle = scalar.vehicle(agent)
            assert vec.lane_ids[0, k] == vehicle.lane_id
            assert vec.lane_deviation[0, k] == vehicle.lane_deviation


class TestScriptedPolicyKernels:
    """Fast-path eligibility + bitwise parity for the vectorized scripted
    controllers (SlowLeader is covered by TestScalarAgreement)."""

    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda: LaneKeepingCruiser(),
            lambda: LaneKeepingCruiser(target_speed=0.05, safe_gap=1.2),
            lambda: StationaryObstacle(),
        ],
        ids=["cruiser", "cruiser-tuned", "obstacle"],
    )
    @pytest.mark.parametrize("num_scripted", [1, 2])
    def test_bitwise_agreement(self, make_policy, num_scripted):
        scenario = ScenarioConfig(num_scripted_vehicles=num_scripted)
        vec = VectorEnv(
            2,
            env_fns=[
                lambda: CooperativeLaneChangeEnv(
                    scenario=scenario, scripted_policy=make_policy()
                )
                for _ in range(2)
            ],
        )
        assert vec.fast_path, vec.fallback_reason
        scalars = [
            CooperativeLaneChangeEnv(scenario=scenario, scripted_policy=make_policy())
            for _ in range(2)
        ]
        scalar_obs = [env.reset(seed=60 + i) for i, env in enumerate(scalars)]
        vec_obs = vec.reset([60, 61])
        for i in range(2):
            assert_obs_rows_equal(vec_obs, scalar_obs[i], i, vec.agents)
        rng = np.random.default_rng(6)
        for _ in range(70):  # crosses episode boundaries -> autoreset
            actions = random_actions(rng, 2, vec.num_agents)
            vec_obs, vec_rewards, vec_dones, vec_infos = vec.step(actions)
            for i, env in enumerate(scalars):
                obs, rewards, dones, info = env.step(
                    {a: actions[i, k] for k, a in enumerate(env.agents)}
                )
                assert rewards[env.agents[0]] == vec_rewards[i]
                assert dones["__all__"] == vec_dones[i]
                if dones["__all__"]:
                    summary = info.get("episode", env.episode_summary())
                    assert vec_infos[i]["episode"] == summary
                    obs = env.reset()
                assert_obs_rows_equal(vec_obs, obs, i, vec.agents)

    def test_mismatched_policy_params_fall_back(self):
        cruisers = iter([LaneKeepingCruiser(), LaneKeepingCruiser(safe_gap=2.0)])
        vec = VectorEnv(
            2,
            env_fns=[
                lambda: CooperativeLaneChangeEnv(scripted_policy=next(cruisers))
                for _ in range(2)
            ],
        )
        assert not vec.fast_path
        assert "scripted policy parameters" in vec.fallback_reason

    def test_fast_path_reports_no_reason(self):
        assert VectorEnv(2).fallback_reason is None


class _UnvectorizedPolicy(ScriptedPolicy):
    """A scripted controller the fast path has no kernel for."""

    def act(self, vehicle, others):
        return 0.01, 0.0


def _fallback_vector_env(num_envs, scenario=None):
    """A ``VectorEnv`` on the scalar fallback, plus its env factory."""

    def make_env():
        return CooperativeLaneChangeEnv(
            scenario=scenario, scripted_policy=_UnvectorizedPolicy()
        )

    return VectorEnv(num_envs, env_fns=[make_env] * num_envs), make_env


class TestFallback:
    def test_custom_scripted_policy_uses_fallback(self):
        vec, _ = _fallback_vector_env(2)
        assert not vec.fast_path
        assert "no vectorized kernel" in vec.fallback_reason

    def test_fallback_matches_scalar(self):
        vec, make_env = _fallback_vector_env(2, ScenarioConfig(episode_length=6))
        assert not vec.fast_path
        scalar = make_env()
        vec_obs = vec.reset([11, 12])
        scalar_obs = scalar.reset(seed=11)
        assert_obs_rows_equal(vec_obs, scalar_obs, 0, vec.agents)
        rng = np.random.default_rng(2)
        auto_resets = 0
        for _ in range(8):  # crosses the episode boundary -> autoreset
            actions = random_actions(rng, 2, vec.num_agents)
            vec_obs, vec_rewards, vec_dones, _ = vec.step(actions)
            obs, rewards, dones, _ = scalar.step(
                {a: actions[0, k] for k, a in enumerate(scalar.agents)}
            )
            assert rewards[scalar.agents[0]] == vec_rewards[0]
            assert dones["__all__"] == vec_dones[0]
            if dones["__all__"]:
                auto_resets += 1
                obs = scalar.reset()
            assert_obs_rows_equal(vec_obs, obs, 0, vec.agents)
        assert auto_resets > 0


class _SubclassedEnv(CooperativeLaneChangeEnv):
    """A subclass may override dynamics the stacked kernels would drop."""


# Pairs of env factories whose configurations the stacked kernels cannot
# express together, with the reason the fallback names.
_MIXED_BATCHES = {
    "subclass": (
        [_SubclassedEnv, _SubclassedEnv],
        "is not exactly CooperativeLaneChangeEnv",
    ),
    "scenario": (
        [
            lambda: CooperativeLaneChangeEnv(scenario=ScenarioConfig(episode_length=5)),
            lambda: CooperativeLaneChangeEnv(scenario=ScenarioConfig(episode_length=7)),
        ],
        "differ in scenario or reward",
    ),
    "rewards": (
        [
            lambda: CooperativeLaneChangeEnv(rewards=RewardConfig(alpha=0.3)),
            lambda: CooperativeLaneChangeEnv(rewards=RewardConfig(alpha=0.7)),
        ],
        "differ in scenario or reward",
    ),
    "policy-type": (
        [
            lambda: CooperativeLaneChangeEnv(scripted_policy=LaneKeepingCruiser()),
            lambda: CooperativeLaneChangeEnv(scripted_policy=StationaryObstacle()),
        ],
        "differ in scripted policy type",
    ),
    "track": (
        [
            lambda: CooperativeLaneChangeEnv(track=make_track("straight", 20.0)),
            lambda: CooperativeLaneChangeEnv(track=make_track("straight", 24.0)),
        ],
        "differ in track geometry",
    ),
}


class TestMixedBatches:
    @pytest.mark.parametrize("case", sorted(_MIXED_BATCHES))
    def test_fallback_names_its_reason(self, case):
        env_fns, reason = _MIXED_BATCHES[case]
        vec = VectorEnv(2, env_fns=env_fns)
        assert not vec.fast_path
        assert reason in vec.fallback_reason

    @pytest.mark.parametrize("case", ["scenario", "rewards"])
    def test_each_env_steps_like_its_own_scalar_env(self, case):
        """Heterogeneous envs keep their own episode lengths and rewards
        on the fallback, auto-resets included."""
        env_fns, _ = _MIXED_BATCHES[case]
        vec = VectorEnv(2, env_fns=env_fns)
        scalars = [make_env() for make_env in env_fns]
        vec_obs = vec.reset([31, 32])
        for i, env in enumerate(scalars):
            assert_obs_rows_equal(vec_obs, env.reset(seed=31 + i), i, vec.agents)
        rng = np.random.default_rng(3)
        auto_resets = 0
        for _ in range(16):
            actions = random_actions(rng, 2, vec.num_agents)
            vec_obs, vec_rewards, vec_dones, _ = vec.step(actions)
            for i, env in enumerate(scalars):
                obs, rewards, dones, _ = env.step(
                    {a: actions[i, k] for k, a in enumerate(env.agents)}
                )
                assert rewards[env.agents[0]] == vec_rewards[i]
                assert dones["__all__"] == vec_dones[i]
                if dones["__all__"]:
                    auto_resets += 1
                    obs = env.reset()
                assert_obs_rows_equal(vec_obs, obs, i, vec.agents)
        assert auto_resets > 0


class TestResetEnv:
    def test_seeded_single_env_reset_matches_scalar(self):
        vec = VectorEnv(3)
        vec.reset([1, 2, 3])
        scalar = CooperativeLaneChangeEnv()
        expected = scalar.reset(seed=42)
        row = vec.reset_env(1, seed=42)
        for k, agent in enumerate(scalar.agents):
            for key, value in expected[agent].items():
                np.testing.assert_array_equal(row[key][k], value)

    def test_reset_env_updates_stacked_state(self):
        vec = VectorEnv(2)
        vec.reset([1, 2])
        rng = np.random.default_rng(0)
        vec.step(random_actions(rng, 2, vec.num_agents))
        vec.reset_env(0, seed=9)
        scalar = CooperativeLaneChangeEnv()
        scalar.reset(seed=9)
        actions = random_actions(rng, 2, vec.num_agents)
        vec_obs, _, _, _ = vec.step(actions)
        obs, _, _, _ = scalar.step(
            {a: actions[0, k] for k, a in enumerate(scalar.agents)}
        )
        assert_obs_rows_equal(vec_obs, obs, 0, vec.agents)

    def test_out_of_range_index_rejected(self):
        vec = VectorEnv(2)
        with pytest.raises(IndexError):
            vec.reset_env(2)


class TestStackedResets:
    """Fast-path resets never observe through the scalar env: vehicles are
    placed by the state-only reset and the reset rows come from the stacked
    kernels, bitwise equal to what the scalar env's own reset returns."""

    @staticmethod
    def _count_scalar_observes(monkeypatch) -> list:
        calls = []
        original = CooperativeLaneChangeEnv._observe

        def counting(self, agent):
            calls.append(agent)
            return original(self, agent)

        monkeypatch.setattr(CooperativeLaneChangeEnv, "_observe", counting)
        return calls

    def test_fast_path_resets_make_no_scalar_observation(self, monkeypatch):
        calls = self._count_scalar_observes(monkeypatch)
        vec = VectorEnv(3, scenario=ScenarioConfig(episode_length=4))
        assert vec.fast_path
        vec.reset([1, 2, 3])
        vec.reset()
        vec.reset_env(1, seed=4)
        vec.reset_env(2)
        rng = np.random.default_rng(0)
        auto_resets = 0
        for _ in range(9):
            _, _, dones, _ = vec.step(random_actions(rng, 3, vec.num_agents))
            auto_resets += int(dones.sum())
        assert auto_resets > 0
        assert calls == []

    def test_fallback_resets_still_observe_through_the_scalar_env(self, monkeypatch):
        calls = self._count_scalar_observes(monkeypatch)
        vec, _ = _fallback_vector_env(2)
        assert not vec.fast_path
        vec.reset([1, 2])
        assert len(calls) > 0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_reset_rows_bitwise_equal_scalar_reset(self, dtype):
        scenario = ScenarioConfig(episode_length=3)
        scalars = [CooperativeLaneChangeEnv(scenario=scenario) for _ in range(3)]

        def assert_rows(rows, scalar_obs):
            for key, value in rows.items():
                want = np.stack([scalar_obs[agent][key] for agent in vec.agents])
                assert value.dtype == dtype
                assert value.tobytes() == want.astype(dtype).tobytes(), key

        with default_dtype(dtype):
            vec = VectorEnv(3, scenario=scenario)
            obs = vec.reset([7, 8, 9])
            for i, seed in enumerate([7, 8, 9]):
                assert_rows({k: v[i] for k, v in obs.items()}, scalars[i].reset(seed=seed))
            assert_rows(vec.reset_env(2, seed=11), scalars[2].reset(seed=11))

            # Auto-resets continue each env's stream, like a scalar reset().
            rng = np.random.default_rng(3)
            auto_resets = 0
            for _ in range(7):
                actions = random_actions(rng, 3, vec.num_agents)
                obs, _, dones, _ = vec.step(actions)
                for i, env in enumerate(scalars):
                    _, _, done, _ = env.step(
                        {a: actions[i, k] for k, a in enumerate(vec.agents)}
                    )
                    assert done["__all__"] == dones[i]
                    if dones[i]:
                        auto_resets += 1
                        assert_rows({k: v[i] for k, v in obs.items()}, env.reset())
            assert auto_resets >= 3


class TestSyncToEnvs:
    def test_sync_writes_vehicle_state_back(self):
        vec = VectorEnv(2)
        vec.reset([1, 2])
        rng = np.random.default_rng(0)
        for _ in range(3):
            vec.step(random_actions(rng, 2, vec.num_agents))
        vec.sync_to_envs()
        for i, env in enumerate(vec.envs):
            for k, agent in enumerate(env.agents):
                vehicle = env.vehicle(agent)
                assert vehicle.state.s == vec._s[i, k]
                assert vehicle.state.d == vec._d[i, k]
            assert env._t == 3
