"""Tolerance contract for the ``--dtype float32`` compute path (ISSUE 9).

The guarantees under test, as documented in docs/ARCHITECTURE.md
(Precision):

* **float64 stays the seed** — the default dtype is float64 and running
  under an explicit ``default_dtype("float64")`` context is bitwise
  identical to running with no context at all;
* **float32 is tolerance-equivalent** — the optimiser, the stacked-family
  VJP and few-episode end-to-end training (HERO synchronous and async,
  IDQN, MADDPG and MAAC) reproduce the float64 numbers within the documented bounds;
* **no silent upcasts** — float32 stays float32 through the optimiser
  state, the fused VJP and the replay-buffer boundary (one cast at
  ``push``, none at ``sample``);
* **footprints halve** — parameter-server segments and checkpoint
  payloads shrink ~2x at float32.

Checkpoint format coverage rides along: format 2 records the dtype and
round-trips both precisions bitwise; format 1 archives (which predate
the field) load as float64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RewardConfig, ScenarioConfig
from repro.core.update_engine import StackedMLP
from repro.distributed.parameter_server import ParameterServer
from repro.experiments.common import train_baseline_method, train_hero_method
from repro.nn import MLP, Adam, Parameter
from repro.nn.tensor import default_dtype, get_default_dtype
from repro.serving import load_checkpoint, load_policy, save_checkpoint
from repro.training.replay import (
    ObservationHistoryBuffer,
    OptionReplayBuffer,
    OptionTransition,
    ReplayBuffer,
)

RNG = np.random.default_rng

# The contract's end-to-end bound: per-episode rewards of identically
# seeded few-episode runs.  Discrete actions and float64 env physics keep
# the trajectories in lockstep at this scale, so the divergence is pure
# float32 rounding (observed ~1e-7); 1e-3 leaves noise margin without
# letting a genuinely broken kernel through.
EPISODE_REWARD_ATOL = 1e-3

SCENARIO = ScenarioConfig(num_learning_vehicles=2, episode_length=15)


def _train_hero(dtype=None, **kwargs):
    ctx = default_dtype(dtype) if dtype else _null_context()
    with ctx:
        trained = train_hero_method(
            SCENARIO,
            RewardConfig(),
            episodes=3,
            skill_episodes=2,
            seed=0,
            batch_size=32,
            updates_per_episode=1,
            **kwargs,
        )
    return trained.logger


def _train_idqn(dtype=None):
    ctx = default_dtype(dtype) if dtype else _null_context()
    with ctx:
        trained = train_baseline_method(
            "idqn", SCENARIO, RewardConfig(), episodes=3, seed=0
        )
    return trained.logger


def _train_fused_baseline(name, dtype=None):
    """A baseline run on its fused engine; returns the full TrainedMethod."""
    ctx = default_dtype(dtype) if dtype else _null_context()
    with ctx:
        return train_baseline_method(
            name,
            SCENARIO,
            RewardConfig(),
            episodes=3,
            seed=0,
            batch_size=16,
        )


class _null_context:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def _assert_logs_close(log64, log32, atol):
    assert log64.names() == log32.names()
    for metric in log64.names():
        np.testing.assert_allclose(
            log64.values(metric),
            log32.values(metric),
            atol=atol,
            rtol=0,
            err_msg=metric,
        )


def _assert_logs_equal(log_a, log_b):
    assert log_a.names() == log_b.names()
    for metric in log_a.names():
        np.testing.assert_array_equal(
            log_a.values(metric), log_b.values(metric), err_msg=metric
        )


# ---------------------------------------------------------------------------
# Optimiser: float32 tracks float64 and never upcasts its state
# ---------------------------------------------------------------------------


def _run_optimizer(dtype: str, steps: int = 50):
    master = [RNG(7 + k).standard_normal((6, 4)) for k in range(3)]
    grads = [RNG(70 + k).standard_normal((steps, 6, 4)) for k in range(3)]
    with default_dtype(dtype):
        params = [Parameter(m.astype(dtype)) for m in master]
        opt = Adam(params, lr=0.01)
        for t in range(steps):
            for param, grad in zip(params, grads):
                param.grad = grad[t].astype(dtype)
            opt.step()
            opt.zero_grad()
    return params


class TestOptimizerTolerance:
    def test_float32_tracks_float64(self):
        p64 = _run_optimizer("float64")
        p32 = _run_optimizer("float32")
        for a, b in zip(p64, p32):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-3, atol=1e-5)

    def test_float32_state_never_upcasts(self):
        for param in _run_optimizer("float32", steps=5):
            assert param.data.dtype == np.float32


# ---------------------------------------------------------------------------
# Stacked-family VJP: float32 forward/backward within tolerance, no upcast
# ---------------------------------------------------------------------------


def _family_pair():
    """The same 3-member MLP family materialised at both precisions."""
    members64 = [MLP(5, [8, 8], 4, RNG(10 + k)) for k in range(3)]
    with default_dtype("float32"):
        members32 = [MLP(5, [8, 8], 4, RNG(10 + k)) for k in range(3)]
    for m64, m32 in zip(members64, members32):
        m32.load_state_dict(
            {k: v.astype(np.float32) for k, v in m64.state_dict().items()}
        )
    # Families (like Parameters) adopt the ambient dtype at construction,
    # so the float32 one must be built inside the context too.
    with default_dtype("float32"):
        family32 = StackedMLP(members32)
    return StackedMLP(members64), family32


class TestStackedVJPTolerance:
    def test_forward_and_backward_track_float64(self):
        family64, family32 = _family_pair()
        x = RNG(4).standard_normal((3, 12, 5))
        grad_out = RNG(6).standard_normal((3, 12, 4))

        out64, cache64 = family64.forward_cached(x)
        family64.zero_grad()
        family64.backward_cached(cache64, grad_out)

        out32, cache32 = family32.forward_cached(x.astype(np.float32))
        family32.zero_grad()
        family32.backward_cached(cache32, grad_out.astype(np.float32))

        np.testing.assert_allclose(out64, out32, rtol=1e-4, atol=1e-6)
        for p64, p32 in zip(family64.params(), family32.params()):
            np.testing.assert_allclose(p64.grad, p32.grad, rtol=1e-3, atol=1e-5)

    def test_float32_vjp_never_upcasts(self):
        _, family32 = _family_pair()
        assert family32.dtype == np.float32
        x32 = RNG(4).standard_normal((3, 12, 5)).astype(np.float32)
        out32, cache32 = family32.forward_cached(x32)
        assert out32.dtype == np.float32
        family32.zero_grad()
        family32.backward_cached(cache32, np.ones_like(out32))
        for param in family32.params():
            assert param.grad.dtype == np.float32


# ---------------------------------------------------------------------------
# End-to-end few-episode equivalence (HERO sync / async, the baselines)
# ---------------------------------------------------------------------------


class TestEndToEndEquivalence:
    def test_hero(self):
        _assert_logs_close(
            _train_hero("float64"), _train_hero("float32"), EPISODE_REWARD_ATOL
        )

    def test_hero_async(self):
        # One lockstep actor: a staleness run is scheduling-dependent, so
        # it cannot be compared across dtypes.
        kwargs = dict(num_envs=2, async_actors=True)
        _assert_logs_close(
            _train_hero("float64", **kwargs),
            _train_hero("float32", **kwargs),
            EPISODE_REWARD_ATOL,
        )

    def test_idqn(self):
        _assert_logs_close(
            _train_idqn("float64"), _train_idqn("float32"), EPISODE_REWARD_ATOL
        )

    @pytest.mark.parametrize("name", ["maddpg", "maac"])
    def test_cross_family_fused(self, name):
        """--dtype float32 composes for the cross-family
        VJP engines (MADDPG/MAAC) under the same end-to-end bound."""
        _assert_logs_close(
            _train_fused_baseline(name, "float64").logger,
            _train_fused_baseline(name, "float32").logger,
            EPISODE_REWARD_ATOL,
        )

    @pytest.mark.parametrize("name", ["maddpg", "maac"])
    def test_cross_family_fused_float32_never_upcasts(self, name):
        trained = _train_fused_baseline(name, "float32")
        for key, value in trained.controller.state_dict().items():
            assert value.dtype == np.float32, key


# ---------------------------------------------------------------------------
# The float64 default is the seed, bit for bit
# ---------------------------------------------------------------------------


class TestFloat64SeedLock:
    def test_default_dtype_is_float64(self):
        assert np.dtype(get_default_dtype()) == np.float64

    def test_hero_default_matches_explicit_float64_bitwise(self):
        _assert_logs_equal(_train_hero(None), _train_hero("float64"))

    def test_idqn_default_matches_explicit_float64_bitwise(self):
        _assert_logs_equal(_train_idqn(None), _train_idqn("float64"))

    @pytest.mark.parametrize("name", ["maddpg", "maac"])
    def test_cross_family_fused_default_matches_float64_bitwise(self, name):
        _assert_logs_equal(
            _train_fused_baseline(name, None).logger,
            _train_fused_baseline(name, "float64").logger,
        )


# ---------------------------------------------------------------------------
# Replay boundary: one cast at push, none at sample
# ---------------------------------------------------------------------------


class TestReplayDtypeBoundary:
    def test_option_buffer_follows_compute_dtype(self):
        with default_dtype("float32"):
            buffer = OptionReplayBuffer(capacity=8, obs_dim=3, num_opponents=2)
        assert buffer.obs.dtype == np.float32
        # float64 producers (env physics) cast once at the push boundary.
        buffer.push(
            OptionTransition(
                obs=np.ones(3, dtype=np.float64),
                option=1,
                other_options=np.zeros(2, dtype=np.int64),
                reward=np.float64(0.5),
                next_obs=np.ones(3, dtype=np.float64),
                done=False,
                steps=2,
            )
        )
        batch = buffer.sample(1, RNG(0))
        for key in ("obs", "rewards", "next_obs", "dones"):
            assert batch[key].dtype == np.float32, key
        assert batch["options"].dtype == np.int64

    def test_history_buffer_follows_compute_dtype(self):
        with default_dtype("float32"):
            buffer = ObservationHistoryBuffer(capacity=8, obs_dim=3, num_opponents=2)
        assert buffer.obs.dtype == np.float32

    def test_base_buffer_sample_keeps_storage_dtype(self):
        buffer = ReplayBuffer(capacity=8, obs_dim=3, action_dim=2)
        buffer.push(
            np.ones(3, dtype=np.float64),
            np.ones(2, dtype=np.float64),
            0.5,
            np.ones(3, dtype=np.float64),
            False,
        )
        batch = buffer.sample(1, RNG(0))
        for key in ("obs", "actions", "rewards", "next_obs", "dones"):
            assert batch[key].dtype == np.float32, key


# ---------------------------------------------------------------------------
# Checkpoint formats: v2 records dtype, v1 loads as float64
# ---------------------------------------------------------------------------


def _fresh_team(dtype: str):
    from repro import HeroTeam
    from repro.envs import CooperativeLaneChangeEnv

    with default_dtype(dtype):
        env = CooperativeLaneChangeEnv(scenario=SCENARIO)
        return HeroTeam(env, RNG(3))


class TestCheckpointDtype:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_v2_roundtrip_preserves_dtype_bitwise(self, dtype, tmp_path):
        team = _fresh_team(dtype)
        path = tmp_path / "team.npz"
        with default_dtype(dtype):
            save_checkpoint(path, team, scenario=SCENARIO)
        ckpt = load_checkpoint(path)
        assert ckpt.meta["dtype"] == dtype
        assert ckpt.dtype == np.dtype(dtype)
        loaded = load_policy(path)
        for key, value in loaded.controller.state_dict().items():
            expected = team.state_dict()[key]
            assert value.dtype == expected.dtype, key
            np.testing.assert_array_equal(value, expected, err_msg=key)

    def test_v1_archive_loads_as_float64(self, tmp_path):
        team = _fresh_team("float64")
        path = tmp_path / "team.npz"
        save_checkpoint(path, team, scenario=SCENARIO)
        # Rewrite as a format-1 archive: version 1 predates the dtype
        # field, so strip it from the metadata too.
        from repro.distributed.protocol import decode_json_meta, encode_json_meta

        with np.load(path) as archive:
            entries = {name: archive[name] for name in archive.files}
        meta = decode_json_meta(entries["meta"])
        del meta["dtype"]
        entries["meta"] = encode_json_meta(meta)
        entries["format_version"] = np.int64(1)
        np.savez(path, **entries)

        ckpt = load_checkpoint(path)
        assert ckpt.dtype == np.float64
        assert ckpt.flat_params.dtype == np.float64
        loaded = load_policy(path)
        for value in loaded.controller.state_dict().values():
            assert value.dtype == np.float64

    def test_checkpoint_info_prints_dtype(self, tmp_path, capsys):
        from repro.cli import main

        team = _fresh_team("float32")
        path = tmp_path / "team.npz"
        with default_dtype("float32"):
            save_checkpoint(path, team, scenario=SCENARIO)
        assert main(["checkpoint", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "float32 values" in out


# ---------------------------------------------------------------------------
# Footprints halve at float32
# ---------------------------------------------------------------------------


class TestFootprintHalving:
    def test_parameter_server_segment_halves(self):
        def segment_size(dtype):
            server = ParameterServer({"team": 100_000}, num_rngs=2, dtype=dtype)
            try:
                return server._shm.size
            finally:
                server.release()

        size64 = segment_size(np.float64)
        size32 = segment_size(np.float32)
        # Double-buffered param block dominates; header/RNG rows are flat.
        assert size32 < 0.6 * size64

    def test_checkpoint_payload_halves(self, tmp_path):
        team64 = _fresh_team("float64")
        team32 = _fresh_team("float32")
        path64 = tmp_path / "t64.npz"
        path32 = tmp_path / "t32.npz"
        save_checkpoint(path64, team64, scenario=SCENARIO)
        with default_dtype("float32"):
            save_checkpoint(path32, team32, scenario=SCENARIO)
        flat64 = load_checkpoint(path64).flat_params
        flat32 = load_checkpoint(path32).flat_params
        assert flat64.size == flat32.size
        assert flat32.nbytes * 2 == flat64.nbytes
