"""Equivalence locks for the fused gradient-update engine.

Three layers of guarantees:

* the **flat optimiser** (``repro.nn.Adam``) is *bitwise* identical to
  the per-parameter loop it replaced (the reference implementation below
  reproduces the historical math expression for expression);
* the **no-graph helpers** (``sample_no_grad``, ``min_q_inference``) are
  bitwise identical to their tape counterparts;
* every **fused update engine** (stacked families + manual VJP) matches
  its per-network reference step (``tests/reference_updates.py``: one
  tape graph and one ``repro.nn.Adam`` per network) within float
  tolerance — unit by unit, and end to end with a reference engine
  substituted for ``UpdateEngine`` in the trainer modules.  Not bitwise,
  because batched BLAS matmuls are not row-wise bit-stable across batch
  sizes (same caveat as the vectorized rollout layer).
"""

from __future__ import annotations

import contextlib
import pickle

import numpy as np
import pytest

from reference_updates import ReferenceEngine, attention_rows
from repro.baselines import base as baselines_base
from repro.baselines import make_baseline, train_marl_vectorized
from repro.config import ScenarioConfig, TrainingConfig
from repro.core import HeroTeam, UpdateEngine, train_hero
from repro.core import low_level as low_level_module
from repro.core import trainer as trainer_module
from repro.core.low_level import SACAgent
from repro.core.update_engine import FamilyAdam, StackedMLP
from repro.core.trainer import train_low_level_skills
from repro.envs import (
    CooperativeLaneChangeEnv,
    make_baseline_env,
    make_baseline_vector_env,
)
from repro.nn.tensor import default_dtype
from repro.nn import (
    MLP,
    Adam,
    Parameter,
    SquashedGaussianPolicy,
    Tensor,
    TwinQNetwork,
    clip_grad_norm,
)
from repro.nn.layers import Linear
from repro.nn.optim import clip_grad_norm_flat, clip_grad_norm_stacked

RNG = np.random.default_rng


# ----------------------------------------------------------------------
# Reference (seed) per-parameter optimiser math
# ----------------------------------------------------------------------
def _seed_adam_step(params, state, grads, lr, betas=(0.9, 0.999), eps=1e-8, wd=0.0):
    beta1, beta2 = betas
    state["t"] += 1
    bias1 = 1.0 - beta1 ** state["t"]
    bias2 = 1.0 - beta2 ** state["t"]
    for value, m, v, grad in zip(params, state["m"], state["v"], grads):
        if grad is None:
            continue
        if wd:
            grad = grad + wd * value
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad**2
        value -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


_SHAPES = [(7, 5), (5,), (5, 3), (3,)]


def _grad_stream(steps, drop_every=None):
    """Deterministic per-step gradients, occasionally dropping one param."""
    rng = RNG(99)
    for step in range(steps):
        grads = [rng.standard_normal(shape) for shape in _SHAPES]
        if drop_every and step % drop_every == 2:
            grads[step % len(grads)] = None
        yield grads


class TestFlatOptimizersBitwise:
    """Flat-buffer steps == per-parameter loops, bit for bit, 100 steps."""

    def _init(self):
        rng = RNG(0)
        values = [rng.standard_normal(shape) for shape in _SHAPES]
        params = [Parameter(value.copy()) for value in values]
        reference = [value.copy() for value in values]
        return params, reference

    def _run(self, opt, params, reference, step_reference):
        for grads in _grad_stream(100, drop_every=3):
            for param, grad in zip(params, grads):
                param.grad = None if grad is None else grad.copy()
            opt.step()
            step_reference(grads)
        for param, value in zip(params, reference):
            assert (param.data == value).all()

    def test_adam(self):
        params, reference = self._init()
        opt = Adam(params, lr=0.01, weight_decay=0.01)
        state = {
            "t": 0,
            "m": [np.zeros_like(v) for v in reference],
            "v": [np.zeros_like(v) for v in reference],
        }
        self._run(
            opt,
            params,
            reference,
            lambda grads: _seed_adam_step(reference, state, grads, 0.01, wd=0.01),
        )

    def test_adam_without_weight_decay(self):
        """The learners' setting: Adam at its defaults, no weight decay."""
        params, reference = self._init()
        opt = Adam(params, lr=0.01)
        state = {
            "t": 0,
            "m": [np.zeros_like(v) for v in reference],
            "v": [np.zeros_like(v) for v in reference],
        }
        self._run(
            opt,
            params,
            reference,
            lambda grads: _seed_adam_step(reference, state, grads, 0.01),
        )

    def test_step_allocates_nothing_per_param(self):
        """The weight-decay path must reuse scratch buffers (in-place)."""
        params, _ = self._init()
        opt = Adam(params, lr=0.01, weight_decay=0.1)
        for param in params:
            param.grad = np.ones_like(param.data)
        opt.step()
        buf_before = opt._buf
        for param in params:
            param.grad = np.ones_like(param.data)
        opt.step()
        assert opt._buf is buf_before  # same scratch buffer, no reallocation

    def test_load_state_dict_resyncs_views(self):
        """Reassigned ``.data`` (load_state_dict) is re-adopted on step."""
        net = MLP(4, [8], 2, RNG(0))
        opt = Adam(net.parameters(), lr=0.01)
        state = {k: v * 2.0 for k, v in net.state_dict().items()}
        net.load_state_dict(state)
        loaded = net.state_dict()
        for param in net.parameters():
            param.grad = np.zeros_like(param.data)
        opt.step()
        for key, value in net.state_dict().items():
            np.testing.assert_array_equal(value, loaded[key])


    def test_pickled_optimizer_keeps_stepping_its_parameters(self):
        """Pickle copies parameter views out of the flat buffer; the
        unpickled optimizer re-adopts them, so a pickled SAC learner and
        its per-network Adams keep training bit for bit like the
        original."""
        agent = SACAgent(
            obs_dim=6, action_dim=2, rng=RNG(1), action_low=np.array([0.0, -0.1]),
            action_high=np.array([0.2, 0.1]), batch_size=32,
        )
        _fill_sac(agent, transitions=64)
        reference = ReferenceEngine(agent)
        reference.update()
        copy, copy_reference = pickle.loads(pickle.dumps((agent, reference)))
        for _ in range(5):
            reference.update()
            copy_reference.update()
        state, copied = agent.state_dict(), copy.state_dict()
        for key in state:
            np.testing.assert_array_equal(copied[key], state[key], err_msg=key)


class TestClipGradNorm:
    def test_flat_matches_loop(self):
        rng = RNG(1)
        grads = [rng.standard_normal(shape) for shape in _SHAPES]
        params = [Parameter(np.zeros(shape)) for shape in _SHAPES]
        for param, grad in zip(params, grads):
            param.grad = grad.copy()
        flat = np.concatenate([g.reshape(-1) for g in grads])
        norm_loop = clip_grad_norm(params, max_norm=1.0)
        norm_flat = clip_grad_norm_flat(flat, max_norm=1.0)
        assert norm_flat == pytest.approx(norm_loop, rel=1e-12)
        clipped_loop = np.concatenate([p.grad.reshape(-1) for p in params])
        np.testing.assert_allclose(flat, clipped_loop, rtol=1e-12)

    def test_flat_noop_below_threshold(self):
        flat = np.full(4, 0.1)
        clip_grad_norm_flat(flat, max_norm=10.0)
        np.testing.assert_allclose(flat, 0.1)

    def test_stacked_matches_per_member_loop(self):
        rng = RNG(2)
        num_members = 3
        stacked = [rng.standard_normal((num_members, 6, 4)) * 3.0,
                   rng.standard_normal((num_members, 1, 4)) * 3.0]
        expected_norms = []
        expected = [g.copy() for g in stacked]
        for k in range(num_members):
            member_params = []
            for grad in expected:
                param = Parameter(np.zeros(grad.shape[1:]))
                param.grad = grad[k]
                member_params.append(param)
            expected_norms.append(clip_grad_norm(member_params, max_norm=1.0))
        norms = clip_grad_norm_stacked(stacked, max_norm=1.0)
        np.testing.assert_allclose(norms, expected_norms, rtol=1e-12)
        for got, want in zip(stacked, expected):
            np.testing.assert_allclose(got, want, rtol=1e-12)


class TestNoGraphHelpers:
    """The tape-free sampling/eval helpers are bitwise equal to the tape."""

    def test_sample_no_grad_matches_sample(self):
        policy = SquashedGaussianPolicy(
            6, 2, RNG(0), action_low=np.array([0.0, -0.1]),
            action_high=np.array([0.2, 0.1]),
        )
        obs = RNG(1).standard_normal((32, 6))
        action_tape, log_prob_tape = policy.sample(obs, RNG(7))
        action_fast, log_prob_fast = policy.sample_no_grad(obs, RNG(7))
        np.testing.assert_array_equal(action_fast, action_tape.data)
        np.testing.assert_array_equal(log_prob_fast, log_prob_tape.data)

    def test_min_q_inference_matches_min_q(self):
        critic = TwinQNetwork(6, 2, RNG(0))
        rng = RNG(3)
        obs = rng.standard_normal((16, 6))
        action = rng.standard_normal((16, 2))
        np.testing.assert_array_equal(
            critic.min_q_inference(obs, action), critic.min_q(obs, action).data
        )


class TestStackedMLP:
    def _family(self, num_members=3):
        members = [MLP(5, [8, 8], 4, RNG(10 + k)) for k in range(num_members)]
        return members, StackedMLP(members)

    def test_forward_matches_members(self):
        members, family = self._family()
        family.bind_members()
        x = RNG(0).standard_normal((3, 12, 5))
        out, _ = family.forward_cached(x)
        for k, member in enumerate(members):
            np.testing.assert_allclose(
                out[k], member(Tensor(x[k])).data, rtol=1e-12
            )
        np.testing.assert_allclose(family.infer(x), out, rtol=1e-12)
        # ``start`` resumes from a caller-computed first affine (pre-ReLU).
        first = x @ family.weights[0].data + family.biases[0].data
        np.testing.assert_allclose(family.infer(first, start=1), out, rtol=1e-12)

    def test_member_views_stay_live(self):
        members, family = self._family()
        opt = FamilyAdam(family.params(), len(members), lr=0.05)
        family.bind_members()
        before = members[0].state_dict()
        for param in family.params():
            param.grad = np.ones_like(param.data)
        opt.step()
        after = members[0].state_dict()
        # The member's parameters alias the family stack: the family step
        # must be visible through the member without any copy.
        assert any((before[k] != after[k]).any() for k in before)

    def test_sync_members_readopts_loaded_state(self):
        members, family = self._family()
        family.bind_members()
        doubled = {k: v * 2.0 for k, v in members[1].state_dict().items()}
        members[1].load_state_dict(doubled)
        family.sync_members()
        x = RNG(5).standard_normal((3, 4, 5))
        np.testing.assert_allclose(
            family.infer(x)[1], members[1](Tensor(x[1])).data, rtol=1e-12
        )

    def test_manual_backward_matches_tape(self):
        """Parameter and input gradients == each member's own tape."""
        members, family = self._family()
        family.bind_members()
        x = RNG(4).standard_normal((3, 12, 5))
        grad_out = RNG(6).standard_normal((3, 12, 4))

        cached, cache = family.forward_cached(x)
        family.zero_grad()
        input_grad = family.backward_cached(
            cache, grad_out.copy(), need_input_grad=True
        )
        for k, member in enumerate(members):
            x_k = Tensor(x[k], requires_grad=True)
            member.zero_grad()
            out = member(x_k)
            np.testing.assert_allclose(cached[k], out.data, rtol=1e-12)
            out.backward(grad_out[k])
            np.testing.assert_allclose(input_grad[k], x_k.grad, rtol=1e-10, atol=1e-12)
            linears = [c for c in member.net.children if isinstance(c, Linear)]
            for weight, bias, lin in zip(family.weights, family.biases, linears):
                np.testing.assert_allclose(
                    weight.grad[k], lin.weight.grad, rtol=1e-10, atol=1e-12
                )
                np.testing.assert_allclose(
                    bias.grad[k, 0], lin.bias.grad, rtol=1e-10, atol=1e-12
                )

    @pytest.mark.parametrize(
        "member, layer",
        [
            (lambda: MLP(5, [8], 4, RNG(0), activation="tanh"), "layer 1 is Tanh"),
            (
                lambda: MLP(5, [8], 4, RNG(0), output_activation="tanh"),
                "layer 3 is Tanh",
            ),
            (
                lambda: _without_bias(MLP(5, [8], 4, RNG(0))),
                "layer 2 is Linear without bias",
            ),
        ],
    )
    def test_rejects_non_relu_members(self, member, layer):
        with pytest.raises(ValueError, match=layer):
            StackedMLP([member()])

    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize(
        "dtype, tol",
        [("float64", dict(rtol=1e-10)), ("float32", dict(rtol=1e-3, atol=1e-5))],
    )
    def test_frozen_input_grad_matches_member_tapes(self, per_row, dtype, tol):
        """The stop-gradient critic pass == the member tapes' action columns
        (float32 against the float64 tapes under the float32 tolerance
        contract)."""
        members = [MLP(9, [8, 8], 1, RNG(20 + k)) for k in range(3)]
        with default_dtype(dtype):
            family_members = [MLP(9, [8, 8], 1, RNG(20 + k)) for k in range(3)]
            family = StackedMLP(family_members)
        batch, starts, width = 12, [0, 3, 6], 3
        x = RNG(8).standard_normal((3, batch, 9))
        if per_row:
            tape_upstream = RNG(9).standard_normal((3, batch, 1))
            upstream = tape_upstream.astype(dtype)
        else:
            upstream = -1.0 / batch
            tape_upstream = np.full((3, batch, 1), upstream)
        _, (_, masks) = family.forward_cached(x)
        grad = family.frozen_input_grad(masks, upstream, starts, width)
        assert grad.shape == (3, batch, width) and grad.dtype == np.dtype(dtype)
        for k, (member, start) in enumerate(zip(members, starts)):
            x_k = Tensor(x[k], requires_grad=True)
            member(x_k).backward(tape_upstream[k])
            np.testing.assert_allclose(
                grad[k], x_k.grad[:, start : start + width], **tol
            )


def _without_bias(member):
    """``member`` with its output Linear rebuilt bias-free."""
    member.net.children[2] = Linear(8, 4, RNG(1), bias=False)
    return member


class TestFamilyAdam:
    def test_masked_steps_match_independent_adams(self):
        """Per-member masking == K independent Adam optimisers."""
        num_members, shape = 3, (4, 2)
        rng = RNG(0)
        init = rng.standard_normal((num_members,) + shape)
        stacked = Parameter(init.copy())
        family_opt = FamilyAdam([stacked], num_members, lr=0.02)
        singles = [Parameter(init[k].copy()) for k in range(num_members)]
        single_opts = [Adam([p], lr=0.02) for p in singles]
        for step in range(40):
            grads = rng.standard_normal((num_members,) + shape)
            active = np.array([True, step % 2 == 0, step % 3 != 0])
            stacked.grad = grads * active[:, None, None]
            family_opt.step(active)
            for k in range(num_members):
                if active[k]:
                    singles[k].grad = grads[k].copy()
                    single_opts[k].step()
        for k in range(num_members):
            np.testing.assert_allclose(
                stacked.data[k], singles[k].data, rtol=1e-10, atol=1e-12
            )


    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("bound", [False, True])
    def test_uneven_counts_all_active_match_masked_bitwise(self, dtype, bound):
        """All members active over uneven step counts: the whole-buffer
        pass with gathered bias corrections == the masked loop, bitwise."""
        num_members = 3
        rng = RNG(5)
        with default_dtype(dtype):
            init = [
                rng.standard_normal((num_members, 4, 3)),
                rng.standard_normal((num_members, 1, 3)),
            ]
            pair = []
            for _ in range(2):
                params = [Parameter(value.copy()) for value in init]
                pair.append((params, FamilyAdam(params, num_members, lr=0.02)))
        (params_a, opt_a), (params_b, opt_b) = pair
        masked_calls = []
        step_masked = opt_a._step_masked
        opt_a._step_masked = lambda active: (
            masked_calls.append(active.copy()), step_masked(active)
        )
        history = [np.array([True, False, True]), np.array([False, False, True])]
        history += [np.ones(num_members, dtype=bool)] * 30
        for step, active in enumerate(history):
            grads = [
                rng.standard_normal(p.data.shape).astype(p.data.dtype)
                for p in params_a
            ]
            if bound:
                opt_a.bind_grads()
            for pa, pb, grad in zip(params_a, params_b, grads):
                if bound:
                    pa.grad[...] = grad
                else:
                    pa.grad = grad.copy()
                pb.grad = grad.copy()
            # All-active steps alternate the two spellings of "everyone".
            opt_a.step(None if active.all() and step % 2 else active)
            if active.all():
                opt_b._t += 1
            else:
                opt_b._t[active] += 1
            opt_b._step_masked(active)
        assert list(opt_a._t) == [31, 30, 32]
        assert len(masked_calls) == 2  # only the two partial rounds
        for name in ("_flat", "_m", "_v"):
            np.testing.assert_array_equal(getattr(opt_a, name), getattr(opt_b, name))
        assert opt_a._flat.dtype == np.dtype(dtype)


# ----------------------------------------------------------------------
# Fused engines vs. the per-network reference steps
# ----------------------------------------------------------------------
# The tolerance contract (docs/ARCHITECTURE.md, "Precision"): float64
# unit steps agree to rtol 1e-6 / atol 1e-9, float32 ones (engine and
# reference both at float32) to rtol 1e-3 / atol 1e-5.
DTYPE_TOLERANCES = pytest.mark.parametrize(
    "dtype, rtol, atol",
    [("float64", 1e-6, 1e-9), ("float32", 1e-3, 1e-5)],
)


def _make_hero_team():
    scenario = ScenarioConfig(episode_length=12)
    config = TrainingConfig(seed=0)
    config.scenario = scenario
    env = CooperativeLaneChangeEnv(scenario=scenario)
    team = HeroTeam(env, RNG(0), batch_size=16)
    # Roll out without updates so both copies start from identical buffers.
    train_hero(
        env, team, episodes=4, config=config, eval_every=0, updates_per_episode=0
    )
    return env, team


def _fill_sac(agent, transitions=200):
    fill = RNG(42)
    for _ in range(transitions):
        agent.buffer.push(
            fill.standard_normal(agent.obs_dim),
            fill.uniform(-0.1, 0.2, agent.action_dim),
            fill.standard_normal(),
            fill.standard_normal(agent.obs_dim),
            fill.uniform() < 0.1,
        )


def _assert_steps_close(reference, engine, steps, rtol=1e-6, atol=1e-9):
    """``steps`` rounds of both; every round's losses agree, key for key."""
    for step in range(steps):
        losses_reference = reference.update()
        losses_engine = engine.update()
        assert set(losses_reference) == set(losses_engine), step
        for key in losses_reference:
            assert np.isclose(
                losses_reference[key], losses_engine[key], rtol=rtol, atol=atol
            ), (step, key)


def _assert_states_close(state_reference, state_engine, rtol=1e-6, atol=1e-9, dtype=None):
    assert state_reference.keys() == state_engine.keys()
    for key in state_reference:
        if dtype is not None:
            assert state_engine[key].dtype == np.dtype(dtype), key
        np.testing.assert_allclose(
            state_reference[key], state_engine[key], rtol=rtol, atol=atol, err_msg=key
        )


class TestFusedEngineEquivalence:
    @pytest.mark.parametrize(
        "dtype, rtol, step_atol, state_atol",
        [("float64", 1e-6, 1e-8, 1e-9), ("float32", 1e-3, 1e-5, 1e-5)],
    )
    def test_hero_team_update(self, dtype, rtol, step_atol, state_atol):
        with default_dtype(dtype):
            _, team_reference = _make_hero_team()
            _, team_engine = _make_hero_team()
            _assert_steps_close(
                ReferenceEngine(team_reference), UpdateEngine(team_engine), 6,
                rtol, step_atol,
            )
        _assert_states_close(
            team_reference.state_dict(), team_engine.state_dict(),
            rtol, state_atol, dtype=dtype,
        )

    def test_sac_update(self):
        def make():
            agent = SACAgent(
                obs_dim=6,
                action_dim=2,
                rng=RNG(1),
                action_low=np.array([0.0, -0.1]),
                action_high=np.array([0.2, 0.1]),
                batch_size=32,
            )
            _fill_sac(agent)
            return agent

        reference, fused = make(), make()
        _assert_steps_close(ReferenceEngine(reference), UpdateEngine(fused), 10)
        _assert_states_close(reference.state_dict(), fused.state_dict())

    @DTYPE_TOLERANCES
    def test_sac_update_ragged_batches(self, dtype, rtol, atol):
        """The trimmed SAC step tracks the reference from the first
        data-starved-but-eligible batch (64 rows of a 256 batch) on."""

        def make():
            with default_dtype(dtype):
                return SACAgent(
                    obs_dim=12, action_dim=2, rng=RNG(4),
                    action_low=np.array([0.04, -0.1]),
                    action_high=np.array([0.14, 0.1]),
                )

        scalar, fused = make(), make()
        with default_dtype(dtype):
            reference = ReferenceEngine(scalar)
            engine = UpdateEngine(fused)
        fill = RNG(9)
        rows_seen = set()
        with default_dtype(dtype):
            for step in range(320):
                transition = (
                    fill.standard_normal(12), fill.uniform(0.04, 0.14, 2),
                    fill.standard_normal(), fill.standard_normal(12),
                    fill.uniform() < 0.1,
                )
                scalar.observe(*transition)
                fused.observe(*transition)
                losses_scalar = reference.update()
                losses_fused = engine.update()
                assert (losses_scalar is None) == (losses_fused is None), step
                if losses_scalar is None:
                    continue
                rows_seen.add(min(len(scalar.buffer), scalar.batch_size))
                for key in losses_scalar:
                    assert np.isclose(
                        losses_scalar[key], losses_fused[key], rtol=rtol, atol=atol
                    ), (step, key)
        assert min(rows_seen) == 64 and max(rows_seen) == 256
        assert scalar._rng.bit_generator.state == fused._rng.bit_generator.state
        _assert_states_close(
            scalar.state_dict(), fused.state_dict(), rtol, atol, dtype=dtype
        )

    def test_one_double_draw_is_the_two_draw_stream(self):
        """The SAC engine's single (2B, d) noise draw replays the
        reference's (B, d) draws for next_obs, then obs."""
        one, two = RNG(11), RNG(11)
        pair = one.standard_normal((2 * 37, 2))
        first, second = two.standard_normal((37, 2)), two.standard_normal((37, 2))
        np.testing.assert_array_equal(pair, np.concatenate([first, second]))
        assert one.bit_generator.state == two.bit_generator.state

    @DTYPE_TOLERANCES
    def test_idqn_update(self, dtype, rtol, atol):
        def make():
            env = make_baseline_env(scenario=ScenarioConfig(episode_length=12))
            algo = make_baseline("idqn", env, seed=0, batch_size=32)
            fill = RNG(7)
            shape = (80, algo.num_agents)
            algo.observe_batch(
                fill.standard_normal(shape + (algo.obs_dim,)),
                fill.integers(0, algo.num_actions, size=shape),
                fill.standard_normal(80),
                fill.standard_normal(shape + (algo.obs_dim,)),
                fill.uniform(size=80) < 0.1,
            )
            return algo

        with default_dtype(dtype):
            reference, fused = make(), make()
            _assert_steps_close(
                ReferenceEngine(reference), UpdateEngine(fused), 8, rtol, atol
            )
        _assert_states_close(
            reference.state_dict(), fused.state_dict(), rtol, atol, dtype=dtype
        )

    @DTYPE_TOLERANCES
    def test_maddpg_update(self, dtype, rtol, atol):
        with default_dtype(dtype):
            reference = _make_joint_baseline("maddpg")
            fused = _make_joint_baseline("maddpg")
            engine = UpdateEngine(fused)
            from repro.core.update_engine import MADDPGUpdateEngine

            assert isinstance(engine._impl, MADDPGUpdateEngine)  # no delegation
            _assert_steps_close(ReferenceEngine(reference), engine, 6, rtol, atol)
        _assert_states_close(
            reference.state_dict(), fused.state_dict(), rtol, atol, dtype=dtype
        )

    @DTYPE_TOLERANCES
    def test_maac_update(self, dtype, rtol, atol):
        with default_dtype(dtype):
            reference = _make_joint_baseline("maac")
            fused = _make_joint_baseline("maac")
            engine = UpdateEngine(fused)
            from repro.core.update_engine import MAACUpdateEngine

            assert isinstance(engine._impl, MAACUpdateEngine)  # no delegation
            _assert_steps_close(ReferenceEngine(reference), engine, 6, rtol, atol)
        _assert_states_close(
            reference.state_dict(), fused.state_dict(), rtol, atol, dtype=dtype
        )

    def test_delegating_engine_for_coma(self):
        """COMA (variable-length episodes) is the only remaining delegation."""
        env = make_baseline_env(scenario=ScenarioConfig(episode_length=12))
        algo = make_baseline("coma", env, seed=0)
        engine = UpdateEngine(algo)
        from repro.core.update_engine import _DelegatingEngine

        assert isinstance(engine._impl, _DelegatingEngine)
        assert engine.update() is None  # no episodes queued -> delegates

    def test_rejects_unknown_targets(self):
        with pytest.raises(TypeError):
            UpdateEngine(object())


class TestMAACCriticHeads:
    """The MAAC engine folds every attention head into one head-major
    pipeline; the per-head tape pass of ``tests/reference_updates.py`` is
    its oracle at head counts other than the default two as well."""

    @DTYPE_TOLERANCES
    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    def test_forward_passes_match_tape_rows(self, num_heads, dtype, rtol, atol):
        """The layered forward and both folded no-grad passes (main critic
        on assembled rows, target critic on gathered action rows) give
        the tape's Q rows."""
        with default_dtype(dtype):
            algo = _make_joint_baseline("maac", num_heads=num_heads)
            impl = UpdateEngine(algo)._impl
        fill = RNG(5)
        batch, n = 9, algo.num_agents
        obs = fill.standard_normal((batch, n, algo.obs_dim)).astype(dtype)
        actions = fill.integers(0, algo.num_actions, (batch, n))
        sa_in = np.concatenate(
            [obs, np.eye(algo.num_actions, dtype=dtype)[actions]], axis=-1
        )

        def tape_rows(critic):
            rows = attention_rows(critic, obs, actions)
            return np.stack([row.data for row in rows], axis=1)

        rows, _ = impl._critic_forward(obs, sa_in)
        folded = impl._critic_infer_folded(
            algo.critic, obs.reshape(batch * n, -1), sa_in.reshape(batch * n, -1),
            actions, batch, n, target=False,
        )
        folded_target = impl._critic_infer_folded(
            algo.target_critic, obs.reshape(batch * n, -1), None,
            actions, batch, n, target=True,
        )
        expected, expected_target = tape_rows(algo.critic), tape_rows(algo.target_critic)
        for got, want in ((rows, expected), (folded, expected), (folded_target, expected_target)):
            assert got.shape == (batch, n, algo.num_actions)
            assert got.dtype == np.dtype(dtype)
            np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)

    @pytest.mark.parametrize("num_heads", [1, 4])
    def test_update_matches_reference(self, num_heads):
        """The closed-form attention VJP keeps the head-major layout of the
        forward: engine steps track the reference at a non-default head
        count."""
        reference = _make_joint_baseline("maac", num_heads=num_heads)
        fused = _make_joint_baseline("maac", num_heads=num_heads)
        _assert_steps_close(ReferenceEngine(reference), UpdateEngine(fused), 4)
        _assert_states_close(reference.state_dict(), fused.state_dict())


def _make_joint_baseline(
    name, seed=0, batch_size=64, fill_seed=3, steps=400, **kwargs
):
    """A MADDPG/MAAC instance with a deterministically filled joint buffer."""
    env = make_baseline_env(scenario=ScenarioConfig(episode_length=12))
    algo = make_baseline(name, env, seed=seed, batch_size=batch_size, **kwargs)
    fill = RNG(fill_seed)
    n, obs_dim, num_actions = algo.num_agents, algo.obs_dim, algo.num_actions
    algo.buffer.push_batch(
        fill.standard_normal((steps, n, obs_dim)),
        fill.integers(0, num_actions, (steps, n)),
        fill.standard_normal((steps, n)),
        fill.standard_normal((steps, n, obs_dim)),
        fill.uniform(size=steps) < 0.1,
    )
    return algo


@contextlib.contextmanager
def _reference_engines():
    """Every trainer module builds a :class:`ReferenceEngine` where it
    builds an ``UpdateEngine`` (forked job workers inherit the patch)."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (trainer_module, baselines_base, low_level_module):
            patch.setattr(module, "UpdateEngine", ReferenceEngine)
        yield


def _assert_series_close(run, metrics, rtol=1e-4, atol=1e-6):
    """``run()`` with reference updates, then with the engines: the named
    series agree within tolerance."""
    with _reference_engines():
        reference = run()
    fused = run()
    for metric in metrics:
        series = reference.values(metric)
        assert len(series), f"{metric} never logged"
        np.testing.assert_allclose(
            series, fused.values(metric), rtol=rtol, atol=atol, err_msg=metric
        )


class TestFusedTrainingEndToEnd:
    """The trainers with their engines follow the trajectories of the same
    trainers with per-network reference updates.

    A few episodes from scratch: RNG consumption is draw-for-draw identical,
    so rollouts coincide and only last-ulp update noise differs; losses and
    returns must agree to tolerance.
    """

    def test_hero_few_episodes(self):
        def run():
            scenario = ScenarioConfig(episode_length=10)
            config = TrainingConfig(seed=3)
            config.scenario = scenario
            env = CooperativeLaneChangeEnv(scenario=scenario)
            team = HeroTeam(env, RNG(3), batch_size=16)
            return train_hero(env, team, episodes=5, config=config, eval_every=0)

        _assert_series_close(run, ("hero/episode_reward", "hero/critic_loss"))

    @staticmethod
    def _baseline_series_close(name, loss):
        def run():
            env = make_baseline_vector_env(1, scenario=ScenarioConfig(episode_length=10))
            algo = make_baseline(name, env, seed=5, batch_size=16)
            return train_marl_vectorized(env, algo, episodes=5, seed=5, eval_every=0)

        _assert_series_close(run, (f"{name}/episode_reward", f"{name}/{loss}"))

    def test_idqn_few_episodes(self):
        self._baseline_series_close("idqn", "vehicle_0/q_loss")

    def test_maddpg_few_episodes(self):
        self._baseline_series_close("maddpg", "vehicle_0/critic_loss")

    def test_maac_few_episodes(self):
        self._baseline_series_close("maac", "critic_loss")

    def test_skill_training_fused(self):
        """train_low_level_skills on the engines matches the reference
        within tolerance (the lane-change skill trains in a forked worker
        where two CPUs are usable)."""

        def run():
            config = TrainingConfig(seed=1)
            config.scenario = ScenarioConfig(episode_length=10)
            skills, _ = train_low_level_skills(config, episodes=2)
            return skills.state_dict()

        with _reference_engines():
            state_reference = run()
        _assert_states_close(state_reference, run(), rtol=1e-5, atol=1e-7)
