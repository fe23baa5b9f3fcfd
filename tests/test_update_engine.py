"""Equivalence locks for the fused gradient-update engine (ISSUE 4).

Three layers of guarantees:

* the **flat optimisers** in ``repro.nn.optim`` are *bitwise* identical to
  the per-parameter loops they replaced (reference implementations below
  reproduce the historical math expression for expression);
* the **no-graph helpers** (``sample_no_grad``, ``min_q_inference``) are
  bitwise identical to their tape counterparts;
* the **fused update engine** (stacked families + manual VJP) matches the
  default per-network update loop within float tolerance — not bitwise,
  because batched BLAS matmuls are not row-wise bit-stable across batch
  sizes (same caveat as the vectorized rollout layer).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.baselines import make_baseline, train_marl_vectorized
from repro.config import ScenarioConfig, TrainingConfig
from repro.core import HeroTeam, UpdateEngine, train_hero
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
    RMSprop,
    SGD,
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
def _seed_sgd_step(params, velocity, grads, lr, momentum, weight_decay):
    for value, vel, grad in zip(params, velocity, grads):
        if grad is None:
            continue
        if weight_decay:
            grad = grad + weight_decay * value
        if momentum:
            vel *= momentum
            vel += grad
            grad = vel
        value -= lr * grad


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


def _seed_rmsprop_step(params, sqs, grads, lr, alpha=0.99, eps=1e-8):
    for value, sq, grad in zip(params, sqs, grads):
        if grad is None:
            continue
        sq *= alpha
        sq += (1.0 - alpha) * grad**2
        value -= lr * grad / (np.sqrt(sq) + eps)


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

    def _run(self, opt, params, reference, step_reference, drop_every=3):
        for grads in _grad_stream(100, drop_every=drop_every):
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

    def test_sgd_momentum(self):
        params, reference = self._init()
        opt = SGD(params, lr=0.05, momentum=0.9, weight_decay=0.001)
        velocity = [np.zeros_like(v) for v in reference]
        self._run(
            opt,
            params,
            reference,
            lambda grads: _seed_sgd_step(
                reference, velocity, grads, 0.05, 0.9, 0.001
            ),
        )

    def test_rmsprop(self):
        params, reference = self._init()
        opt = RMSprop(params, lr=0.01)
        sqs = [np.zeros_like(v) for v in reference]
        self._run(
            opt,
            params,
            reference,
            lambda grads: _seed_rmsprop_step(reference, sqs, grads, 0.01),
            drop_every=None,
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
        unpickled optimizer re-adopts them, so a pickled SAC learner keeps
        training bit for bit like the original."""
        agent = SACAgent(
            obs_dim=6, action_dim=2, rng=RNG(1), action_low=np.array([0.0, -0.1]),
            action_high=np.array([0.2, 0.1]), batch_size=32,
        )
        _fill_sac(agent, transitions=64)
        agent.update()
        copy = pickle.loads(pickle.dumps(agent))
        for _ in range(5):
            agent.update()
            copy.update()
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
# Fused engine vs. the default per-network update loop
# ----------------------------------------------------------------------
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


class TestFusedEngineEquivalence:
    def test_hero_team_update(self):
        _, team_scalar = _make_hero_team()
        _, team_fused = _make_hero_team()
        engine = UpdateEngine(team_fused)
        for step in range(6):
            scalar = team_scalar.update()
            fused = engine.update()
            assert set(scalar) == set(fused)
            for key in scalar:
                assert np.isclose(scalar[key], fused[key], rtol=1e-6, atol=1e-8), (
                    step,
                    key,
                )
        state_scalar = team_scalar.state_dict()
        state_fused = team_fused.state_dict()
        for key in state_scalar:
            np.testing.assert_allclose(
                state_scalar[key], state_fused[key], rtol=1e-6, atol=1e-9,
                err_msg=key,
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

        scalar, fused = make(), make()
        engine = UpdateEngine(fused)
        for step in range(10):
            losses_scalar = scalar.update()
            losses_fused = engine.update()
            for key in losses_scalar:
                assert np.isclose(
                    losses_scalar[key], losses_fused[key], rtol=1e-6, atol=1e-9
                ), (step, key)
        state_scalar, state_fused = scalar.state_dict(), fused.state_dict()
        for key in state_scalar:
            np.testing.assert_allclose(
                state_scalar[key], state_fused[key], rtol=1e-6, atol=1e-9,
                err_msg=key,
            )

    @pytest.mark.parametrize(
        "dtype, rtol, atol",
        [("float64", 1e-6, 1e-9), ("float32", 1e-3, 1e-5)],
    )
    def test_sac_update_ragged_batches(self, dtype, rtol, atol):
        """The trimmed SAC step tracks SACAgent.update from the first
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
                losses_scalar = scalar.update()
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
        state_scalar, state_fused = scalar.state_dict(), fused.state_dict()
        for key in state_scalar:
            assert state_fused[key].dtype == np.dtype(dtype), key
            np.testing.assert_allclose(
                state_scalar[key], state_fused[key], rtol=rtol, atol=atol,
                err_msg=key,
            )

    def test_one_double_draw_is_the_two_draw_stream(self):
        """The SAC engine's single (2B, d) noise draw replays the scalar
        loop's (B, d) draws for next_obs, then obs."""
        one, two = RNG(11), RNG(11)
        pair = one.standard_normal((2 * 37, 2))
        first, second = two.standard_normal((37, 2)), two.standard_normal((37, 2))
        np.testing.assert_array_equal(pair, np.concatenate([first, second]))
        assert one.bit_generator.state == two.bit_generator.state

    def test_idqn_update(self):
        def make():
            env = make_baseline_env(scenario=ScenarioConfig(episode_length=12))
            algo = make_baseline("idqn", env, seed=0, batch_size=32)
            fill = RNG(7)
            for _ in range(80):
                obs = {a: fill.standard_normal(algo.obs_dim) for a in algo.agent_ids}
                nxt = {a: fill.standard_normal(algo.obs_dim) for a in algo.agent_ids}
                acts = {
                    a: int(fill.integers(0, algo.num_actions))
                    for a in algo.agent_ids
                }
                rews = {a: float(fill.standard_normal()) for a in algo.agent_ids}
                dones = {a: bool(fill.uniform() < 0.1) for a in algo.agent_ids}
                dones["__all__"] = False
                algo.observe(obs, acts, rews, nxt, dones)
            return algo

        scalar, fused = make(), make()
        engine = UpdateEngine(fused)
        for step in range(8):
            losses_scalar = scalar.update()
            losses_fused = engine.update()
            assert set(losses_scalar) == set(losses_fused)
            for key in losses_scalar:
                assert np.isclose(
                    losses_scalar[key], losses_fused[key], rtol=1e-6, atol=1e-9
                ), (step, key)
        for agent_id in scalar.agent_ids:
            scalar_net = dict(scalar.q_networks[agent_id].named_parameters())
            fused_net = dict(fused.q_networks[agent_id].named_parameters())
            for name in scalar_net:
                np.testing.assert_allclose(
                    scalar_net[name].data,
                    fused_net[name].data,
                    rtol=1e-6,
                    atol=1e-9,
                    err_msg=f"{agent_id}.{name}",
                )

    def test_maddpg_update(self):
        scalar, fused = _make_joint_baseline("maddpg"), _make_joint_baseline("maddpg")
        engine = UpdateEngine(fused)
        from repro.core.update_engine import MADDPGUpdateEngine

        assert isinstance(engine._impl, MADDPGUpdateEngine)  # no delegation
        for step in range(6):
            losses_scalar = scalar.update()
            losses_fused = engine.update()
            assert set(losses_scalar) == set(losses_fused)
            for key in losses_scalar:
                assert np.isclose(
                    losses_scalar[key], losses_fused[key], rtol=1e-6, atol=1e-9
                ), (step, key)
        state_scalar, state_fused = scalar.state_dict(), fused.state_dict()
        for key in state_scalar:
            np.testing.assert_allclose(
                state_scalar[key], state_fused[key], rtol=1e-6, atol=1e-9,
                err_msg=key,
            )

    def test_maac_update(self):
        scalar, fused = _make_joint_baseline("maac"), _make_joint_baseline("maac")
        engine = UpdateEngine(fused)
        from repro.core.update_engine import MAACUpdateEngine

        assert isinstance(engine._impl, MAACUpdateEngine)  # no delegation
        for step in range(6):
            losses_scalar = scalar.update()
            losses_fused = engine.update()
            assert set(losses_scalar) == set(losses_fused)
            for key in losses_scalar:
                assert np.isclose(
                    losses_scalar[key], losses_fused[key], rtol=1e-6, atol=1e-9
                ), (step, key)
        state_scalar, state_fused = scalar.state_dict(), fused.state_dict()
        for key in state_scalar:
            np.testing.assert_allclose(
                state_scalar[key], state_fused[key], rtol=1e-6, atol=1e-9,
                err_msg=key,
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


def _make_joint_baseline(name, seed=0, batch_size=64, fill_seed=3, steps=400):
    """A MADDPG/MAAC instance with a deterministically filled joint buffer."""
    env = make_baseline_env(scenario=ScenarioConfig(episode_length=12))
    algo = make_baseline(name, env, seed=seed, batch_size=batch_size)
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


class TestMAACInferPath:
    """The no-grad TD-target kernels leave the default path bitwise intact."""

    def test_infer_bitwise_equals_forward(self):
        algo = _make_joint_baseline("maac")
        fill = RNG(11)
        obs = fill.standard_normal((17, algo.num_agents, algo.obs_dim)).astype(
            algo.buffer.obs.dtype
        )
        actions = fill.integers(0, algo.num_actions, (17, algo.num_agents))
        tape_rows = algo.critic(obs, actions)
        infer_rows = algo.critic.infer(obs, actions)
        for i in range(algo.num_agents):
            assert infer_rows[i].dtype == tape_rows[i].data.dtype
            np.testing.assert_array_equal(infer_rows[i], tape_rows[i].data)

    def test_default_update_bitwise_vs_tape_targets(self):
        """MAAC.update == the pre-infer build (tape TD targets), bit for bit."""
        current, reference = _make_joint_baseline("maac"), _make_joint_baseline("maac")
        for _ in range(3):
            losses_current = current.update()
            losses_reference = _maac_update_tape_targets(reference)
            assert losses_current == losses_reference
        state_current, state_reference = current.state_dict(), reference.state_dict()
        for key in state_current:
            np.testing.assert_array_equal(
                state_current[key], state_reference[key], err_msg=key
            )


def _maac_update_tape_targets(algo):
    """``MAAC.update`` as built before the infer swap: TD-target rows from
    the tape forward (nodes built, never backpropped).  Kept verbatim as the
    bitwise reference for the default path."""
    from repro.nn import (
        Tensor,
        clip_grad_norm,
        entropy_from_logits,
        mse_loss,
        sample_categorical,
        soft_update,
    )
    from repro.nn.functional import log_softmax
    from repro.baselines.maac import _logsumexp_rows

    if len(algo.buffer) < max(algo.batch_size // 4, 8):
        return None
    batch = algo.buffer.sample(algo.batch_size, algo._rng)
    batch_size = len(batch["dones"])
    n = algo.num_agents

    next_actions = np.zeros((batch_size, n), dtype=np.int64)
    next_log_probs = np.zeros((batch_size, n))
    for i in range(n):
        logits = algo.actor.logits_inference(
            algo._actor_input(batch["next_obs"][:, i], i)
        )
        next_actions[:, i] = sample_categorical(logits, algo._rng)
        row_log_probs = logits - _logsumexp_rows(logits)
        next_log_probs[:, i] = np.take_along_axis(
            row_log_probs, next_actions[:, i][:, None], axis=-1
        )[:, 0]

    target_rows = algo.target_critic(batch["next_obs"], next_actions)
    critic_rows = algo.critic(batch["obs"], batch["actions"])

    critic_loss_total = None
    for i in range(n):
        target_q = np.take_along_axis(
            target_rows[i].data, next_actions[:, i][:, None], axis=-1
        )[:, 0]
        soft_target = target_q - algo.alpha * next_log_probs[:, i]
        y = batch["rewards"][:, i] + algo.gamma * (1.0 - batch["dones"]) * soft_target
        q_chosen = critic_rows[i].gather(
            batch["actions"][:, i][:, None], axis=-1
        ).squeeze(-1)
        loss = mse_loss(q_chosen, y)
        critic_loss_total = (
            loss if critic_loss_total is None else critic_loss_total + loss
        )

    algo.critic_opt.zero_grad()
    critic_loss_total.backward()
    clip_grad_norm(algo.critic.parameters(), algo.grad_clip)
    algo.critic_opt.step()

    q_rows_data = [row.data for row in algo.critic(batch["obs"], batch["actions"])]
    actor_loss_total = None
    entropy_total = 0.0
    for i in range(n):
        logits = algo.actor.forward(algo._actor_input(batch["obs"][:, i], i))
        log_probs = log_softmax(logits, axis=-1)
        probs = np.exp(log_probs.data)
        q_data = q_rows_data[i]
        baseline = (probs * q_data).sum(axis=-1)
        sampled = sample_categorical(logits.data, algo._rng)
        advantage = (
            np.take_along_axis(q_data, sampled[:, None], axis=-1)[:, 0] - baseline
        )
        chosen_log_probs = log_probs.gather(sampled[:, None], axis=-1).squeeze(-1)
        target_term = advantage - algo.alpha * chosen_log_probs.data
        loss = -(chosen_log_probs * Tensor(target_term)).mean()
        actor_loss_total = (
            loss if actor_loss_total is None else actor_loss_total + loss
        )
        entropy_total += float(entropy_from_logits(logits).mean().data)

    algo.actor_opt.zero_grad()
    actor_loss_total.backward()
    clip_grad_norm(algo.actor.parameters(), algo.grad_clip)
    algo.actor_opt.step()

    soft_update(algo.target_critic, algo.critic, algo.tau)
    return {
        "critic_loss": critic_loss_total.item(),
        "actor_loss": actor_loss_total.item(),
        "entropy": entropy_total / n,
    }


class TestFusedTrainingEndToEnd:
    """--fused-updates trains HERO + a baseline to the same trajectories.

    A few episodes from scratch: RNG consumption is draw-for-draw identical,
    so rollouts coincide and only last-ulp update noise differs; losses and
    returns must agree to tolerance.
    """

    def test_hero_few_episodes(self):
        def run(fused):
            scenario = ScenarioConfig(episode_length=10)
            config = TrainingConfig(seed=3, fused_updates=fused)
            config.scenario = scenario
            env = CooperativeLaneChangeEnv(scenario=scenario)
            team = HeroTeam(env, RNG(3), batch_size=16)
            logger = train_hero(
                env, team, episodes=5, config=config, eval_every=0
            )
            return logger

        default = run(False)
        fused = run(True)
        for metric in ("hero/episode_reward", "hero/critic_loss"):
            default_series = default.values(metric)
            assert len(default_series), f"{metric} never logged"
            np.testing.assert_allclose(
                default_series,
                fused.values(metric),
                rtol=1e-4,
                atol=1e-6,
                err_msg=metric,
            )

    def test_idqn_few_episodes(self):
        def run(fused):
            env = make_baseline_vector_env(1, scenario=ScenarioConfig(episode_length=10))
            algo = make_baseline("idqn", env, seed=5, batch_size=16)
            logger = train_marl_vectorized(
                env, algo, episodes=5, seed=5, eval_every=0, fused_updates=fused
            )
            return logger

        default = run(False)
        fused = run(True)
        for metric in ("idqn/episode_reward", "idqn/vehicle_0/q_loss"):
            default_series = default.values(metric)
            assert len(default_series), f"{metric} never logged"
            np.testing.assert_allclose(
                default_series,
                fused.values(metric),
                rtol=1e-4,
                atol=1e-6,
                err_msg=metric,
            )

    def test_maddpg_few_episodes(self):
        def run(fused):
            env = make_baseline_vector_env(1, scenario=ScenarioConfig(episode_length=10))
            algo = make_baseline("maddpg", env, seed=5, batch_size=16)
            logger = train_marl_vectorized(
                env, algo, episodes=5, seed=5, eval_every=0, fused_updates=fused
            )
            return logger

        default = run(False)
        fused = run(True)
        for metric in ("maddpg/episode_reward", "maddpg/vehicle_0/critic_loss"):
            default_series = default.values(metric)
            assert len(default_series), f"{metric} never logged"
            np.testing.assert_allclose(
                default_series,
                fused.values(metric),
                rtol=1e-4,
                atol=1e-6,
                err_msg=metric,
            )

    def test_maac_few_episodes(self):
        def run(fused):
            env = make_baseline_vector_env(1, scenario=ScenarioConfig(episode_length=10))
            algo = make_baseline("maac", env, seed=5, batch_size=16)
            logger = train_marl_vectorized(
                env, algo, episodes=5, seed=5, eval_every=0, fused_updates=fused
            )
            return logger

        default = run(False)
        fused = run(True)
        for metric in ("maac/episode_reward", "maac/critic_loss"):
            default_series = default.values(metric)
            assert len(default_series), f"{metric} never logged"
            np.testing.assert_allclose(
                default_series,
                fused.values(metric),
                rtol=1e-4,
                atol=1e-6,
                err_msg=metric,
            )

    def test_skill_training_fused(self):
        """train_low_level_skills(fused) matches the default within tolerance."""

        def run(fused):
            config = TrainingConfig(seed=1, fused_updates=fused)
            config.scenario = ScenarioConfig(episode_length=10)
            skills, logger = train_low_level_skills(config, episodes=2)
            return skills.state_dict(), logger

        state_default, _ = run(False)
        state_fused, _ = run(True)
        for key in state_default:
            np.testing.assert_allclose(
                state_default[key], state_fused[key], rtol=1e-5, atol=1e-7,
                err_msg=key,
            )
