"""Tests for modules, layers, convolution, optimisers and networks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    CNNEncoder,
    CategoricalPolicy,
    Conv2d,
    DiscreteQNetwork,
    Dropout,
    Flatten,
    LayerNorm,
    Linear,
    MLP,
    MaxPool2d,
    Module,
    MultiHeadAttention,
    Parameter,
    QNetwork,
    RMSprop,
    SGD,
    Sequential,
    SquashedGaussianPolicy,
    Tensor,
    TwinQNetwork,
    clip_grad_norm,
    cross_entropy,
    exclude_self_mask,
    hard_update,
    huber_loss,
    mse_loss,
    soft_update,
)
from repro.nn.functional import (
    entropy_from_logits,
    gumbel_softmax,
    kl_from_logits,
    log_softmax,
    one_hot,
    sample_categorical,
    softmax,
)


RNG = np.random.default_rng


class TestLinearAndMLP:
    def test_linear_shapes(self):
        layer = Linear(4, 3, RNG(0))
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_linear_no_bias(self):
        layer = Linear(4, 3, RNG(0), bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_linear_bad_init_rejected(self):
        with pytest.raises(ValueError):
            Linear(2, 2, RNG(0), weight_init="nope")

    def test_mlp_forward_and_grad(self):
        mlp = MLP(3, [8, 8], 2, RNG(0))
        x = Tensor(RNG(1).standard_normal((4, 3)))
        loss = (mlp(x) ** 2).mean()
        loss.backward()
        grads = [p.grad for p in mlp.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).sum() > 0 for g in grads)

    def test_mlp_accepts_numpy(self):
        mlp = MLP(3, [4], 2, RNG(0))
        out = mlp(np.zeros((2, 3)))
        assert out.shape == (2, 2)

    def test_mlp_tanh_output(self):
        mlp = MLP(3, [4], 2, RNG(0), output_activation="tanh")
        out = mlp(np.full((2, 3), 100.0))
        assert np.all(np.abs(out.data) <= 1.0)


class TestModuleSystem:
    def _make(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Linear(2, 3, RNG(0))
                self.fc2 = Linear(3, 1, RNG(1))
                self.extra = Parameter(np.zeros(5))

            def forward(self, x):
                return self.fc2(self.fc1(x).relu())

        return Net()

    def test_named_parameters_deterministic(self):
        net = self._make()
        names = [n for n, _ in net.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias", "extra"]

    def test_state_dict_roundtrip(self):
        net1, net2 = self._make(), self._make()
        net2.fc1.weight.data += 1.0
        net2.load_state_dict(net1.state_dict())
        np.testing.assert_array_equal(net2.fc1.weight.data, net1.fc1.weight.data)

    def test_state_dict_mismatch_raises(self):
        net = self._make()
        state = net.state_dict()
        del state["extra"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_state_dict_shape_mismatch_raises(self):
        net = self._make()
        state = net.state_dict()
        state["extra"] = np.zeros(6)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_save_load(self, tmp_path):
        net1, net2 = self._make(), self._make()
        path = tmp_path / "net.npz"
        net1.save(path)
        net2.load(path)
        for (_, p1), (_, p2) in zip(net1.named_parameters(), net2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_soft_update_moves_toward_source(self):
        target, source = self._make(), self._make()
        source.fc1.weight.data[:] = 1.0
        target.fc1.weight.data[:] = 0.0
        soft_update(target, source, tau=0.1)
        np.testing.assert_allclose(target.fc1.weight.data, 0.1)

    def test_hard_update_copies(self):
        target, source = self._make(), self._make()
        hard_update(target, source)
        np.testing.assert_array_equal(target.fc1.weight.data, source.fc1.weight.data)

    def test_train_eval_propagates(self):
        net = Sequential(Linear(2, 2, RNG(0)), Dropout(0.5, RNG(0)))
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_num_parameters(self):
        net = self._make()
        assert net.num_parameters() == 2 * 3 + 3 + 3 * 1 + 1 + 5

    def test_zero_grad(self):
        net = self._make()
        (net(Tensor(np.ones((1, 2)))) ** 2).sum().backward()
        assert net.fc1.weight.grad is not None
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestLayerNormDropout:
    def test_layernorm_normalises(self):
        ln = LayerNorm(8)
        x = Tensor(RNG(0).standard_normal((4, 8)) * 10 + 5)
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_grad_flows(self):
        ln = LayerNorm(4)
        x = Tensor(RNG(0).standard_normal((2, 4)), requires_grad=True)
        ln(x).sum().backward()
        assert x.grad is not None
        assert ln.gamma.grad is not None

    def test_dropout_eval_is_identity(self):
        drop = Dropout(0.5, RNG(0))
        drop.eval()
        x = Tensor(np.ones((3, 3)))
        np.testing.assert_array_equal(drop(x).data, x.data)

    def test_dropout_train_scales(self):
        drop = Dropout(0.5, RNG(0))
        x = Tensor(np.ones((1000,)))
        out = drop(x).data
        # Survivors are scaled by 1/keep; mean stays near 1.
        assert abs(out.mean() - 1.0) < 0.15
        assert set(np.round(np.unique(out), 6)) <= {0.0, 2.0}

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0, RNG(0))


class TestConv:
    def test_conv_output_shape(self):
        conv = Conv2d(2, 4, kernel_size=3, rng=RNG(0), padding=1)
        out = conv(Tensor(np.zeros((3, 2, 8, 8))))
        assert out.shape == (3, 4, 8, 8)

    def test_conv_stride(self):
        conv = Conv2d(1, 1, kernel_size=3, rng=RNG(0), stride=2)
        out = conv(Tensor(np.zeros((1, 1, 9, 9))))
        assert out.shape == (1, 1, 4, 4)

    def test_conv_matches_manual_correlation(self):
        conv = Conv2d(1, 1, kernel_size=2, rng=RNG(0), bias=False)
        conv.weight.data[:] = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = conv(Tensor(x)).data
        expected = np.array(
            [
                [x[0, 0, i : i + 2, j : j + 2].flatten() @ [1, 2, 3, 4] for j in range(2)]
                for i in range(2)
            ]
        )
        np.testing.assert_allclose(out[0, 0], expected)

    def test_conv_gradient_numeric(self):
        rng = RNG(3)
        conv = Conv2d(2, 3, kernel_size=3, rng=rng, padding=1)
        x = rng.standard_normal((2, 2, 5, 5))

        xt = Tensor(x, requires_grad=True)
        out = (conv(xt) ** 2).sum()
        out.backward()
        analytic_w = conv.weight.grad.copy()

        eps = 1e-6
        flat = conv.weight.data.reshape(-1)
        for idx in [0, 7, 23]:
            orig = flat[idx]
            flat[idx] = orig + eps
            up = float((conv(Tensor(x)) ** 2).sum().data)
            flat[idx] = orig - eps
            down = float((conv(Tensor(x)) ** 2).sum().data)
            flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - analytic_w.reshape(-1)[idx]) < 1e-4

    def test_conv_input_gradient_numeric(self):
        rng = RNG(4)
        conv = Conv2d(1, 2, kernel_size=3, rng=rng, padding=1)
        x = rng.standard_normal((1, 1, 4, 4))
        xt = Tensor(x.copy(), requires_grad=True)
        (conv(xt) ** 2).sum().backward()
        eps = 1e-6
        flat = x.reshape(-1)
        for idx in [0, 5, 15]:
            orig = flat[idx]
            flat[idx] = orig + eps
            up = float((conv(Tensor(x)) ** 2).sum().data)
            flat[idx] = orig - eps
            down = float((conv(Tensor(x)) ** 2).sum().data)
            flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - xt.grad.reshape(-1)[idx]) < 1e-4

    def test_conv_rejects_3d_input(self):
        conv = Conv2d(1, 1, kernel_size=3, rng=RNG(0))
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((1, 8, 8))))

    def test_maxpool(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = pool(Tensor(x)).data
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_gradient_routes_to_max(self):
        pool = MaxPool2d(2)
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4), requires_grad=True)
        pool(x).sum().backward()
        grad = x.grad[0, 0]
        assert grad[1, 1] == 1 and grad[1, 3] == 1 and grad[3, 1] == 1 and grad[3, 3] == 1
        assert grad.sum() == 4

    def test_flatten(self):
        out = Flatten()(Tensor(np.zeros((2, 3, 4, 5))))
        assert out.shape == (2, 60)

    def test_cnn_encoder(self):
        enc = CNNEncoder(in_channels=2, image_size=16, out_features=10, rng=RNG(0))
        out = enc(np.zeros((3, 2, 16, 16)))
        assert out.shape == (3, 10)


class TestOptimizers:
    @staticmethod
    def _quadratic_problem(opt_cls, lr, steps=400, **kwargs):
        rng = RNG(0)
        target = rng.standard_normal(6)
        param = Parameter(np.zeros(6))
        opt = opt_cls([param], lr=lr, **kwargs)
        for _ in range(steps):
            opt.zero_grad()
            loss = ((param - Tensor(target)) ** 2).sum()
            loss.backward()
            opt.step()
        return param.data, target

    def test_sgd_converges(self):
        value, target = self._quadratic_problem(SGD, lr=0.1)
        np.testing.assert_allclose(value, target, atol=1e-4)

    def test_sgd_momentum_converges(self):
        value, target = self._quadratic_problem(SGD, lr=0.02, momentum=0.9)
        np.testing.assert_allclose(value, target, atol=1e-4)

    def test_adam_converges(self):
        value, target = self._quadratic_problem(Adam, lr=0.05)
        np.testing.assert_allclose(value, target, atol=1e-3)

    def test_rmsprop_converges(self):
        value, target = self._quadratic_problem(RMSprop, lr=0.01)
        np.testing.assert_allclose(value, target, atol=1e-2)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=-1.0)

    def test_step_skips_params_without_grad(self):
        p = Parameter(np.ones(3))
        opt = SGD([p], lr=0.5)
        opt.step()  # no grad accumulated -> no change
        np.testing.assert_array_equal(p.data, np.ones(3))

    def test_clip_grad_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_clip_grad_norm_noop_below_threshold(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.1)
        clip_grad_norm([p], max_norm=10.0)
        np.testing.assert_allclose(p.grad, 0.1)

    def test_clip_grad_norm_empty(self):
        p = Parameter(np.zeros(4))
        assert clip_grad_norm([p], max_norm=1.0) == 0.0


class TestLosses:
    def test_mse_value(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = mse_loss(pred, np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)

    def test_huber_quadratic_region(self):
        pred = Tensor(np.array([0.5]), requires_grad=True)
        loss = huber_loss(pred, np.array([0.0]), delta=1.0)
        assert loss.item() == pytest.approx(0.125)

    def test_huber_linear_region(self):
        pred = Tensor(np.array([3.0]), requires_grad=True)
        loss = huber_loss(pred, np.array([0.0]), delta=1.0)
        assert loss.item() == pytest.approx(2.5)  # 0.5 + (3-1)*1

    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0, -1.0]]), requires_grad=True)
        targets = np.array([0])
        loss = cross_entropy(logits, targets)
        manual = -np.log(np.exp(2.0) / np.exp([2.0, 0.0, -1.0]).sum())
        assert loss.item() == pytest.approx(manual)

    def test_cross_entropy_grad_is_probs_minus_onehot(self):
        logits = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        cross_entropy(logits, np.array([1])).backward()
        probs = np.exp([1.0, 2.0, 3.0]) / np.exp([1.0, 2.0, 3.0]).sum()
        expected = probs - np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(logits.grad[0], expected, atol=1e-10)


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG(0).standard_normal((5, 7)))
        np.testing.assert_allclose(softmax(x).data.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_stable_for_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        out = softmax(x).data
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_log_softmax_consistent(self):
        x = Tensor(RNG(1).standard_normal((3, 4)))
        np.testing.assert_allclose(
            log_softmax(x).data, np.log(softmax(x).data), atol=1e-12
        )

    def test_one_hot(self):
        out = one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])

    def test_entropy_uniform_is_log_n(self):
        logits = Tensor(np.zeros((1, 4)))
        assert entropy_from_logits(logits).data[0] == pytest.approx(np.log(4))

    def test_kl_self_is_zero(self):
        logits = Tensor(RNG(0).standard_normal((2, 5)))
        np.testing.assert_allclose(kl_from_logits(logits, logits).data, 0.0, atol=1e-12)

    def test_kl_nonnegative(self):
        p = Tensor(RNG(0).standard_normal((4, 5)))
        q = Tensor(RNG(1).standard_normal((4, 5)))
        assert np.all(kl_from_logits(p, q).data >= -1e-12)

    def test_gumbel_softmax_hard_is_onehot(self):
        logits = Tensor(RNG(0).standard_normal((6, 4)), requires_grad=True)
        out = gumbel_softmax(logits, RNG(1), hard=True)
        data = out.data
        np.testing.assert_allclose(data.sum(axis=-1), 1.0)
        assert set(np.unique(data)) <= {0.0, 1.0}

    def test_gumbel_softmax_gradient_flows(self):
        logits = Tensor(RNG(0).standard_normal((6, 4)), requires_grad=True)
        out = gumbel_softmax(logits, RNG(1), hard=True)
        (out * Tensor(np.arange(4.0))).sum().backward()
        assert logits.grad is not None
        assert np.abs(logits.grad).sum() > 0

    def test_sample_categorical_respects_distribution(self):
        logits = np.log(np.array([0.7, 0.2, 0.1]))
        rng = RNG(2)
        samples = np.array([sample_categorical(logits, rng) for _ in range(4000)])
        freq = np.bincount(samples, minlength=3) / len(samples)
        np.testing.assert_allclose(freq, [0.7, 0.2, 0.1], atol=0.04)

    def test_sample_categorical_batched(self):
        logits = np.zeros((10, 3))
        out = sample_categorical(logits, RNG(0))
        assert out.shape == (10,)
        assert np.all((out >= 0) & (out < 3))


class TestPolicies:
    def test_categorical_policy_sample_range(self):
        policy = CategoricalPolicy(4, 3, RNG(0))
        obs = RNG(1).standard_normal((6, 4))
        actions = policy.sample(obs, RNG(2))
        assert actions.shape == (6,)
        assert np.all((actions >= 0) & (actions < 3))

    def test_categorical_policy_greedy_matches_argmax(self):
        policy = CategoricalPolicy(4, 3, RNG(0))
        obs = RNG(1).standard_normal((5, 4))
        np.testing.assert_array_equal(
            policy.greedy(obs), policy.forward(obs).data.argmax(axis=-1)
        )

    def test_gaussian_policy_respects_bounds(self):
        low, high = np.array([0.04, -0.1]), np.array([0.08, 0.1])
        policy = SquashedGaussianPolicy(
            3, 2, RNG(0), action_low=low, action_high=high
        )
        obs = RNG(1).standard_normal((50, 3))
        actions, log_probs = policy.sample(obs, RNG(2))
        assert np.all(actions.data >= low - 1e-9)
        assert np.all(actions.data <= high + 1e-9)
        assert log_probs.shape == (50,)

    def test_gaussian_policy_invalid_bounds(self):
        with pytest.raises(ValueError):
            SquashedGaussianPolicy(3, 2, RNG(0), action_low=1.0, action_high=0.0)

    def test_gaussian_log_prob_matches_monte_carlo_scale(self):
        # For a wide-bound policy the density should integrate to ~1:
        # check log_prob is a proper density via importance check on 1-D.
        policy = SquashedGaussianPolicy(2, 1, RNG(0), action_low=-2.0, action_high=2.0)
        obs = np.zeros((2000, 2))
        actions, log_probs = policy.sample(obs, RNG(3))
        # E[1/p(a)] over samples of p spans the support volume (4 here).
        est = np.exp(-log_probs.data).mean()
        assert 1.0 < est < 10.0

    def test_gaussian_deterministic_inside_bounds(self):
        policy = SquashedGaussianPolicy(3, 2, RNG(0), action_low=-1.0, action_high=1.0)
        act = policy.deterministic(RNG(1).standard_normal((4, 3)))
        assert np.all(np.abs(act) <= 1.0)

    def test_gaussian_set_bounds(self):
        policy = SquashedGaussianPolicy(3, 1, RNG(0))
        policy.set_bounds(0.1, 0.2)
        actions, _ = policy.sample(np.zeros((20, 3)), RNG(1))
        assert np.all(actions.data >= 0.1 - 1e-9)
        assert np.all(actions.data <= 0.2 + 1e-9)

    def test_qnetwork_scalar_output(self):
        q = QNetwork(4, 2, RNG(0))
        out = q(np.zeros((7, 4)), np.zeros((7, 2)))
        assert out.shape == (7,)

    def test_twin_q_min(self):
        twin = TwinQNetwork(4, 2, RNG(0))
        obs, act = np.zeros((5, 4)), np.zeros((5, 2))
        q1, q2 = twin(obs, act)
        min_q = twin.min_q(obs, act)
        np.testing.assert_allclose(min_q.data, np.minimum(q1.data, q2.data))

    def test_discrete_qnetwork(self):
        q = DiscreteQNetwork(4, 5, RNG(0))
        assert q(np.zeros((3, 4))).shape == (3, 5)


class TestAttention:
    """The attention modules hold parameters only; their pass runs in the
    MAAC update engine (``tests/test_baselines.py`` checks its masking
    and shapes, ``tests/test_update_engine.py`` its gradients against the
    per-network tape reference)."""

    def test_head_projections(self):
        attn = MultiHeadAttention(16, 2, RNG(0), output_dim=8)
        assert len(attn.heads) == 2
        for head in attn.heads:
            assert head.query_proj.weight.shape == (16, 8)
            assert head.query_proj.bias is None
        assert attn.out_proj.weight.shape == (16, 8)
        assert len(attn.parameters()) == 2 * 3 + 2

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, RNG(0))

    def test_exclude_self_mask(self):
        mask = exclude_self_mask(3)
        assert mask.shape == (3, 3)
        assert not mask.diagonal().any()
        assert mask.sum() == 6


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), batch=st.integers(1, 8))
def test_property_squashed_policy_bounds_hold(seed, batch):
    rng = RNG(seed)
    low = rng.uniform(-1.0, 0.0, size=2)
    high = low + rng.uniform(0.1, 2.0, size=2)
    policy = SquashedGaussianPolicy(3, 2, rng, action_low=low, action_high=high)
    actions, _ = policy.sample(rng.standard_normal((batch, 3)), rng)
    assert np.all(actions.data >= low - 1e-9)
    assert np.all(actions.data <= high + 1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_soft_update_is_convex_combination(seed):
    rng = RNG(seed)
    a = Linear(3, 3, rng)
    b = Linear(3, 3, rng)
    before = a.weight.data.copy()
    tau = float(rng.uniform(0.01, 0.99))
    soft_update(a, b, tau)
    expected = (1 - tau) * before + tau * b.weight.data
    np.testing.assert_allclose(a.weight.data, expected, atol=1e-12)
