"""Tests for modules, layers, optimisers and networks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    CategoricalPolicy,
    DiscreteQNetwork,
    Linear,
    MLP,
    Module,
    MultiHeadAttention,
    Parameter,
    QNetwork,
    ReLU,
    Sequential,
    SquashedGaussianPolicy,
    Tanh,
    Tensor,
    TwinQNetwork,
    clip_grad_norm,
    exclude_self_mask,
    hard_update,
    make_activation,
    mse_loss,
    nll_loss,
    soft_update,
)
from repro.nn.functional import (
    entropy_from_logits,
    gumbel_softmax,
    log_softmax,
    one_hot,
    sample_categorical,
    softmax,
)
from repro.nn.networks import LOG_STD_MAX, LOG_STD_MIN
from repro.nn.tensor import default_dtype


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

    @pytest.mark.parametrize(
        "weight_init, limit",
        [("xavier", np.sqrt(6.0 / (64 + 32))), ("he", np.sqrt(6.0 / 64))],
    )
    def test_linear_init_fills_its_uniform_range(self, weight_init, limit):
        layer = Linear(64, 32, RNG(0), weight_init=weight_init)
        spread = np.abs(layer.weight.data).max()
        assert 0.95 * limit < spread <= limit
        np.testing.assert_array_equal(layer.bias.data, 0.0)

    @pytest.mark.parametrize("activation, hidden_init", [("relu", "he"), ("tanh", "xavier")])
    def test_mlp_init_follows_its_activation(self, activation, hidden_init):
        """Hidden layers use Kaiming init under relu and Glorot otherwise;
        the output layer is always Glorot."""
        mlp = MLP(6, [5], 3, RNG(4), activation=activation)
        rng = RNG(4)
        hidden = Linear(6, 5, rng, weight_init=hidden_init)
        output = Linear(5, 3, rng, weight_init="xavier")
        np.testing.assert_array_equal(mlp.net[0].weight.data, hidden.weight.data)
        np.testing.assert_array_equal(mlp.net[2].weight.data, output.weight.data)

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize(
        "shape", [(4,), (5, 4), (2, 5, 4)], ids=["vector", "batch", "stacked"]
    )
    def test_linear_fused_node_matches_unfused_graph(self, shape, bias):
        """The fused ``x W + b`` tape node gives the matmul + add graph's
        values and gradients bit for bit."""
        layer = Linear(4, 3, RNG(0), bias=bias)
        x_data = RNG(1).standard_normal(shape)
        upstream = Tensor(RNG(2).standard_normal(shape[:-1] + (3,)))

        x_fused = Tensor(x_data, requires_grad=True)
        out_fused = layer(x_fused)
        (out_fused * upstream).sum().backward()
        fused = [x_fused.grad] + [p.grad.copy() for p in layer.parameters()]

        layer.zero_grad()
        x_graph = Tensor(x_data, requires_grad=True)
        out_graph = x_graph @ layer.weight
        if bias:
            out_graph = out_graph + layer.bias
        (out_graph * upstream).sum().backward()
        graph = [x_graph.grad] + [p.grad for p in layer.parameters()]

        np.testing.assert_array_equal(out_fused.data, out_graph.data)
        for a, b in zip(fused, graph):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize(
        "activation, output_activation",
        [("relu", "identity"), ("tanh", "identity"), ("relu", "tanh")],
    )
    def test_mlp_infer_matches_forward_bitwise(
        self, activation, output_activation, dtype
    ):
        with default_dtype(dtype):
            mlp = MLP(5, [8, 8], 3, RNG(0), activation, output_activation)
            x = RNG(1).standard_normal((9, 5))
            fast = mlp.infer(x)
            reference = mlp(x).data
        assert fast.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(fast, reference)

    def test_sequential_infer_runs_other_modules_through_the_tape(self):
        class Double(Module):
            def forward(self, x):
                return x * 2.0

        seq = Sequential(Linear(3, 4, RNG(0)), Double(), ReLU(), Linear(4, 2, RNG(1)))
        x = RNG(2).standard_normal((6, 3))
        np.testing.assert_array_equal(seq.infer(x), seq(Tensor(x)).data)

    def test_sequential_infer_leaves_its_input_untouched(self):
        seq = Sequential(ReLU(), Tanh(), Linear(3, 2, RNG(0)))
        x = RNG(1).standard_normal((4, 3))
        before = x.copy()
        seq.infer(x)
        np.testing.assert_array_equal(x, before)

    def test_make_activation_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown activation"):
            make_activation("swish")


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

    def test_num_parameters(self):
        net = self._make()
        assert net.num_parameters() == 2 * 3 + 3 + 3 * 1 + 1 + 5

    def test_zero_grad(self):
        net = self._make()
        (net(Tensor(np.ones((1, 2)))) ** 2).sum().backward()
        assert net.fc1.weight.grad is not None
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_named_parameters_walk_lists_and_tuples(self):
        class Stack(Module):
            def __init__(self):
                super().__init__()
                self.layers = [Linear(2, 2, RNG(0)), Linear(2, 1, RNG(1), bias=False)]
                self.scales = (Parameter(np.ones(2)),)

        names = [n for n, _ in Stack().named_parameters()]
        assert names == ["layers.0.weight", "layers.0.bias", "layers.1.weight", "scales.0"]

    def test_state_dict_and_load_do_not_alias_parameters(self):
        net = self._make()
        state = net.state_dict()
        state["extra"][:] = 3.0
        np.testing.assert_array_equal(net.extra.data, 0.0)
        net.load_state_dict(state)
        state["extra"][:] = 7.0
        np.testing.assert_array_equal(net.extra.data, 3.0)

    def test_load_state_dict_keeps_the_parameter_dtype(self):
        """A float64 state dict (a format-1 checkpoint) loads into a
        float32 network without flipping it back to float64."""
        with default_dtype("float32"):
            net = self._make()
        state = {k: v.astype(np.float64) + 0.5 for k, v in net.state_dict().items()}
        net.load_state_dict(state)
        for name, param in net.named_parameters():
            assert param.data.dtype == np.float32, name
            np.testing.assert_array_equal(param.data, state[name].astype(np.float32))

    def test_hard_update_copies_values_not_arrays(self):
        target, source = self._make(), self._make()
        source.fc1.weight.data[:] = 2.0
        hard_update(target, source)
        source.fc1.weight.data[:] = 5.0
        np.testing.assert_array_equal(target.fc1.weight.data, 2.0)


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

    def test_adam_converges(self):
        value, target = self._quadratic_problem(Adam, lr=0.05)
        np.testing.assert_allclose(value, target, atol=1e-3)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=-1.0)

    def test_step_skips_params_without_grad(self):
        p = Parameter(np.ones(3))
        opt = Adam([p], lr=0.5)
        opt.step()  # no grad accumulated -> no change
        np.testing.assert_array_equal(p.data, np.ones(3))

    def test_adam_first_step_moves_each_coordinate_by_lr(self):
        """Bias correction makes the first step ``lr * g / |g|``,
        whatever the gradient's scale."""
        grad = np.array([3.0, -0.5, 1e-3, -20.0])
        p = Parameter(np.zeros(4))
        p.grad = grad.copy()
        Adam([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, -0.1 * np.sign(grad), rtol=1e-4)

    def test_adam_steps_only_the_parameters_with_gradients(self):
        stepped, idle = Parameter(np.zeros(3)), Parameter(np.ones(2))
        opt = Adam([stepped, idle], lr=0.1)
        stepped.grad = np.ones(3)
        opt.step()
        np.testing.assert_array_equal(idle.data, np.ones(2))
        np.testing.assert_allclose(stepped.data, -0.1, rtol=1e-6)

    def test_optimizer_zero_grad_clears_every_parameter(self):
        params = [Parameter(np.zeros(2)), Parameter(np.zeros(3))]
        opt = Adam(params, lr=0.1)
        for p in params:
            p.grad = np.ones_like(p.data)
        opt.zero_grad()
        assert all(p.grad is None for p in params)

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

    def test_mse_gradient(self):
        target = np.array([0.0, 1.0, 1.0])
        pred = Tensor(np.array([1.0, 2.0, -1.0]), requires_grad=True)
        mse_loss(pred, target).backward()
        np.testing.assert_allclose(pred.grad, 2.0 * (pred.data - target) / 3.0)

    def test_nll_loss_value(self):
        log_probs = log_softmax(Tensor(RNG(0).standard_normal((4, 3))))
        targets = np.array([2, 0, 0, 1])
        loss = nll_loss(log_probs, targets)
        expected = -log_probs.data[np.arange(4), targets].mean()
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_nll_loss_gradient_lands_on_the_targets(self):
        log_probs = Tensor(RNG(0).standard_normal((4, 3)), requires_grad=True)
        targets = np.array([2, 0, 0, 1])
        nll_loss(log_probs, targets).backward()
        expected = np.zeros((4, 3))
        expected[np.arange(4), targets] = -0.25
        np.testing.assert_allclose(log_probs.grad, expected)


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

    def test_sample_categorical_depends_on_values_not_dtype(self):
        """The draw is compared in float64, so float32 logits sample the
        same actions as the same values held in float64."""
        logits32 = RNG(5).standard_normal((200, 4)).astype(np.float32)
        np.testing.assert_array_equal(
            sample_categorical(logits32, RNG(6)),
            sample_categorical(logits32.astype(np.float64), RNG(6)),
        )

    @pytest.mark.parametrize(
        "fn", [softmax, log_softmax, entropy_from_logits],
        ids=["softmax", "log_softmax", "entropy"],
    )
    def test_gradient_matches_finite_differences(self, fn):
        x = RNG(3).standard_normal((3, 4))
        weights = RNG(4).standard_normal(fn(Tensor(x)).shape)

        def value(data):
            return float((fn(Tensor(data)).data * weights).sum())

        t = Tensor(x, requires_grad=True)
        (fn(t) * Tensor(weights)).sum().backward()
        numeric = np.zeros_like(x)
        eps = 1e-6
        for idx in np.ndindex(x.shape):
            up, down = x.copy(), x.copy()
            up[idx] += eps
            down[idx] -= eps
            numeric[idx] = (value(up) - value(down)) / (2 * eps)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-6)

    def test_one_hot_follows_the_default_dtype(self):
        with default_dtype("float32"):
            assert one_hot([1], 3).dtype == np.float32
        assert one_hot([1], 3).dtype == np.float64
        assert one_hot([1], 3, dtype=np.int8).dtype == np.int8

    def test_one_hot_keeps_leading_shape(self):
        out = one_hot(np.array([[0, 1], [2, 0]]), 3)
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out.argmax(axis=-1), [[0, 1], [2, 0]])
        np.testing.assert_array_equal(out.sum(axis=-1), 1.0)

    def test_gumbel_softmax_soft_sample_is_a_distribution(self):
        logits = Tensor(RNG(0).standard_normal((6, 4)))
        out = gumbel_softmax(logits, RNG(1), temperature=0.5).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(out > 0.0)

    def test_gumbel_softmax_hard_sample_is_the_soft_argmax(self):
        logits = Tensor(RNG(0).standard_normal((6, 4)))
        soft = gumbel_softmax(logits, RNG(1)).data
        hard = gumbel_softmax(logits, RNG(1), hard=True).data
        np.testing.assert_array_equal(hard.argmax(axis=-1), soft.argmax(axis=-1))


class TestPolicies:
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

    def test_categorical_probs_are_the_softmax_of_its_logits(self):
        policy = CategoricalPolicy(5, 3, RNG(0))
        obs = RNG(1).standard_normal((7, 5))
        logits = policy(obs).data
        expected = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(policy.probs(obs).data, expected, rtol=1e-12)

    def test_gaussian_log_prob_matches_closed_form(self):
        """Gaussian density of the pre-squash draw, minus the tanh
        log-Jacobian and the log of the affine rescale."""
        low, high = np.array([0.0, -0.5]), np.array([0.3, 0.5])
        policy = SquashedGaussianPolicy(3, 2, RNG(0), action_low=low, action_high=high)
        obs = RNG(1).standard_normal((16, 3))
        actions, log_probs = policy.sample(obs, RNG(2))
        mean, log_std = policy(obs)
        noise = RNG(2).standard_normal(mean.shape)
        pre_tanh = mean.data + np.exp(log_std.data) * noise
        scale = (high - low) / 2.0
        expected = (
            -0.5 * noise**2
            - 0.5 * np.log(2.0 * np.pi)
            - log_std.data
            - np.log(1.0 - np.tanh(pre_tanh) ** 2)
            - np.log(scale)
        ).sum(axis=-1)
        np.testing.assert_allclose(log_probs.data, expected, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            actions.data, np.tanh(pre_tanh) * scale + (high + low) / 2.0, rtol=1e-12
        )

    @pytest.mark.parametrize("bias", [-50.0, 50.0])
    def test_gaussian_log_std_is_clipped(self, bias):
        policy = SquashedGaussianPolicy(3, 2, RNG(0))
        policy.trunk.net[-2].bias.data[2:] = bias
        _, log_std = policy(RNG(1).standard_normal((4, 3)))
        assert np.all(log_std.data >= LOG_STD_MIN)
        assert np.all(log_std.data <= LOG_STD_MAX)


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
