"""Fused gradient-update engine: cross-network update batching.

The update phase is dominated, at small ``--scale``, by many *small*,
architecturally identical networks updated every step: each HERO agent's
high-level critic and actor, its per-opponent option predictors, the twin
SAC critics of every skill, and one DQN per IDQN agent.  Looping over them
pays the Python tape/optimiser overhead once per network; this module pays
it once per **network family** instead:

* :class:`StackedMLP` holds K same-architecture ReLU MLPs as stacked
  ``(K, in, out)`` parameters and is the one kernel layer under every
  engine: a cached forward, its hand-written VJP (vector-Jacobian
  product), a gradient-free ``infer`` and the frozen-parameter input
  gradient of an actor-through-critic step.  Member networks'
  ``Parameter.data`` are rebound as views into the stack, so rollout-time
  inference, ``state_dict`` and target-net updates keep working on the
  live values.
* :class:`FamilyAdam` is Adam over stacked parameters with per-member step
  counts and active-member masking — elementwise identical to K independent
  :class:`repro.nn.Adam` instances.
* :class:`UpdateEngine` dispatches a :class:`~repro.core.hero.HeroTeam`, a
  :class:`~repro.core.low_level.SACAgent` or a
  :class:`~repro.baselines.base.MARLAlgorithm` to its fused update.

Centralized-critic baselines fuse through a **cross-family VJP**: the
actor update differentiates the actor family's output *through* a frozen
critic family — :meth:`StackedMLP.frozen_input_grad` carries the loss
gradient down the critic, parameters frozen, to each member's action
columns, and the actor family's own backward takes it from there (the SAC
frozen-critic pass, generalised to span two families).
:class:`MADDPGUpdateEngine` chains per-agent Gumbel-softmax actions into
the joint-observation critic family; :class:`MAACUpdateEngine` fuses the
shared attention encoders once per batch and routes every agent's
score-function gradient through one stacked actor pass.  With those two,
``--fused-updates`` covers all five baseline methods; only COMA (whole
variable-length episodes) still delegates.

**Equivalence caveat** (the ``--fused-updates`` contract): fused updates are
numerically equivalent to the per-network loop within float tolerance, not
bitwise — batched BLAS matmuls are not row-wise bit-stable across batch
sizes (the same caveat the vectorized rollout layer documents), and the
single-pass gradient-norm reductions reorder sums.  The default update path
does not go through this module and stays bitwise-identical to the scalar
loop.  ``tests/test_update_engine.py`` locks the tolerance equivalence;
``benchmarks/bench_update_phase.py`` guards the speedup.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..nn import Parameter, one_hot
from ..nn.functional import gumbel_noise
from ..nn.layers import Identity, Linear, ReLU
from ..nn.networks import MLP
from ..nn.optim import clip_grad_norm_flat, clip_grad_norm_stacked


def _rowmax_small(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)`` via an elementwise column chain.

    numpy's axis reduction sets up a per-row inner loop, which for a small
    trailing axis (the option count here) costs ~15x more than chaining
    ``np.maximum`` over the columns.  Max is exactly associative, so the
    result is bitwise-identical at any width.
    """
    width = a.shape[-1]
    if width >= 8:
        return a.max(axis=-1, keepdims=True)
    out = a[..., 0].copy()
    for j in range(1, width):
        np.maximum(out, a[..., j], out=out)
    return out[..., None]


def _rowsum_small(a: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """``a.sum(axis=-1)`` via an elementwise column chain.

    Same speedup story as :func:`_rowmax_small`.  numpy's pairwise
    summation falls back to plain left-to-right order below 8 elements,
    which is exactly this chain — so for a small trailing axis the bits
    match ``a.sum(axis=-1)``; wider axes fall back to the reduction.
    """
    width = a.shape[-1]
    if width >= 8:
        return a.sum(axis=-1, keepdims=keepdims)
    out = a[..., 0].copy()
    for j in range(1, width):
        out += a[..., j]
    return out[..., None] if keepdims else out


def _stable_softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis (same arithmetic as
    ``CategoricalPolicy.probs_inference``)."""
    shifted = logits - _rowmax_small(logits)
    exp = np.exp(shifted)
    return exp / _rowsum_small(exp, keepdims=True)


def _check_relu_stack(children) -> None:
    """Raise ``ValueError`` unless ``children`` is a biased
    ``linear(-relu-linear)*`` stack with an identity output."""
    body = children[:-1] if isinstance(children[-1], Identity) else children
    for idx, child in enumerate(body):
        if idx % 2:
            ok = isinstance(child, ReLU) and idx < len(body) - 1
        else:
            ok = isinstance(child, Linear) and child.bias is not None
        if not ok:
            detail = " without bias" if isinstance(child, Linear) else ""
            raise ValueError(
                "StackedMLP needs biased linear(-relu-linear)* members with an "
                f"identity output; layer {idx} is {type(child).__name__}{detail}"
            )


class StackedMLP:
    """K architecturally identical ReLU MLPs fused into stacked parameters.

    Every member is a biased ``linear(-relu-linear)*`` stack with an
    identity output, the shape of every MLP the learners train; any other
    layer raises ``ValueError``.  Linear layer ``l`` across the family
    becomes one ``Parameter (K, in_l, out_l)`` (weights) and
    ``(K, 1, out_l)`` (biases), so a family pass maps ``(K, B, in)`` to
    ``(K, B, out)`` with one batched matmul per layer.  After
    :meth:`bind_members`, every member ``Linear``'s ``Parameter.data`` is
    a row view into the stack, so the members stay live for rollout
    inference and checkpointing while the engine updates the stack.
    """

    def __init__(self, members: Sequence[MLP]):
        if not members:
            raise ValueError("StackedMLP needs at least one member")
        self.members = list(members)
        nets = [m.net for m in self.members]
        for net in nets:
            _check_relu_stack(net.children)
        template = nets[0].children
        for net in nets[1:]:
            if len(net.children) != len(template):
                raise ValueError("family members have different depths")
            for child, ref in zip(net.children, template):
                if isinstance(child, Linear) and (
                    child.in_features != ref.in_features
                    or child.out_features != ref.out_features
                ):
                    raise ValueError("family members have different shapes")

        self._linear_columns = _family_linear_columns(self.members)
        self.weights = [
            Parameter(np.stack([lin.weight.data for lin in column]))
            for column in self._linear_columns
        ]
        self.biases = [
            Parameter(np.stack([lin.bias.data for lin in column])[:, None, :])
            for column in self._linear_columns
        ]
        # The family computes in its members' parameter dtype; every input
        # is cast here once so no float64 literal survives on the hot path.
        self.dtype = self.weights[0].data.dtype
        # Contiguous (K, out, in) copies of the weight stacks past the
        # first, for the backward hops: at family shapes a transposed
        # strided GEMM runs ~2x slower than a contiguous one.  ``None``
        # where a layer's output has width 1 (its hop is a broadcast
        # product).  Refreshed by every backward pass: the weights step.
        self._weights_t: list[np.ndarray | None] = [None] + [
            None
            if w.data.shape[-1] == 1
            else np.empty(np.swapaxes(w.data, -1, -2).shape, dtype=self.dtype)
            for w in self.weights[1:]
        ]
        self._bound: list[tuple[Parameter, np.ndarray]] = []
        self._ones_rows: dict[int, np.ndarray] = {}

    def _ones_row(self, rows: int) -> np.ndarray:
        """Cached ``(1, 1, rows)`` ones for the bias-adjoint GEMM."""
        ones = self._ones_rows.get(rows)
        if ones is None:
            ones = np.ones((1, 1, rows), dtype=self.dtype)
            self._ones_rows[rows] = ones
        return ones

    def _refresh_transposed(self) -> None:
        for weight, buf in zip(self.weights, self._weights_t):
            if buf is not None:
                np.copyto(buf, np.swapaxes(weight.data, -1, -2))

    def params(self) -> list[Parameter]:
        return self.weights + self.biases

    # ------------------------------------------------------------------
    # Member view binding
    # ------------------------------------------------------------------
    def bind_members(self) -> None:
        """Rebind every member parameter as a view into the stack.

        Call **after** the family optimiser is constructed: the optimiser
        flattens the stacked parameters into its own buffer, and the member
        views must alias that final storage.
        """
        self._bound = []
        for weight, bias, column in zip(
            self.weights, self.biases, self._linear_columns
        ):
            for k, lin in enumerate(column):
                lin.weight.data = weight.data[k]
                lin.bias.data = bias.data[k, 0]
                self._bound.append((lin.weight, lin.weight.data))
                self._bound.append((lin.bias, lin.bias.data))

    def sync_members(self) -> None:
        """Re-adopt member parameters whose ``.data`` was reassigned.

        ``load_state_dict`` replaces member ``.data`` with fresh arrays;
        copy those values back into the stack and restore the views so the
        engine and the members agree again.
        """
        for param, view in self._bound:
            if param.data is not view:
                view[...] = param.data
                param.data = view

    # ------------------------------------------------------------------
    # Family passes — the engine hot path
    # ------------------------------------------------------------------
    def infer(self, x: np.ndarray, start: int = 0) -> np.ndarray:
        """Gradient-free family forward on raw arrays: ``(K, B, ·) -> (K, B, out)``.

        With ``start > 0`` the pass begins at linear layer ``start`` and
        ``x`` is layer ``start - 1``'s affine output before its ReLU, which
        is applied in place — for callers that computed the first affines
        themselves (the per-option critic sweep reuses the observation
        block across options).
        """
        x = np.asarray(x, dtype=self.dtype)
        for pos in range(start, len(self.weights)):
            if pos:
                np.maximum(x, 0.0, out=x)
            x = np.matmul(x, self.weights[pos].data)
            x += self.biases[pos].data
        return x

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, tuple[list, list]]:
        """Forward pass returning ``(out, (acts, masks))`` for :meth:`backward_cached`.

        ``acts[l]`` is linear layer ``l``'s input, ``masks[l]`` the ReLU
        mask after it.  (Batched ``np.matmul`` is measurably slower when
        handed an ``out=`` buffer at family shapes, so the pass allocates
        its layer outputs.)
        """
        x = np.asarray(x, dtype=self.dtype)
        acts: list[np.ndarray] = []
        masks: list[np.ndarray] = []
        last = len(self.weights) - 1
        for pos, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            acts.append(x)
            x = np.matmul(x, weight.data)
            x += bias.data
            if pos != last:
                masks.append(x > 0)
                np.maximum(x, 0.0, out=x)
        return x, (acts, masks)

    def backward_cached(
        self,
        cache: tuple[list, list],
        grad: np.ndarray,
        need_input_grad: bool = False,
    ) -> np.ndarray | None:
        """VJP through :meth:`forward_cached`; returns the input gradient.

        Parameter gradients land in ``Parameter.grad``: written **in place**
        when a gradient buffer is already bound (:meth:`FamilyAdam.bind_grads`
        points them into the optimiser's flat vector), freshly allocated
        when unbound.  Bias adjoints reduce the batch through a BLAS GEMV
        (``ones @ grad``), whose summation order differs from the tape's
        pairwise sum — within the fused path's tolerance contract.  A
        width-1 layer's input adjoint is a broadcast product with its
        weight row.  The first layer's input gradient is computed only
        with ``need_input_grad``; otherwise ``None`` is returned.
        """
        acts, masks = cache
        self._refresh_transposed()
        ones = self._ones_row(grad.shape[-2])
        for pos in range(len(self.weights) - 1, -1, -1):
            weight, bias = self.weights[pos], self.biases[pos]
            x_t = np.swapaxes(acts[pos], -1, -2)
            if weight.grad is None:
                weight.grad = np.matmul(x_t, grad)
                bias.grad = np.matmul(ones, grad)
            else:
                np.matmul(x_t, grad, out=weight.grad)
                np.matmul(ones, grad, out=bias.grad)
            if pos == 0:
                break
            if grad.shape[-1] == 1:
                grad = grad * np.swapaxes(weight.data, -1, -2)
            else:
                grad = grad @ self._weights_t[pos]
            grad *= masks[pos - 1]
        if need_input_grad:
            return grad @ np.swapaxes(self.weights[0].data, -1, -2)
        return None

    def frozen_input_grad(
        self,
        masks: list[np.ndarray],
        upstream: float | np.ndarray,
        starts: Sequence[int],
        width: int,
    ) -> np.ndarray:
        """Input gradient of a scalar-output family with frozen parameters.

        The stop-gradient critic pass of an actor step, for a Q-network
        family with at least one hidden layer: ``masks`` come from
        :meth:`forward_cached` on the actor's critic inputs, ``upstream``
        is dL/dQ (a scalar or per-row ``(K, B, 1)``), and the result is
        the ``(K, B, width)`` gradient of member ``k``'s input columns
        ``starts[k]:starts[k] + width`` — the action block the actor fed.
        No parameter gradient is formed; the width-1 top layer is a
        broadcast product, and the first layer's GEMM shrinks to the
        block.  The block operand is built C-contiguous: a stack of
        transposed slices takes another BLAS path and other bits.
        """
        self._refresh_transposed()
        last = len(self.weights) - 1
        grad = masks[last - 1] * np.swapaxes(self.weights[last].data, -1, -2)
        grad *= upstream
        for pos in range(last - 1, 0, -1):
            grad = grad @ self._weights_t[pos]
            grad *= masks[pos - 1]
        w1 = self.weights[0].data
        block_t = np.empty((len(starts), w1.shape[-1], width), dtype=self.dtype)
        for k, start in enumerate(starts):
            block_t[k] = w1[k, start : start + width].T
        return grad @ block_t

    def zero_grad(self) -> None:
        for param in self.params():
            param.grad = None


def soft_update_stacked(
    target: StackedMLP,
    source: StackedMLP,
    tau: float,
    active: np.ndarray | None = None,
) -> None:
    """Polyak-average the source family into the target family.

    ``active`` (boolean, per member) restricts the update to the members
    whose learners stepped this round — mirroring the per-agent
    ``soft_update`` calls of the scalar loop.
    """
    full = active is None or bool(active.all())
    idx = None if full else np.flatnonzero(active)
    for tp, sp in zip(target.params(), source.params()):
        if full:
            tp.data *= 1.0 - tau
            tp.data += tau * sp.data
        elif len(idx):
            tp.data[idx] *= 1.0 - tau
            tp.data[idx] += tau * sp.data[idx]


class FamilyAdam:
    """Adam over stacked parameters, masked per family member.

    Elementwise identical to K independent :class:`repro.nn.Adam`
    optimisers (each member keeps its own step count for bias correction).
    The stacked parameters and moments live in one flat buffer
    (``Parameter.data`` becomes a view, like :class:`repro.nn.Optimizer`).
    Whenever every member is active the step is a dozen whole-buffer
    vector operations: with one bias correction when the members' step
    counts agree, and with each member's corrections gathered onto the
    flat buffer when they differ (members that became eligible on
    different rounds keep different counts for the rest of training).
    Only a step where some members sit out takes the per-parameter masked
    loop.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        num_members: int,
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.num_members = num_members
        self._t = np.zeros(num_members, dtype=np.int64)

        sizes = [p.data.size for p in self.params]
        bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self._slices = [
            slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])
        ]
        # Flat buffer (and moments/scratch via *_like) in the parameter
        # dtype: float32 families step entirely in float32.
        self._flat = np.empty(int(bounds[-1]), dtype=self.params[0].data.dtype)
        for param, sl in zip(self.params, self._slices):
            self._flat[sl] = param.data.reshape(-1)
            param.data = self._flat[sl].reshape(param.data.shape)
        self._grad = np.zeros_like(self._flat)
        self._grad_views = [
            self._grad[sl].reshape(p.data.shape)
            for p, sl in zip(self.params, self._slices)
        ]
        self._grads_bound = False
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._buf = np.empty_like(self._flat)
        self._buf2 = np.empty_like(self._flat)
        # Per-element bias corrections for whole-buffer steps over uneven
        # step counts.
        self._bias1 = np.empty_like(self._flat)
        self._bias2 = np.empty_like(self._flat)

    def zero_grad(self) -> None:
        self._grads_bound = False
        for param in self.params:
            param.grad = None

    def bind_grads(self) -> None:
        """Point every ``Parameter.grad`` into the flat gradient buffer.

        ``StackedMLP.backward_cached`` then writes gradients straight into
        the optimiser's vector (no allocation, no gather copy in
        :meth:`step`); stale contents are fully overwritten by the next
        backward pass.  While the binding holds (until :meth:`zero_grad`)
        the steady-state step skips its per-parameter gather loop.
        """
        if self._grads_bound:
            return
        for param, view in zip(self.params, self._grad_views):
            param.grad = view
        self._grads_bound = True

    def step(self, active: np.ndarray | None = None) -> None:
        if active is None:
            self._t += 1
        elif not active.any():
            return
        elif bool(active.all()):
            self._t += 1
        else:
            self._t[active] += 1
            self._step_masked(active)
            return
        if self.num_members == 1 or self._t.min() == self._t.max():
            t = int(self._t[0])
            self._step_flat(1.0 - self.beta1**t, 1.0 - self.beta2**t)
        elif all(p.grad is not None for p in self.params):
            bias1, bias2 = self._member_bias()
            # Each stacked parameter is K contiguous member blocks.
            for sl in self._slices:
                self._bias1[sl].reshape(self.num_members, -1)[...] = bias1[:, None]
                self._bias2[sl].reshape(self.num_members, -1)[...] = bias2[:, None]
            self._step_flat(self._bias1, self._bias2)
        else:
            self._step_masked(np.ones(self.num_members, dtype=bool))

    def _member_bias(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-member bias corrections, in the parameter dtype."""
        t = self._t.astype(self._flat.dtype)
        return 1.0 - self.beta1**t, 1.0 - self.beta2**t

    def _step_flat(self, bias1, bias2) -> None:
        """Every member active: one fused pass over the whole family buffer.

        ``bias1``/``bias2`` are the Adam bias corrections, one float when
        the members' step counts agree, else flat per-element arrays of
        each member's :meth:`_member_bias`; the expression order is
        :meth:`_step_masked`'s, so the two agree bitwise.
        """
        if not self._grads_bound:
            for param, sl, view in zip(
                self.params, self._slices, self._grad_views
            ):
                if param.grad is view:
                    continue  # backward wrote straight into the flat buffer
                if param.grad is None:
                    self._grad[sl] = 0.0
                    continue
                self._grad[sl] = param.grad.reshape(-1)
        grad, m, v = self._grad, self._m, self._v
        buf, buf2 = self._buf, self._buf2
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=buf)
        m += buf
        v *= self.beta2
        np.multiply(grad, grad, out=buf)
        buf *= 1.0 - self.beta2
        v += buf
        np.divide(m, bias1, out=buf)
        buf *= self.lr
        np.divide(v, bias2, out=buf2)
        np.sqrt(buf2, out=buf2)
        buf2 += self.eps
        buf /= buf2
        self._flat -= buf

    def _step_masked(self, active: np.ndarray) -> None:
        """Per-member masked step for a round where some members sit out."""
        bias1, bias2 = self._member_bias()
        idx = np.flatnonzero(active)
        for param, sl in zip(self.params, self._slices):
            grad = param.grad
            if grad is None:
                continue
            shape = param.data.shape
            expand = (self.num_members,) + (1,) * (len(shape) - 1)
            b1 = bias1.reshape(expand)
            b2 = bias2.reshape(expand)
            m = self._m[sl].reshape(shape)
            v = self._v[sl].reshape(shape)
            g = grad[idx]
            m[idx] = m[idx] * self.beta1 + (1.0 - self.beta1) * g
            v[idx] = v[idx] * self.beta2 + (1.0 - self.beta2) * g**2
            param.data[idx] -= (
                self.lr
                * (m[idx] / b1[idx])
                / (np.sqrt(v[idx] / b2[idx]) + self.eps)
            )


class HeroTeamUpdateEngine:
    """Fused update for a :class:`~repro.core.hero.HeroTeam`.

    The scalar loop runs, per agent: one critic step, one actor step and
    one step per opponent predictor — ``A * (2 + J)`` small network updates.
    Here the A critics, A actors and ``A * J`` predictors form three
    :class:`StackedMLP` families, each updated with one forward/backward;
    per-agent replay sampling order and eligibility gates are preserved, so
    the result matches the scalar loop within float tolerance.
    """

    def __init__(self, team):
        self.team = team
        self.highs = [agent.high_level for agent in team.agents.values()]
        self.agent_ids = list(team.agents.keys())
        first = self.highs[0]
        for high in self.highs[1:]:
            if (
                high.obs_dim != first.obs_dim
                or high.num_options != first.num_options
                or high.num_opponents != first.num_opponents
                or high.opponent_mode != first.opponent_mode
                or high.batch_size != first.batch_size
            ):
                raise ValueError("HeroTeam agents are not architecturally uniform")
        self.num_options = first.num_options
        self.num_opponents = first.num_opponents
        self.opponent_mode = first.opponent_mode

        self.critic_family = StackedMLP([h.critic for h in self.highs])
        self.critic_opt = FamilyAdam(
            self.critic_family.params(), len(self.highs), lr=first.critic_opt.lr
        )
        self.critic_family.bind_members()
        self.target_family = StackedMLP([h.target_critic for h in self.highs])
        self.target_family.bind_members()

        self.actor_family = StackedMLP([h.actor.trunk for h in self.highs])
        self.actor_opt = FamilyAdam(
            self.actor_family.params(), len(self.highs), lr=first.actor_opt.lr
        )
        self.actor_family.bind_members()

        self.opponent_family: StackedMLP | None = None
        self.opponent_opt: FamilyAdam | None = None
        if self.num_opponents and self.opponent_mode == "model":
            predictors = [
                pred.trunk for h in self.highs for pred in h.opponent_model.predictors
            ]
            self.opponent_family = StackedMLP(predictors)
            self.opponent_opt = FamilyAdam(
                self.opponent_family.params(),
                len(predictors),
                lr=first.opponent_model.optimizers[0].lr,
            )
            self.opponent_family.bind_members()

    # ------------------------------------------------------------------
    def _sync(self) -> None:
        self.critic_family.sync_members()
        self.target_family.sync_members()
        self.actor_family.sync_members()
        if self.opponent_family is not None:
            self.opponent_family.sync_members()

    def _opponent_input(self, obs_stack: np.ndarray) -> np.ndarray:
        """Per-agent opponent representation, shape ``(A, B, J * O)``.

        Mirrors ``HighLevelAgent._opponent_rep_batch`` for every agent in
        one family inference pass (mode ``model``).
        """
        num_agents, batch = obs_stack.shape[:2]
        options = self.num_options
        opponents = self.num_opponents
        if opponents == 0:
            return np.zeros((num_agents, batch, 0), dtype=obs_stack.dtype)
        if self.opponent_mode == "model":
            stacked_in = np.repeat(obs_stack, opponents, axis=0)  # (A*J, B, do)
            logits = self.opponent_family.infer(stacked_in)
            probs = _stable_softmax(logits)  # (A*J, B, O)
            return (
                probs.reshape(num_agents, opponents, batch, options)
                .transpose(0, 2, 1, 3)
                .reshape(num_agents, batch, opponents * options)
            )
        if self.opponent_mode == "observed":
            rows = [
                np.tile(
                    one_hot(h._last_observed_options, options).reshape(-1), (batch, 1)
                )
                for h in self.highs
            ]
            return np.stack(rows)
        return np.zeros((num_agents, batch, opponents * options), dtype=obs_stack.dtype)

    # ------------------------------------------------------------------
    def update(self) -> dict[str, float]:
        """One fused team update; same merged-loss dict as ``HeroTeam.update``."""
        self._sync()
        highs = self.highs
        num_agents = len(highs)
        options = self.num_options
        opponents = self.num_opponents
        batch_size = highs[0].batch_size
        dtype = self.critic_family.dtype

        eligible = np.array(
            [len(h.buffer) >= max(h.batch_size // 4, 8) for h in highs]
        )
        if not eligible.any():
            return {}
        batches = [
            h.buffer.sample(batch_size, h._rng) if ok else None
            for h, ok in zip(highs, eligible)
        ]

        # Buffers return min(batch_size, len(buffer)) rows, so early batches
        # can be ragged across agents; pad to the widest and weight rows by
        # 1/B_k so each member's loss is exactly its own batch mean.  In
        # the steady state every batch is full and stacking is direct.
        counts = np.array(
            [len(b["obs"]) if b is not None else 1 for b in batches]
        )
        obs_dim = highs[0].obs_dim
        if eligible.all() and counts.min() == counts.max():
            batch_size = int(counts[0])
            row_weight = np.full((num_agents, batch_size), 1.0 / batch_size, dtype=dtype)
            obs = np.array([b["obs"] for b in batches], dtype=dtype)
            next_obs = np.array([b["next_obs"] for b in batches], dtype=dtype)
            rewards = np.array([b["rewards"] for b in batches], dtype=dtype)
            dones = np.array([b["dones"] for b in batches], dtype=dtype)
            steps = np.array([b["steps"] for b in batches], dtype=dtype)
            opts = np.array([b["options"] for b in batches], dtype=np.int64)
            others = np.array(
                [b["other_options"] for b in batches], dtype=np.int64
            )
        else:
            batch_size = int(counts.max())
            row_weight = np.zeros((num_agents, batch_size), dtype=dtype)
            obs = np.zeros((num_agents, batch_size, obs_dim), dtype=dtype)
            next_obs = np.zeros((num_agents, batch_size, obs_dim), dtype=dtype)
            rewards = np.zeros((num_agents, batch_size), dtype=dtype)
            dones = np.zeros((num_agents, batch_size), dtype=dtype)
            steps = np.zeros((num_agents, batch_size), dtype=dtype)
            opts = np.zeros((num_agents, batch_size), dtype=np.int64)
            others = np.zeros(
                (num_agents, batch_size, max(opponents, 1)), dtype=np.int64
            )
            for k, batch in enumerate(batches):
                if batch is None:
                    continue
                rows = counts[k]
                row_weight[k, :rows] = 1.0 / rows
                obs[k, :rows] = batch["obs"]
                next_obs[k, :rows] = batch["next_obs"]
                rewards[k, :rows] = batch["rewards"]
                dones[k, :rows] = batch["dones"]
                steps[k, :rows] = batch["steps"]
                opts[k, :rows] = batch["options"]
                others[k, :rows] = batch["other_options"]

        own_onehot = one_hot(opts, options, dtype=dtype)  # (A, B, O)
        if opponents:
            other_onehot = one_hot(others, options, dtype=dtype).reshape(
                num_agents, batch_size, opponents * options
            )
        else:
            other_onehot = np.zeros((num_agents, batch_size, 0), dtype=dtype)

        # --- Critic family: SMDP TD targets, one cached forward + manual VJP.
        # One family pass covers the opponent representations of both the
        # TD-target states (next_obs) and the actor states (obs).
        both_reps = self._opponent_input(
            np.concatenate([next_obs, obs], axis=1)
        )
        next_other_rep = both_reps[:, :batch_size]
        other_rep = both_reps[:, batch_size:]
        next_actor_in = np.concatenate([next_obs, next_other_rep], axis=-1)
        next_own_probs = _stable_softmax(self.actor_family.infer(next_actor_in))
        target_in = np.concatenate(
            [next_obs, next_own_probs, next_other_rep], axis=-1
        )
        next_q = self.target_family.infer(target_in)[..., 0]
        discount = highs[0].gamma ** steps
        y = rewards + discount * (1.0 - dones) * next_q

        member_w = eligible.astype(dtype)
        critic_in = np.concatenate([obs, own_onehot, other_onehot], axis=-1)
        q_out, critic_cache = self.critic_family.forward_cached(critic_in)
        diff = q_out[..., 0] - y  # (A, B)
        critic_losses = (diff * diff * row_weight).sum(axis=1)  # per-member means
        grad_q = (2.0 * diff * row_weight) * member_w[:, None]
        self.critic_opt.bind_grads()
        self.critic_family.backward_cached(critic_cache, grad_q[..., None])
        clip_grad_norm_stacked(
            [p.grad for p in self.critic_family.params()], highs[0].grad_clip
        )
        self.critic_opt.step(eligible)
        soft_update_stacked(
            self.target_family, self.critic_family, highs[0].tau, eligible
        )

        # --- Actor family: expected (all-option) policy gradient, manual VJP.
        actor_in = np.concatenate([obs, other_rep], axis=-1)
        logits, actor_cache = self.actor_family.forward_cached(actor_in)  # (A,B,O)
        shifted = logits - _rowmax_small(logits)
        log_probs = shifted - np.log(_rowsum_small(np.exp(shifted), keepdims=True))
        probs = np.exp(log_probs)

        # Per-option critic sweep: only the own-option one-hot block of the
        # first affine varies across options, so compute the (obs, others)
        # contribution once and add the option's weight row per option —
        # then run the remaining layers on the (A, O*B) stack.
        W1 = self.critic_family.weights[0].data  # (A, ci, H)
        b1 = self.critic_family.biases[0].data
        base = (
            np.matmul(obs, W1[:, :obs_dim])
            + np.matmul(other_onehot, W1[:, obs_dim + options :])
            + b1
        )  # (A, B, H)
        option_rows = W1[:, obs_dim : obs_dim + options]  # (A, O, H)
        z1 = (base[:, None] + option_rows[:, :, None, :]).reshape(
            num_agents, options * batch_size, -1
        )
        q_all = (
            self.critic_family.infer(z1, start=1)[..., 0]
            .reshape(num_agents, options, batch_size)
            .transpose(0, 2, 1)
        )  # (A, B, O)
        if highs[0].use_baseline:
            advantage = q_all - _rowsum_small(probs * q_all, keepdims=True)
        else:
            advantage = q_all
        expected_adv = _rowsum_small(probs * advantage)  # (A, B)
        entropy_rows = -_rowsum_small(probs * log_probs)  # (A, B)
        entropy = (entropy_rows * row_weight).sum(axis=-1)  # per-member means
        coef = highs[0].entropy_coef
        actor_losses = -(expected_adv * row_weight).sum(axis=-1) - entropy * coef
        # d/dlogits of [-E_pi[A] - coef*H]: softmax Jacobian in closed form.
        grad_logits = (member_w[:, None, None] * row_weight[..., None]) * (
            -(probs * (advantage - expected_adv[..., None]))
            + coef * (probs * (log_probs + entropy_rows[..., None]))
        )
        self.actor_opt.bind_grads()
        self.actor_family.backward_cached(actor_cache, grad_logits)
        clip_grad_norm_stacked(
            [p.grad for p in self.actor_family.params()], highs[0].grad_clip
        )
        self.actor_opt.step(eligible)

        losses: dict[str, float] = {}
        for k, agent_id in enumerate(self.agent_ids):
            if not eligible[k]:
                continue
            losses[f"{agent_id}/critic_loss"] = float(critic_losses[k])
            losses[f"{agent_id}/actor_loss"] = float(actor_losses[k])
            losses[f"{agent_id}/entropy"] = float(entropy[k])

        # --- Opponent-model family: one NLL step for all A*J predictors.
        if self.opponent_family is not None:
            self._update_opponent_models(eligible, losses)
        return losses

    def _update_opponent_models(
        self, eligible: np.ndarray, losses: dict[str, float]
    ) -> None:
        highs = self.highs
        num_agents = len(highs)
        opponents = self.num_opponents
        options = self.num_options
        models = [h.opponent_model for h in highs]
        # The scalar loop reaches the opponent update only for agents that
        # passed the main eligibility gate, then gates again on history.
        agent_ok = eligible & np.array([len(m.history) >= 8 for m in models])
        if not agent_ok.any():
            return
        batch_size = models[0].batch_size
        hist = [
            m.history.sample(batch_size, h._rng) if ok else None
            for m, h, ok in zip(models, highs, agent_ok)
        ]
        counts = np.array([len(b["obs"]) if b is not None else 1 for b in hist])
        dtype = self.opponent_family.dtype
        batch_size = int(counts.max())
        hist_dim = models[0].obs_dim
        hist_obs = np.zeros((num_agents, batch_size, hist_dim), dtype=dtype)
        hist_labels = np.zeros((num_agents, batch_size, opponents), dtype=np.int64)
        row_weight = np.zeros((num_agents, batch_size), dtype=dtype)
        for k, batch in enumerate(hist):
            if batch is None:
                continue
            rows = counts[k]
            row_weight[k, :rows] = 1.0 / rows
            hist_obs[k, :rows] = batch["obs"]
            hist_labels[k, :rows] = batch["options"]

        member_ok = np.repeat(agent_ok, opponents)  # (A*J,)
        stacked_in = np.repeat(hist_obs, opponents, axis=0)  # (A*J, B, do)
        labels = hist_labels.transpose(0, 2, 1).reshape(
            num_agents * opponents, batch_size
        )
        row_w = np.repeat(row_weight, opponents, axis=0)  # (A*J, B)
        logits, cache = self.opponent_family.forward_cached(stacked_in)
        shifted = logits - _rowmax_small(logits)
        log_probs = shifted - np.log(_rowsum_small(np.exp(shifted), keepdims=True))
        probs = np.exp(log_probs)
        picked = np.take_along_axis(log_probs, labels[..., None], axis=-1)[..., 0]
        nll = -((picked * row_w).sum(axis=-1))  # (A*J,) per-member means
        entropy_rows = -_rowsum_small(probs * log_probs)  # (A*J, B)
        entropy = (entropy_rows * row_w).sum(axis=-1)
        coef = models[0].entropy_coef
        # d/dlogits of [NLL - coef*H]: (p - onehot) plus the entropy Jacobian.
        member_w = member_ok.astype(dtype)
        grad_logits = (member_w[:, None, None] * row_w[..., None]) * (
            (probs - one_hot(labels, options, dtype=dtype))
            + coef * (probs * (log_probs + entropy_rows[..., None]))
        )
        self.opponent_opt.bind_grads()
        self.opponent_family.backward_cached(cache, grad_logits)
        clip_grad_norm_stacked(
            [p.grad for p in self.opponent_family.params()], models[0].grad_clip
        )
        self.opponent_opt.step(member_ok)

        for k, agent_id in enumerate(self.agent_ids):
            if not agent_ok[k]:
                continue
            for j in range(opponents):
                member = k * opponents + j
                losses[f"{agent_id}/opponent_{j}_nll"] = float(nll[member])
                losses[f"{agent_id}/opponent_{j}_entropy"] = float(entropy[member])


class SACUpdateEngine:
    """Fused update for one :class:`~repro.core.low_level.SACAgent`.

    The twin critics are one two-member family (one forward/backward for
    both Q networks, jointly clipped and stepped as in the scalar loop);
    the actor is a one-member family.  One actor forward over
    ``[next_obs; obs]`` and one ``sample_no_grad`` call serve both the TD
    target and the reparameterised actor sample: the actor does not change
    before its own step, and one ``(2B, d)`` noise draw is the stream of
    the scalar loop's two ``(B, d)`` draws, so RNG consumption matches
    ``SACAgent.update`` draw for draw.  The actor gradient is the
    squashed-Gaussian reparameterisation in closed form against the frozen
    critic family (:meth:`StackedMLP.frozen_input_grad` over the action
    columns).
    """

    def __init__(self, agent):
        self.agent = agent
        self.critic_family = StackedMLP(
            [agent.critic.q1.trunk, agent.critic.q2.trunk]
        )
        self.critic_opt = FamilyAdam(
            self.critic_family.params(), 2, lr=agent.critic_opt.lr
        )
        self.critic_family.bind_members()
        self.target_family = StackedMLP(
            [agent.target_critic.q1.trunk, agent.target_critic.q2.trunk]
        )
        self.target_family.bind_members()
        self.actor_family = StackedMLP([agent.actor.trunk])
        self.actor_opt = FamilyAdam(
            self.actor_family.params(), 1, lr=agent.actor_opt.lr
        )
        self.actor_family.bind_members()

    def update(self) -> dict[str, float] | None:
        agent = self.agent
        if len(agent.buffer) < agent.batch_size // 4 or len(agent.buffer) < 8:
            return None
        self.critic_family.sync_members()
        self.target_family.sync_members()
        self.actor_family.sync_members()
        batch = agent.buffer.sample(agent.batch_size, agent._rng)
        rows = len(batch["dones"])
        dtype = self.critic_family.dtype
        actor = agent.actor
        alpha = agent.alpha

        # --- One actor pass: TD-target sample and actor sample -------------
        obs_pair = np.concatenate([batch["next_obs"], batch["obs"]]).astype(dtype)
        trunk_out, (actor_acts, actor_masks) = self.actor_family.forward_cached(
            obs_pair[None]
        )
        action_pair, log_prob_pair, parts = actor.sample_no_grad(
            obs_pair, agent._rng, trunk_out=trunk_out[0], return_parts=True
        )
        next_obs, obs = obs_pair[:rows], obs_pair[rows:]
        next_action, action = action_pair[:rows], action_pair[rows:]
        next_log_prob, log_prob = log_prob_pair[:rows], log_prob_pair[rows:]

        # --- Critic family -------------------------------------------------
        target_in = np.concatenate([next_obs, next_action], axis=-1)
        # ``x[None]`` against the (2, in, out) stacks broadcasts one input
        # over both members.
        target_q = self.target_family.infer(target_in[None])[..., 0].min(axis=0)
        soft_target = target_q - alpha * next_log_prob
        y = batch["rewards"] + agent.gamma * (1.0 - batch["dones"]) * soft_target

        critic_in = np.concatenate(
            [obs, batch["actions"].astype(dtype, copy=False)], axis=-1
        )
        q_out, critic_cache = self.critic_family.forward_cached(critic_in[None])
        diff = q_out[..., 0] - y[None]  # (2, B)
        critic_loss = float((diff * diff).mean(axis=1).sum())
        self.critic_opt.bind_grads()
        self.critic_family.backward_cached(critic_cache, (2.0 / rows) * diff[..., None])
        clip_grad_norm_flat(self.critic_opt._grad, agent.grad_clip)
        self.critic_opt.step()

        # --- Actor against the frozen critic family ------------------------
        # dL/dq_new = -1/B routed to the member the min selected, carried
        # down the stepped critic with its parameters frozen to the action
        # columns of its input.
        actor_q_in = np.concatenate([obs, action], axis=-1)
        q_rows, (_, frozen_masks) = self.critic_family.forward_cached(actor_q_in[None])
        q_pair = q_rows[..., 0]  # (2, B)
        take_first = q_pair[0] <= q_pair[1]
        q_new = np.where(take_first, q_pair[0], q_pair[1])
        actor_loss = float(np.mean(alpha * log_prob - q_new))
        upstream = np.stack([take_first, ~take_first]).astype(dtype)[..., None]
        upstream *= -1.0 / rows
        obs_width = obs.shape[-1]
        grad_action = self.critic_family.frozen_input_grad(
            frozen_masks, upstream, (obs_width, obs_width), action.shape[-1]
        ).sum(axis=0)  # (B, d)

        # Chain rule: action -> tanh -> pre_tanh -> (mean, log_std), plus
        # the log-prob terms (alpha/B each): d log_prob/d pre_tanh = 2*tanh
        # (tanh correction), d log_prob/d log_std = -1 (Gaussian term).
        std, noise = parts["std"][rows:], parts["noise"][rows:]
        squashed, clip_mask = parts["squashed"][rows:], parts["clip_mask"][rows:]
        grad_log_prob = alpha / rows
        grad_squashed = grad_action * actor._action_scale
        grad_pre_tanh = grad_squashed * (1.0 - squashed**2) + grad_log_prob * (
            2.0 * squashed
        )
        grad_mean = grad_pre_tanh
        grad_log_std = (grad_pre_tanh * (std * noise) - grad_log_prob) * clip_mask
        grad_out = np.concatenate([grad_mean, grad_log_std], axis=-1)[None]
        self.actor_opt.bind_grads()
        # Backward over the obs half of the pass only.
        self.actor_family.backward_cached(
            ([x[:, rows:] for x in actor_acts], [m[:, rows:] for m in actor_masks]),
            grad_out,
        )
        clip_grad_norm_flat(self.actor_opt._grad, agent.grad_clip)
        self.actor_opt.step()

        # --- Temperature + targets (same as the scalar loop) ---------------
        if agent.auto_alpha:
            entropy_gap = float((log_prob + agent.target_entropy).mean())
            agent._log_alpha -= agent._alpha_lr * entropy_gap
            agent._log_alpha = float(np.clip(agent._log_alpha, -10.0, 2.0))
        soft_update_stacked(self.target_family, self.critic_family, agent.tau)
        return {
            "critic_loss": critic_loss,
            "actor_loss": actor_loss,
            "alpha": agent.alpha,
            "entropy": -float(log_prob.mean()),
        }


class IDQNUpdateEngine:
    """Fused update for :class:`~repro.baselines.idqn.IndependentDQN`.

    The per-agent DQNs (and their targets) become one family each: one
    stacked forward/backward replaces the per-agent loop, with per-member
    gradient clipping and a vectorized soft target update.  Replay sampling
    order over the shared RNG matches the scalar loop.
    """

    def __init__(self, algorithm):
        self.algorithm = algorithm
        ids = algorithm.agent_ids
        self.family = StackedMLP([algorithm.q_networks[a].trunk for a in ids])
        self.opt = FamilyAdam(
            self.family.params(), len(ids), lr=algorithm.optimizers[ids[0]].lr
        )
        self.family.bind_members()
        self.target_family = StackedMLP(
            [algorithm.target_networks[a].trunk for a in ids]
        )
        self.target_family.bind_members()

    def update(self) -> dict[str, float] | None:
        algo = self.algorithm
        if any(
            len(b) < max(algo.batch_size // 4, 8) for b in algo.buffers.values()
        ):
            return None
        self.family.sync_members()
        self.target_family.sync_members()
        batches = [
            algo.buffers[a].sample(algo.batch_size, algo._rng)
            for a in algo.agent_ids
        ]
        dtype = self.family.dtype
        obs = np.array([b["obs"] for b in batches], dtype=dtype)
        next_obs = np.array([b["next_obs"] for b in batches], dtype=dtype)
        rewards = np.array([b["rewards"] for b in batches])
        dones = np.array([b["dones"] for b in batches])
        action_idx = np.array([b["actions"] for b in batches], dtype=np.int64)

        next_q_target = self.target_family.infer(next_obs)  # (A, B, |A|)
        if algo.double_q:
            next_best = self.family.infer(next_obs).argmax(axis=-1)
            next_value = np.take_along_axis(
                next_q_target, next_best[..., None], axis=-1
            )[..., 0]
        else:
            next_value = _rowmax_small(next_q_target)[..., 0]
        y = rewards + algo.gamma * (1.0 - dones) * next_value

        q_rows, cache = self.family.forward_cached(obs)  # (A, B, |A|)
        q_chosen = np.take_along_axis(q_rows, action_idx, axis=-1)[..., 0]
        diff = q_chosen - y
        batch_rows = diff.shape[1]
        member_losses = (diff * diff).mean(axis=1)  # (A,)
        grad_rows = np.zeros_like(q_rows)
        np.put_along_axis(
            grad_rows, action_idx, (2.0 / batch_rows) * diff[..., None], axis=-1
        )
        self.opt.bind_grads()
        self.family.backward_cached(cache, grad_rows)
        clip_grad_norm_stacked(
            [p.grad for p in self.family.params()], algo.grad_clip
        )
        self.opt.step()
        soft_update_stacked(self.target_family, self.family, algo.tau)
        return {
            f"{agent}/q_loss": float(member_losses[k])
            for k, agent in enumerate(algo.agent_ids)
        }


class MADDPGUpdateEngine:
    """Fused update for :class:`~repro.baselines.maddpg.MADDPG`.

    The per-agent actors (and targets) and the per-agent joint-observation
    critics (and targets) become four :class:`StackedMLP` families.  One
    round runs: a family TD step over all critics, then the actor step via
    the **cross-family VJP** — the Gumbel-softmax straight-through actions
    feed a frozen critic-family forward, :meth:`StackedMLP.frozen_input_grad`
    returns dQ/d(own action block) per agent, and that chains through the
    softmax Jacobian into the actor family's own backward.  No agent's
    critic parameters depend on another agent's within a round (the critic
    inputs use *replayed* joint actions), so batching all critic steps
    before all actor steps reproduces the scalar interleaving; replay
    sampling and per-agent Gumbel draws consume the shared RNG in the
    scalar loop's order.
    """

    def __init__(self, algorithm):
        self.algorithm = algorithm
        n = algorithm.num_agents
        self.actor_family = StackedMLP([a.trunk for a in algorithm.actors])
        self.actor_opt = FamilyAdam(
            self.actor_family.params(), n, lr=algorithm.actor_opts[0].lr
        )
        self.actor_family.bind_members()
        self.target_actor_family = StackedMLP(
            [a.trunk for a in algorithm.target_actors]
        )
        self.target_actor_family.bind_members()
        self.critic_family = StackedMLP(algorithm.critics)
        self.critic_opt = FamilyAdam(
            self.critic_family.params(), n, lr=algorithm.critic_opts[0].lr
        )
        self.critic_family.bind_members()
        self.target_critic_family = StackedMLP(algorithm.target_critics)
        self.target_critic_family.bind_members()

    def update(self) -> dict[str, float] | None:
        algo = self.algorithm
        if len(algo.buffer) < max(algo.batch_size // 4, 8):
            return None
        self.actor_family.sync_members()
        self.target_actor_family.sync_members()
        self.critic_family.sync_members()
        self.target_critic_family.sync_members()

        batch = algo.buffer.sample(algo.batch_size, algo._rng)
        batch_size = len(batch["dones"])
        n = algo.num_agents
        num_actions = algo.num_actions
        obs_dim = algo.obs_dim
        dtype = self.critic_family.dtype

        obs_stack = batch["obs"].transpose(1, 0, 2)  # (A, B, do)
        joint_obs = batch["obs"].reshape(batch_size, -1)
        joint_actions = one_hot(batch["actions"], num_actions, dtype=dtype).reshape(
            batch_size, -1
        )

        # Target joint action: one target-actor family inference, hard
        # one-hot per agent (same argmax rows as the scalar loop).
        next_logits = self.target_actor_family.infer(
            batch["next_obs"].transpose(1, 0, 2)
        )
        joint_next_actions = (
            one_hot(next_logits.argmax(axis=-1), num_actions, dtype=dtype)
            .transpose(1, 0, 2)
            .reshape(batch_size, -1)
        )

        # --- Critic family: one TD step for all agents' critics ------------
        target_in = np.concatenate(
            [batch["next_obs"].reshape(batch_size, -1), joint_next_actions], axis=-1
        ).astype(dtype, copy=False)
        target_q = self.target_critic_family.infer(
            np.broadcast_to(target_in, (n,) + target_in.shape)
        )[..., 0]  # (A, B)
        y = batch["rewards"].T + algo.gamma * (1.0 - batch["dones"])[None] * target_q

        critic_in = np.concatenate([joint_obs, joint_actions], axis=-1).astype(
            dtype, copy=False
        )
        q_out, critic_cache = self.critic_family.forward_cached(
            np.broadcast_to(critic_in, (n,) + critic_in.shape)
        )
        diff = q_out[..., 0] - y  # (A, B)
        critic_losses = (diff * diff).mean(axis=1)
        self.critic_opt.bind_grads()
        self.critic_family.backward_cached(
            critic_cache, (2.0 / batch_size) * diff[..., None]
        )
        clip_grad_norm_stacked(
            [p.grad for p in self.critic_family.params()], algo.grad_clip
        )
        self.critic_opt.step()

        # --- Actor step via the cross-family VJP ---------------------------
        # One Gumbel draw for all agents: the generator fills C-order, so a
        # (A, B, O) request consumes the exact uniform stream of the scalar
        # loop's per-agent (B, O) calls in index order (the draws are
        # parameter-independent, so pulling them ahead of the forward is
        # stream-neutral).
        noise = gumbel_noise((n, batch_size, num_actions), algo._rng).astype(
            dtype, copy=False
        )
        logits, actor_cache = self.actor_family.forward_cached(obs_stack)  # (A, B, O)
        inv_temp = 1.0 / algo.temperature
        y_soft = _stable_softmax((logits + noise) * inv_temp)
        y_hard = one_hot(y_soft.argmax(axis=-1), num_actions, dtype=dtype)
        # Straight-through forward value, same bit pattern as gumbel_softmax.
        hard_action = (y_hard - y_soft) + y_soft

        # Each agent's critic sees the replayed joint input with only its
        # own action block swapped for the differentiable sample.
        actor_q_in = np.repeat(critic_in[None], n, axis=0)
        starts = [n * obs_dim + i * num_actions for i in range(n)]
        for i, start in enumerate(starts):
            actor_q_in[i, :, start : start + num_actions] = hard_action[i]
        # dL/dQ = -1/B; the critic parameters are stop-gradiented across
        # forward+backward, only dQ/d(own action block) survives.
        q_actor, (_, frozen_masks) = self.critic_family.forward_cached(actor_q_in)
        actor_losses = -q_actor[..., 0].mean(axis=1)  # (A,)
        grad_action = self.critic_family.frozen_input_grad(
            frozen_masks, -1.0 / batch_size, starts, num_actions
        )  # (A, B, O)
        # Straight-through passes the gradient to the soft sample; chain the
        # softmax Jacobian (with the 1/temperature factor) to the logits.
        dot = _rowsum_small(grad_action * y_soft, keepdims=True)
        grad_logits = inv_temp * y_soft * (grad_action - dot)
        self.actor_opt.bind_grads()
        self.actor_family.backward_cached(actor_cache, grad_logits)
        clip_grad_norm_stacked(
            [p.grad for p in self.actor_family.params()], algo.grad_clip
        )
        self.actor_opt.step()

        soft_update_stacked(self.target_critic_family, self.critic_family, algo.tau)
        soft_update_stacked(self.target_actor_family, self.actor_family, algo.tau)

        losses: dict[str, float] = {}
        for i, agent in enumerate(algo.agent_ids):
            losses[f"{agent}/critic_loss"] = float(critic_losses[i])
            losses[f"{agent}/actor_loss"] = float(actor_losses[i])
        return losses


class MAACUpdateEngine:
    """Fused update for :class:`~repro.baselines.maac.MAAC`.

    The shared attention critic decomposes into three one-member
    :class:`StackedMLP` families (observation encoder, state-action
    encoder, per-action head — each already batched over ``n_agents *
    batch`` rows) plus the raw attention projections, all stepped by one
    :class:`FamilyAdam`; the attention block's VJP is closed-form (softmax
    Jacobian over the scores, GEMMs for the projections).  The actor is a
    one-member family evaluated on all agents' rows at once; its
    score-function gradient routes through the fused critic's Q rows.  TD
    targets come from the target critic's folded no-grad pass.  RNG
    consumption (replay sample, per-agent next-action draws, per-agent
    sampled actions) matches the scalar loop draw for draw.
    """

    def __init__(self, algorithm):
        self.algorithm = algorithm
        critic = algorithm.critic
        self.obs_enc = StackedMLP([critic.obs_encoder])
        self.sa_enc = StackedMLP([critic.sa_encoder])
        self.head = StackedMLP([critic.head])
        self.attn_params: list[Parameter] = []
        for head in critic.attention.heads:
            self.attn_params += [
                head.query_proj.weight,
                head.key_proj.weight,
                head.value_proj.weight,
            ]
        self.attn_params += [
            critic.attention.out_proj.weight,
            critic.attention.out_proj.bias,
        ]
        self.critic_params = (
            self.obs_enc.params()
            + self.sa_enc.params()
            + self.head.params()
            + self.attn_params
        )
        # One optimiser over encoders + attention + head: with a single
        # member the family step is elementwise identical to the scalar
        # loop's one Adam over critic.parameters().
        self.critic_opt = FamilyAdam(
            self.critic_params, 1, lr=algorithm.critic_opt.lr
        )
        self.obs_enc.bind_members()
        self.sa_enc.bind_members()
        self.head.bind_members()
        # FamilyAdam rebound the raw attention params into its flat buffer;
        # remember the views so _sync can re-adopt after load_state_dict.
        self._attn_views = [(p, p.data) for p in self.attn_params]

        self.actor_family = StackedMLP([algorithm.actor.trunk])
        self.actor_opt = FamilyAdam(
            self.actor_family.params(), 1, lr=algorithm.actor_opt.lr
        )
        self.actor_family.bind_members()

        # The target critic gets the same fused forward (no-grad): its
        # MLPs become one-member families too, and the Polyak pairs are
        # cached once so the per-round soft update is a flat in-place
        # lerp instead of a module-tree walk.
        target = algorithm.target_critic
        self.target_obs_enc = StackedMLP([target.obs_encoder])
        self.target_sa_enc = StackedMLP([target.sa_encoder])
        self.target_head = StackedMLP([target.head])
        target_attn_params = []
        for head in target.attention.heads:
            target_attn_params += [
                head.query_proj.weight,
                head.key_proj.weight,
                head.value_proj.weight,
            ]
        target_attn_params += [
            target.attention.out_proj.weight,
            target.attention.out_proj.bias,
        ]
        # Flat target-parameter buffer in the SAME order as critic_opt's
        # flat buffer: the Polyak step becomes two whole-buffer vector ops
        # (elementwise identical to the per-parameter lerp, so still
        # bitwise vs ``nn.soft_update``).  The stacked target params are
        # rebound as views first, then the member params re-adopt them.
        self._target_params = (
            self.target_obs_enc.params()
            + self.target_sa_enc.params()
            + self.target_head.params()
            + target_attn_params
        )
        sizes = np.concatenate(
            [[0], np.cumsum([p.data.size for p in self._target_params])]
        ).astype(np.int64)
        self._target_flat = np.empty(int(sizes[-1]), dtype=self.head.dtype)
        for param, a, b in zip(self._target_params, sizes[:-1], sizes[1:]):
            view = self._target_flat[int(a) : int(b)].reshape(param.data.shape)
            view[...] = param.data
            param.data = view
        self.target_obs_enc.bind_members()
        self.target_sa_enc.bind_members()
        self.target_head.bind_members()
        self._target_attn_views = [
            (p, p.data) for p in target_attn_params
        ]

        n = algorithm.num_agents
        dtype = self.head.dtype
        self._agent_eye = np.eye(n, dtype=dtype)
        # Additive mask bias, prebuilt in the compute dtype (the member
        # rebuilds it from np.where every forward).
        self._mask_bias = np.zeros(critic._mask.shape, dtype=dtype)
        self._mask_bias[~critic._mask] = -1e9
        # Persistent fused-projection scratch: the per-head weights are
        # noncontiguous views into the optimiser flat, so every forward
        # refills these column-block buffers (cheaper than concatenate,
        # and the backward reuses them for the input-adjoint GEMMs).  One
        # pair serves all three passes per update — each refill happens
        # only after the previous pass (and, for the pre-step forward,
        # its backward) has consumed the buffer.
        heads = critic.attention.heads
        emb_dim, key_dim = heads[0].query_proj.weight.data.shape
        width = len(heads) * key_dim
        self._wq_buf = np.empty((emb_dim, width), dtype=dtype)
        self._wkv_buf = np.empty((emb_dim, 2 * width), dtype=dtype)
        # Actor-row and head-input scratch (lazily sized to the batch);
        # their constant agent-id blocks are written once per (re)size.
        self._actor_pair_buf: np.ndarray | None = None
        self._head_in_buf: np.ndarray | None = None
        # Scratch for the collapsed no-grad pass: encoder output layers
        # folded into the q/kv projections and the head's state block, the
        # attention out-projection into the head's attended block (see
        # :meth:`_critic_infer_folded`).
        obs_hidden = self.obs_enc.weights[0].data.shape[-1]
        sa_hidden = self.sa_enc.weights[0].data.shape[-1]
        head_hidden = self.head.weights[0].data.shape[-1]
        self._aq_buf = np.empty((obs_hidden, width), dtype=dtype)
        self._akv_buf = np.empty((sa_hidden, 2 * width), dtype=dtype)
        self._ah_buf = np.empty((obs_hidden, head_hidden), dtype=dtype)
        self._am_buf = np.empty((width, head_hidden), dtype=dtype)

    # ------------------------------------------------------------------
    def _sync(self) -> None:
        self.obs_enc.sync_members()
        self.sa_enc.sync_members()
        self.head.sync_members()
        for param, view in self._attn_views:
            if param.data is not view:
                view[...] = param.data
                param.data = view
        self.actor_family.sync_members()
        self.target_obs_enc.sync_members()
        self.target_sa_enc.sync_members()
        self.target_head.sync_members()
        for param, view in self._target_attn_views:
            if param.data is not view:
                view[...] = param.data
                param.data = view

    def _actor_rows_pair(
        self, next_obs: np.ndarray, obs: np.ndarray
    ) -> np.ndarray:
        """Next-step and replay-time actor rows stacked ``(1, 2*A*B, ·)``.

        Both evaluations use the same (pre-step) actor weights, so one
        family pass over the concatenated rows replaces two; the next-step
        half leads so either half is a contiguous slice.  The buffer
        persists across updates with the constant agent-id block written
        once per (re)size.
        """
        batch = obs.shape[0]
        n = self.algorithm.num_agents
        obs_dim = obs.shape[-1]
        buf = self._actor_pair_buf
        if buf is None or buf.shape[1] != 2 * n * batch:
            buf = np.empty(
                (1, 2 * n * batch, obs_dim + n), dtype=self.actor_family.dtype
            )
            halves = buf.reshape(2, n, batch, obs_dim + n)
            halves[..., obs_dim:] = self._agent_eye[None, :, None, :]
            self._actor_pair_buf = buf
        halves = buf.reshape(2, n, batch, obs_dim + n)
        halves[0, :, :, :obs_dim] = next_obs.transpose(1, 0, 2)
        halves[1, :, :, :obs_dim] = obs.transpose(1, 0, 2)
        return buf

    def _critic_infer_folded(
        self,
        critic,
        obs_2d: np.ndarray,
        sa_in_2d: np.ndarray | None,
        actions: np.ndarray,
        batch: int,
        n: int,
        target: bool,
    ) -> np.ndarray:
        """Collapsed no-grad critic forward: ``(B, A, |A|)`` Q rows.

        Values only, so every post-hidden linear map folds right-to-left
        into its consumer: the encoder output layers into the fused q/kv
        projections and the head's state block, the attention
        out-projection into the head's attended block, and the constant
        agent-id rows plus the whole bias chain into one per-agent row
        add.  Two hidden-layer GEMMs and four folded GEMMs replace the
        eight module GEMMs of the layered pass (associativity-level
        reordering, within the fused tolerance contract).
        """
        if target:
            obs_fam, sa_fam = self.target_obs_enc, self.target_sa_enc
            head_fam = self.target_head
        else:
            obs_fam, sa_fam, head_fam = self.obs_enc, self.sa_enc, self.head
        (w1o, w2o), (b1o, b2o) = obs_fam.weights, obs_fam.biases
        (w1s, w2s), (b1s, b2s) = sa_fam.weights, sa_fam.biases
        (w1h, w2h), (b1h, b2h) = head_fam.weights, head_fam.biases
        heads = critic.attention.heads
        out_proj = critic.attention.out_proj
        num_heads = len(heads)
        wq, wkv = self._wq_buf, self._wkv_buf
        key_dim = wq.shape[1] // num_heads
        width = num_heads * key_dim
        for idx, hd in enumerate(heads):
            block = slice(idx * key_dim, (idx + 1) * key_dim)
            wq[:, block] = hd.query_proj.weight.data
            wkv[:, block] = hd.key_proj.weight.data
            wkv[:, width + idx * key_dim : width + (idx + 1) * key_dim] = (
                hd.value_proj.weight.data
            )
        obs_h = obs_2d @ w1o.data[0]
        obs_h += b1o.data[0, 0]
        np.maximum(obs_h, 0.0, out=obs_h)
        if sa_in_2d is not None:
            sa_h = sa_in_2d @ w1s.data[0]
        else:
            # sa rows are ``[obs | one_hot(action)]``: the one-hot block
            # contributes exactly one row of the weight's action slab, so
            # gather it instead of building the concatenated input (the
            # split 27-term dot + add is tolerance-level vs the 36-term
            # BLAS dot).
            w1s_full = w1s.data[0]
            obs_dim = obs_2d.shape[1]
            sa_h = obs_2d @ w1s_full[:obs_dim]
            act_rows = np.asarray(actions, dtype=np.int64).reshape(batch * n)
            sa_h += w1s_full[obs_dim:].take(act_rows, axis=0)
        sa_h += b1s.data[0, 0]
        np.maximum(sa_h, 0.0, out=sa_h)
        np.matmul(w2o.data[0], wq, out=self._aq_buf)
        np.matmul(w2s.data[0], wkv, out=self._akv_buf)
        q2 = obs_h @ self._aq_buf
        q2 += b2o.data[0, 0] @ wq
        kv2 = sa_h @ self._akv_buf
        kv2 += b2s.data[0, 0] @ wkv
        q = q2.reshape(batch, n, num_heads, key_dim).transpose(2, 0, 1, 3)
        kv = kv2.reshape(batch, n, 2, num_heads, key_dim)
        k = kv[:, :, 0].transpose(2, 0, 1, 3)
        v = kv[:, :, 1].transpose(2, 0, 1, 3)
        scores = (q @ k.transpose(0, 1, 3, 2)) * float(heads[0].scale)
        scores += self._mask_bias
        weights = _stable_softmax(scores)
        merged = (weights @ v).transpose(1, 2, 0, 3).reshape(batch * n, -1)
        emb = w2o.data[0].shape[1]
        w1 = w1h.data[0]
        w1a = w1[:emb]  # state-block rows
        w1b = w1[emb : 2 * emb]  # attended-block rows
        np.matmul(w2o.data[0], w1a, out=self._ah_buf)
        np.matmul(out_proj.weight.data, w1b, out=self._am_buf)
        hh = obs_h @ self._ah_buf
        hh += merged @ self._am_buf
        # (A, hidden): agent-id rows + every bias folded through its map.
        const = (
            w1[2 * emb :]
            + b2o.data[0, 0] @ w1a
            + out_proj.bias.data @ w1b
            + b1h.data[0, 0]
        )
        hh3 = hh.reshape(batch, n, -1)
        hh3 += const
        np.maximum(hh, 0.0, out=hh)
        rows = hh @ w2h.data[0]
        rows += b2h.data[0, 0]
        return rows.reshape(batch, n, -1)

    def _critic_forward(self, obs: np.ndarray, sa_in: np.ndarray):
        """Fused attention-critic forward: ``(B, A, |A|)`` Q rows + cache.

        One pass over the shared encoders for all agents' rows, the
        attention block in raw numpy with every head folded into one 4-D
        matmul pipeline (fused QKV projections, one masked softmax over
        ``(H, B, A, A)`` scores), and one head-family pass over the
        ``A*B`` (state, attended, agent-id) rows — the per-agent *and*
        per-head loops of ``AttentionCritic.forward`` disappear.  The
        projections run as 2-D GEMMs on the flat ``(B*A, ·)`` row blocks
        (a 3-D matmul against a 2-D weight dispatches ``B`` tiny GEMMs).
        ``obs`` and ``sa_in`` are the assembled ``(B, A, ·)`` inputs in the
        compute dtype; value-only passes go through
        :meth:`_critic_infer_folded` instead.
        """
        critic = self.algorithm.critic
        n = critic.num_agents
        batch = obs.shape[0]
        dtype = self.head.dtype
        state_flat, obs_cache = self.obs_enc.forward_cached(
            obs.reshape(1, batch * n, -1)
        )
        sa_flat, sa_cache = self.sa_enc.forward_cached(
            sa_in.reshape(1, batch * n, -1)
        )
        state_2d = state_flat[0]
        sa_2d = sa_flat[0]
        state_emb = state_2d.reshape(batch, n, -1)
        sa_emb = sa_2d.reshape(batch, n, -1)
        heads = critic.attention.heads
        num_heads = len(heads)
        # Fused projections: one GEMM for all heads' queries, one for all
        # keys AND values (head-major column blocks ``[k_0|..|v_0|..]``
        # in the persistent scratch — refilled per pass, the weights live
        # as noncontiguous views in the optimiser flat).
        wq, wkv = self._wq_buf, self._wkv_buf
        key_dim = wq.shape[1] // num_heads
        width = num_heads * key_dim
        for idx, hd in enumerate(heads):
            block = slice(idx * key_dim, (idx + 1) * key_dim)
            wq[:, block] = hd.query_proj.weight.data
            wkv[:, block] = hd.key_proj.weight.data
            wkv[:, width + idx * key_dim : width + (idx + 1) * key_dim] = (
                hd.value_proj.weight.data
            )
        q = (state_2d @ wq).reshape(batch, n, num_heads, key_dim)
        q = q.transpose(2, 0, 1, 3)  # (H, B, A, kd)
        # (B*A, 2*H*kd) viewed as (B, A, {k,v}, H, kd): both halves stay
        # views of the single GEMM output.
        kv = (sa_2d @ wkv).reshape(batch, n, 2, num_heads, key_dim)
        k = kv[:, :, 0].transpose(2, 0, 1, 3)
        v = kv[:, :, 1].transpose(2, 0, 1, 3)
        # float(scale): the raw numpy float64 scalar would promote float32
        # scores out of the family dtype.  All heads share the scale.
        scores = (q @ k.transpose(0, 1, 3, 2)) * float(heads[0].scale)
        scores += self._mask_bias  # (1, A, A) broadcasts over (H, B, ·, ·)
        weights = _stable_softmax(scores)  # (H, B, A, A)
        # Head-major flatten reproduces the per-head concat layout.
        merged = (weights @ v).transpose(1, 2, 0, 3).reshape(batch * n, -1)
        out_proj = critic.attention.out_proj
        attended = merged @ out_proj.weight.data
        attended += out_proj.bias.data

        h = state_emb.shape[-1]
        head_in = self._head_in_buf
        if head_in is None or head_in.shape[0] != batch:
            head_in = np.empty((batch, n, 2 * h + n), dtype=dtype)
            head_in[..., 2 * h :] = self._agent_eye[None]
            self._head_in_buf = head_in
        head_in[..., :h] = state_emb
        head_in[..., h : 2 * h] = attended.reshape(batch, n, -1)
        rows_flat, head_cache = self.head.forward_cached(
            head_in.reshape(1, batch * n, -1)
        )
        rows = rows_flat.reshape(batch, n, -1)
        cache = {
            "batch": batch,
            "h": h,
            "obs_cache": obs_cache,
            "sa_cache": sa_cache,
            "head_cache": head_cache,
            "qkv": (q, k, v, weights),
            "wqkv": (wq, wkv),
            "merged": merged,
            "state_emb": state_emb,
            "sa_emb": sa_emb,
        }
        return rows, cache

    def _critic_backward(self, cache: dict, grad_rows: np.ndarray) -> None:
        """Closed-form VJP through :meth:`_critic_forward`.

        ``grad_rows`` is ``(B, A, |A|)``; parameter gradients are written
        into the ``Parameter.grad`` views that :meth:`FamilyAdam.bind_grads`
        points into the optimiser's flat buffer (:meth:`update` binds them
        first).  The state embedding feeds both the head input and the
        attention queries, so its adjoint sums both paths; the mask bias is
        an additive constant and drops out of the softmax VJP.  Like the
        forward, every attention head backpropagates in one 4-D batch.
        """
        critic = self.algorithm.critic
        n = critic.num_agents
        batch, h = cache["batch"], cache["h"]
        grad_head_in = self.head.backward_cached(
            cache["head_cache"],
            grad_rows.reshape(1, batch * n, -1),
            need_input_grad=True,
        ).reshape(batch, n, -1)
        grad_state = np.ascontiguousarray(grad_head_in[..., :h])
        grad_attended = grad_head_in[..., h : 2 * h]  # agent-id block: constant

        out_proj = critic.attention.out_proj
        flat_merged = cache["merged"]  # already (B*A, H*kd)
        flat_gatt = np.ascontiguousarray(grad_attended).reshape(batch * n, -1)
        # The bias batch-reduction as a BLAS GEMV (ones @ grad — same
        # summation-order tolerance note as StackedMLP's bias adjoint).
        np.matmul(flat_merged.T, flat_gatt, out=out_proj.weight.grad)
        np.matmul(
            self.head._ones_row(batch * n)[0, 0], flat_gatt, out=out_proj.bias.grad
        )
        grad_merged = flat_gatt @ out_proj.weight.data.T  # (B*A, H*kd)

        q, k, v, weights = cache["qkv"]
        wq, wkv = cache["wqkv"]
        heads = critic.attention.heads
        num_heads = len(heads)
        key_dim = q.shape[-1]
        g_out = (
            grad_merged.reshape(batch, n, num_heads, key_dim).transpose(2, 0, 1, 3)
        )  # (H, B, A, kd)
        g_weights = g_out @ v.transpose(0, 1, 3, 2)  # (H, B, A, A)
        g_v = weights.transpose(0, 1, 3, 2) @ g_out
        # Softmax VJP over the scores, then the shared scale factor.
        dot = _rowsum_small(g_weights * weights, keepdims=True)
        g_scores = weights * (g_weights - dot)
        g_scores *= float(heads[0].scale)
        g_q = g_scores @ k  # (H, B, A, kd)
        g_k = g_scores.transpose(0, 1, 3, 2) @ q

        state_emb, sa_emb = cache["state_emb"], cache["sa_emb"]
        flat_state = state_emb.reshape(batch * n, -1)
        flat_sa = sa_emb.reshape(batch * n, -1)
        # Head-major flatten matches the fused projection column blocks;
        # the key and value adjoints share one ``(B*A, 2*H*kd)`` block so
        # their weight-grad and input-adjoint GEMMs fuse too (both hit
        # ``sa_emb``).
        width = num_heads * key_dim
        g_q_flat = g_q.transpose(1, 2, 0, 3).reshape(batch * n, -1)
        g_kv_flat = np.empty((batch * n, 2 * width), dtype=g_q_flat.dtype)
        g_kv_flat[:, :width] = g_k.transpose(1, 2, 0, 3).reshape(batch * n, -1)
        g_kv_flat[:, width:] = g_v.transpose(1, 2, 0, 3).reshape(batch * n, -1)
        wq_grad = flat_state.T @ g_q_flat  # (h, H*kd)
        wkv_grad = flat_sa.T @ g_kv_flat  # (h, 2*H*kd): [key | value] blocks
        for idx, head in enumerate(heads):
            block = slice(idx * key_dim, (idx + 1) * key_dim)
            np.copyto(head.query_proj.weight.grad, wq_grad[:, block])
            np.copyto(head.key_proj.weight.grad, wkv_grad[:, block])
            np.copyto(
                head.value_proj.weight.grad,
                wkv_grad[:, width + idx * key_dim : width + (idx + 1) * key_dim],
            )
        # The fused weights sum the per-head input adjoints in one GEMM.
        grad_state += (g_q_flat @ wq.T).reshape(batch, n, -1)
        grad_sa = (g_kv_flat @ wkv.T).reshape(batch, n, -1)
        self.obs_enc.backward_cached(
            cache["obs_cache"], grad_state.reshape(1, batch * n, -1)
        )
        self.sa_enc.backward_cached(
            cache["sa_cache"], grad_sa.reshape(1, batch * n, -1)
        )

    def _sample_rows(
        self, logits_all: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Agent-major categorical draws ``(A, B)`` from ``(A, B, |A|)`` logits.

        Matches ``nn.sample_categorical`` row for row: the float64
        softmax/cumsum batches over every agent at once (the per-row
        arithmetic is identical), and one ``(A, B, 1)`` uniform call
        consumes the RNG stream draw for draw — ``Generator.uniform``
        fills C-order, so it yields bitwise the same doubles as the
        scalar path's per-agent ``(B, 1)`` calls.

        Returns ``(actions, log_probs, probs)`` — the sampler already pays
        for the stable softmax, so callers reuse its float64 log-probs and
        probabilities instead of recomputing the same max/exp/sum chain.
        In float64 (the default dtype) these are bitwise the values the
        scalar path's ``log_softmax`` produces; float32 members cast them
        back down at the point of use (tolerance-level, like the rest of
        the fused contract).
        """
        logits64 = np.asarray(logits_all, dtype=np.float64)
        shifted = logits64 - logits64.max(axis=-1, keepdims=True)
        probs = np.exp(shifted)
        total = probs.sum(axis=-1, keepdims=True)
        probs /= total
        cumulative = probs.cumsum(axis=-1)
        draws = rng.uniform(size=logits_all.shape[:2] + (1,))
        out = (draws < cumulative).argmax(axis=-1)
        return out, shifted - np.log(total), probs

    # ------------------------------------------------------------------
    def update(self) -> dict[str, float] | None:
        algo = self.algorithm
        if len(algo.buffer) < max(algo.batch_size // 4, 8):
            return None
        self._sync()
        batch = algo.buffer.sample(algo.batch_size, algo._rng)
        batch_size = len(batch["dones"])
        n = algo.num_agents
        num_actions = algo.num_actions
        dtype = self.head.dtype
        # One index vector serves every chosen-action gather/scatter as
        # flat fancy indexing (``take_along_axis`` re-derives its index
        # grid per call).
        flat_idx = np.arange(batch_size * n)

        # --- One actor family pass over next-step AND replay-time rows
        # (both use the pre-step actor weights); the cache's replay-time
        # half feeds the policy-gradient backward later.  The categorical
        # draws stay a per-agent loop (the scalar RNG order), everything
        # else is batched over agents.
        half = batch_size * n
        pair_rows = self._actor_rows_pair(batch["next_obs"], batch["obs"])
        pair_logits, (pair_acts, pair_masks) = self.actor_family.forward_cached(
            pair_rows
        )
        flat_logits = pair_logits[0]
        next_logits = flat_logits[:half].reshape(n, batch_size, num_actions)
        logits_all = flat_logits[half:].reshape(n, batch_size, num_actions)
        next_act_am, next_row_log, _ = self._sample_rows(next_logits, algo._rng)
        next_actions = next_act_am.T  # (B, A)
        next_log_probs = (
            next_row_log.reshape(n * batch_size, -1)[flat_idx, next_act_am.ravel()]
            .reshape(n, batch_size)
            .T.astype(dtype, copy=False)
        )  # (B, A)

        # --- Critic step: TD targets via the fused no-grad target forward,
        # fused forward + closed-form attention VJP, flat-buffer clip, one
        # Adam step over all critic parameters (gradients written straight
        # into the optimiser's bound flat buffer).
        target_rows = self._critic_infer_folded(
            algo.target_critic,
            np.asarray(batch["next_obs"], dtype=dtype).reshape(half, -1),
            None,
            next_actions,
            batch_size,
            n,
            target=True,
        )
        obs_arr = np.asarray(batch["obs"], dtype=dtype)
        sa_arr = np.concatenate(
            [obs_arr, one_hot(batch["actions"], num_actions, dtype=dtype)],
            axis=-1,
        )
        rows, cache = self._critic_forward(obs_arr, sa_arr)
        action_idx = np.asarray(batch["actions"], dtype=np.int64)
        target_q = target_rows.reshape(batch_size * n, -1)[
            flat_idx, next_actions.ravel()
        ].reshape(batch_size, n)
        soft_target = target_q - algo.alpha * next_log_probs
        y = (
            batch["rewards"]
            + algo.gamma * (1.0 - batch["dones"])[:, None] * soft_target
        )
        q_chosen = rows.reshape(batch_size * n, -1)[
            flat_idx, action_idx.ravel()
        ].reshape(batch_size, n)
        diff = q_chosen - y  # (B, A)
        critic_loss = float((diff * diff).mean(axis=0).sum())
        grad_rows = np.zeros_like(rows)
        grad_rows.reshape(batch_size * n, -1)[flat_idx, action_idx.ravel()] = (
            ((2.0 / batch_size) * diff).astype(dtype, copy=False).ravel()
        )
        self.critic_opt.bind_grads()
        self._critic_backward(cache, grad_rows)
        # Every critic grad lives in the bound flat buffer, so the global
        # clip is one dot + one scale (tolerance-level vs the per-param
        # reduction, like the other fused paths).
        clip_grad_norm_flat(self.critic_opt._grad, algo.grad_clip)
        self.critic_opt.step()

        # --- Actor step: fresh post-step Q rows (data only, so the main
        # critic's folded no-grad pass) feed the entropy-regularised
        # counterfactual advantage; one stacked actor forward/backward
        # replaces the per-agent tape loop, and only the categorical draws
        # remain per-agent (RNG order).
        q_rows = self._critic_infer_folded(
            algo.critic,
            obs_arr.reshape(half, -1),
            sa_arr.reshape(half, -1),
            batch["actions"],
            batch_size,
            n,
            target=False,
        )
        sampled, log_probs, probs = self._sample_rows(logits_all, algo._rng)
        log_probs = log_probs.astype(dtype, copy=False)  # (A, B, |A|)
        probs = probs.astype(dtype, copy=False)
        q_agent_major = q_rows.transpose(1, 0, 2)  # (A, B, |A|)
        baseline = (probs * q_agent_major).sum(axis=-1)  # (A, B)
        # Rows of the (B·A)-flat Q table in agent-major order.
        am_rows = flat_idx.reshape(batch_size, n).T
        advantage = (
            q_rows.reshape(batch_size * n, -1)[am_rows, sampled] - baseline
        )
        chosen_log = log_probs.reshape(n * batch_size, -1)[
            flat_idx, sampled.ravel()
        ].reshape(n, batch_size)
        target_term = advantage - algo.alpha * chosen_log  # (A, B)
        actor_loss = float(-(chosen_log * target_term).mean(axis=1).sum())
        entropy_total = float(-(probs * log_probs).sum(axis=-1).mean(axis=1).sum())
        # Score-function gradient: target_term is detached, so d/dlogits of
        # -(1/B) sum(chosen_log * tt) is -(1/B) tt * (onehot(sampled) - probs),
        # assembled as the dense ``probs`` term plus a scatter-add at the
        # sampled entries (no one-hot materialisation).
        coeff = ((-1.0 / batch_size) * target_term).astype(dtype, copy=False)
        grad_logits = probs * (-coeff)[:, :, None]
        grad_logits.reshape(n * batch_size, -1)[
            flat_idx, sampled.ravel()
        ] += coeff.ravel()
        self.actor_opt.bind_grads()
        # Backward over the replay-time half only (tail slices stay
        # contiguous views); the next-step half's gradient is zero.
        self.actor_family.backward_cached(
            ([a[:, half:] for a in pair_acts], [m[:, half:] for m in pair_masks]),
            grad_logits.reshape(1, half, -1),
        )
        clip_grad_norm_flat(self.actor_opt._grad, algo.grad_clip)
        self.actor_opt.step()

        # Polyak step over the aligned flat buffers: elementwise identical
        # to nn.soft_update's per-parameter lerp (two whole-buffer vector
        # ops instead of a module-tree walk).
        tau = algo.tau
        self._target_flat *= 1.0 - tau
        self._target_flat += tau * self.critic_opt._flat
        return {
            "critic_loss": critic_loss,
            "actor_loss": actor_loss,
            "entropy": entropy_total / n,
        }


class _DelegatingEngine:
    """Fallback for algorithms without an architecture-aligned fused path.

    COMA trains on whole variable-length episodes, which never stack into
    one fixed-shape family forward.  Its update still benefits from the
    flat optimisers and the fused Linear/backward in :mod:`repro.nn`, so
    the engine simply delegates.
    """

    def __init__(self, algorithm):
        self.algorithm = algorithm

    def update(self) -> dict[str, float] | None:
        return self.algorithm.update()


class UpdateEngine:
    """Dispatching facade over the fused update implementations.

    Accepts a :class:`~repro.core.hero.HeroTeam`, a
    :class:`~repro.core.low_level.SACAgent` or any
    :class:`~repro.baselines.base.MARLAlgorithm`; ``update()`` replaces the
    target's own update call when ``--fused-updates`` is active.
    """

    def __init__(self, target):
        from ..baselines.base import MARLAlgorithm
        from ..baselines.idqn import IndependentDQN
        from ..baselines.maac import MAAC
        from ..baselines.maddpg import MADDPG
        from .hero import HeroTeam
        from .low_level import SACAgent

        if isinstance(target, HeroTeam):
            self._impl = HeroTeamUpdateEngine(target)
        elif isinstance(target, SACAgent):
            self._impl = SACUpdateEngine(target)
        elif isinstance(target, IndependentDQN):
            self._impl = IDQNUpdateEngine(target)
        elif isinstance(target, MADDPG):
            self._impl = MADDPGUpdateEngine(target)
        elif isinstance(target, MAAC):
            self._impl = MAACUpdateEngine(target)
        elif isinstance(target, MARLAlgorithm):
            self._impl = _DelegatingEngine(target)
        else:
            raise TypeError(
                f"UpdateEngine cannot drive a {type(target).__name__}; expected "
                "HeroTeam, SACAgent or MARLAlgorithm"
            )
        self.target = target

    def update(self):
        """Run one fused update round; mirrors the target's own update API."""
        return self._impl.update()


# ---------------------------------------------------------------------------
# Flat parameter vectors per network family
# ---------------------------------------------------------------------------
#
# The async actor–learner stack ships whole network families as single
# flat vectors in the family's compute dtype.  The layout below is
# *defined* to match FamilyAdam's
# flat buffer (StackedMLP.params() order: every layer's stacked weights
# first, then every biased layer's stacked biases, members raveled
# member-major inside each stack) so a fused learner can publish a family
# snapshot with one ``np.copyto(slot, opt._flat)`` and an actor replica
# bound through :class:`BoundFamilyVector` can import it with one copy.


def _family_linear_columns(members) -> list[list[Linear]]:
    """Per-layer columns of each member MLP's ``Linear`` layers."""
    nets = [m.net for m in members]
    template = nets[0].children
    return [
        [net.children[idx] for net in nets]
        for idx, child in enumerate(template)
        if isinstance(child, Linear)
    ]


def iter_family_params(members):
    """Yield member parameters in the family flat-vector order.

    Concatenating the raveled ``.data`` of the yielded parameters produces
    exactly the bytes of the corresponding :class:`FamilyAdam` flat buffer
    (``tests/test_actor_learner.py`` locks this).
    """
    columns = _family_linear_columns(members)
    for column in columns:
        for lin in column:
            yield lin.weight
    for column in columns:
        if column[0].bias is not None:
            for lin in column:
                yield lin.bias


def family_vector_size(members) -> int:
    """Length of the family's flat parameter vector."""
    return sum(p.data.size for p in iter_family_params(members))


def family_dtype(members) -> np.dtype:
    """Compute dtype of the family's flat vector (the members' parameter
    dtype — float32 families ship float32 snapshots)."""
    for param in iter_family_params(members):
        return param.data.dtype
    return np.dtype(np.float64)


def gather_family(members, out: np.ndarray | None = None) -> np.ndarray:
    """Copy a family's parameters into one flat vector (no rebinding).

    The export path for non-fused learners and for optimisers that own the
    parameter storage themselves (plain per-network Adam): member ``.data``
    arrays are read, never re-pointed.
    """
    size = family_vector_size(members)
    if out is None:
        out = np.empty(size, dtype=family_dtype(members))
    elif out.size != size:
        raise ValueError(f"out has {out.size} elements, family needs {size}")
    offset = 0
    for param in iter_family_params(members):
        n = param.data.size
        out[offset : offset + n] = param.data.reshape(-1)
        offset += n
    return out


def scatter_family(members, vector: np.ndarray) -> None:
    """Copy a flat vector back into a family's parameters (no rebinding)."""
    vector = np.asarray(vector, dtype=family_dtype(members)).ravel()
    size = family_vector_size(members)
    if vector.size != size:
        raise ValueError(f"vector has {vector.size} elements, family needs {size}")
    offset = 0
    for param in iter_family_params(members):
        n = param.data.size
        param.data[...] = vector[offset : offset + n].reshape(param.data.shape)
        offset += n


class BoundFamilyVector:
    """A family's parameters rebound as views into one contiguous vector.

    Built on an actor-side replica: after construction, every member
    ``Parameter.data`` aliases a slice of :attr:`vector`, so importing a
    published snapshot is a single :meth:`load` copy and the replica's
    inference immediately sees the new weights.  Do **not** bind the same
    members to both a :class:`FamilyAdam` and a :class:`BoundFamilyVector`
    — each flattening assumes it owns the storage.
    """

    def __init__(self, members):
        self._params = list(iter_family_params(members))
        sizes = [p.data.size for p in self._params]
        bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self.vector = np.empty(int(bounds[-1]), dtype=family_dtype(members))
        for param, start, stop in zip(self._params, bounds[:-1], bounds[1:]):
            sl = slice(int(start), int(stop))
            self.vector[sl] = param.data.reshape(-1)
            param.data = self.vector[sl].reshape(param.data.shape)

    @property
    def size(self) -> int:
        return self.vector.size

    def load(self, vector: np.ndarray) -> None:
        """Import a flat snapshot: one copy into the bound storage."""
        np.copyto(self.vector, vector)
