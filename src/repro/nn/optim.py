"""The Adam optimiser and gradient utilities.

:class:`Adam` (on the :class:`Optimizer` base) operates on **flat
buffers**: at construction the parameters are copied into one contiguous
vector and every ``Parameter.data`` is rebound to a view into it, so the
moment buffers (``m``/``v``) and the parameter update itself run as a
handful of whole-vector elementwise operations instead of a Python loop
over parameters.  Because the update math is purely elementwise, stepping
the flat vector is **bitwise identical** to stepping each parameter
separately (``tests/test_update_engine.py`` locks this over 100 steps);
weight decay and all intermediate products reuse preallocated scratch
buffers, so a step allocates nothing.

When only a subset of parameters received gradients, the step falls back to
per-parameter slices of the same flat buffers — still bitwise identical to
the historical per-parameter loop, which skipped gradient-less parameters.
"""

from __future__ import annotations

import numpy as np

from .module import Parameter


class Optimizer:
    """Base class: owns a parameter list flattened into one buffer.

    Subclasses implement :meth:`_apply`, an elementwise update over
    ``(param, grad, *moment)`` vectors; :meth:`step` calls it either once
    over the whole flat buffer (every parameter has a gradient — the hot
    path) or per present-gradient slice (partial backward passes).
    """

    def __init__(self, params, lr: float):
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

        sizes = [p.data.size for p in self.params]
        bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        dtype = self.params[0].data.dtype
        self._slices = [
            slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])
        ]
        self._flat = np.empty(int(bounds[-1]), dtype=dtype)
        self._views: list[np.ndarray] = []
        for param, sl in zip(self.params, self._slices):
            self._flat[sl] = param.data.reshape(-1)
            view = self._flat[sl].reshape(param.data.shape)
            param.data = view
            self._views.append(view)
        self._grad = np.zeros_like(self._flat)

    def __setstate__(self, state: dict) -> None:
        # Pickle copies every parameter view out of the flat buffer (numpy
        # pickles a view as an array of its own).  Fresh views make the
        # next step's _sync_views re-adopt the unpickled parameter values.
        self.__dict__.update(state)
        self._views = [
            self._flat[sl].reshape(view.shape)
            for sl, view in zip(self._slices, self._views)
        ]

    # ------------------------------------------------------------------
    # Flat-buffer bookkeeping
    # ------------------------------------------------------------------
    def _sync_views(self) -> None:
        """Re-adopt parameters whose ``.data`` was reassigned.

        ``load_state_dict`` (and any manual surgery) replaces ``.data``
        with a fresh array; copy the new values into the flat buffer and
        rebind the view so subsequent steps stay in sync.
        """
        for i, (param, sl) in enumerate(zip(self.params, self._slices)):
            if param.data is not self._views[i]:
                self._flat[sl] = np.asarray(
                    param.data, dtype=self._flat.dtype
                ).reshape(-1)
                param.data = self._views[i]

    def _present(self) -> list[int]:
        return [i for i, p in enumerate(self.params) if p.grad is not None]

    def step(self) -> None:
        self._sync_views()
        self._pre_step()
        present = self._present()
        if not present:
            return
        if len(present) == len(self.params):
            for param, sl in zip(self.params, self._slices):
                self._grad[sl] = param.grad.reshape(-1)
            self._apply(slice(0, self._flat.size))
        else:
            for i in present:
                sl = self._slices[i]
                self._grad[sl] = self.params[i].grad.reshape(-1)
                self._apply(sl)

    def _pre_step(self) -> None:
        """Hook run once per :meth:`step` before any parameter updates."""

    def _apply(self, sl: slice) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.params:
            param.grad = None


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(
        self,
        params,
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._buf = np.empty_like(self._flat)
        self._buf2 = np.empty_like(self._flat)

    def _pre_step(self) -> None:
        self._step_count += 1

    def _apply(self, sl: slice) -> None:
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        grad = self._grad[sl]
        buf, buf2 = self._buf[sl], self._buf2[sl]
        param = self._flat[sl]
        m, v = self._m[sl], self._v[sl]
        if self.weight_decay:
            np.multiply(param, self.weight_decay, out=buf)
            grad += buf
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=buf)
        m += buf
        v *= self.beta2
        np.multiply(grad, grad, out=buf)
        buf *= 1.0 - self.beta2
        v += buf
        np.divide(m, bias1, out=buf)  # m_hat
        buf *= self.lr
        np.divide(v, bias2, out=buf2)  # v_hat
        np.sqrt(buf2, out=buf2)
        buf2 += self.eps
        buf /= buf2
        param -= buf


def clip_grad_norm(params, max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging divergence), reduced
    parameter by parameter.  COMA's tape update clips with it; the fused
    update engines use :func:`clip_grad_norm_flat` /
    :func:`clip_grad_norm_stacked` on their stacked gradient buffers.
    """
    grads = [p.grad for p in params if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g**2).sum()) for g in grads)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for grad in grads:
            grad *= scale
    return total


def clip_grad_norm_flat(flat_grad: np.ndarray, max_norm: float) -> float:
    """Single-pass :func:`clip_grad_norm` over one flat gradient vector.

    One ``dot`` for the squared norm and one in-place scale.  The reduction
    order differs from the per-parameter loop, so the result matches
    :func:`clip_grad_norm` to float tolerance, not bitwise.
    """
    total = float(np.sqrt(np.dot(flat_grad, flat_grad)))
    if total > max_norm and total > 0:
        flat_grad *= max_norm / total
    return total


def clip_grad_norm_stacked(grads, max_norm: float) -> np.ndarray:
    """Per-member grad clipping for stacked ``(K, ...)`` gradient arrays.

    ``grads`` is a sequence of arrays whose leading axis indexes K
    same-architecture networks; member ``k``'s global norm is taken over
    its slice of every array, mirroring K separate :func:`clip_grad_norm`
    calls in one vectorized pass.  Returns the per-member pre-clip norms.
    """
    num_members = grads[0].shape[0]
    sq = np.zeros(num_members)
    for grad in grads:
        rows = grad.reshape(num_members, -1)
        sq += np.einsum("ki,ki->k", rows, rows)
    norms = np.sqrt(sq)
    scale = np.where(norms > max_norm, max_norm / np.maximum(norms, 1e-300), 1.0)
    if np.any(scale != 1.0):
        for grad in grads:
            grad *= scale.reshape((num_members,) + (1,) * (grad.ndim - 1))
    return norms
