"""Reverse-mode automatic differentiation on numpy arrays.

This module is the computational substrate for the whole repository: no deep
learning framework is available offline, so HERO's actors, critics and
opponent models are trained with this small autodiff engine instead.

The design follows the classic tape-based approach:

* :class:`Tensor` wraps a ``numpy.ndarray`` together with an optional
  gradient and a backward closure.
* Every differentiable operation records its parents and a closure that
  propagates the output gradient to the parents.
* :meth:`Tensor.backward` topologically sorts the graph and runs the
  closures in reverse order.

All arithmetic supports numpy-style broadcasting; gradients are reduced back
to the parent's shape with :func:`_unbroadcast`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

# ---------------------------------------------------------------------------
# Process-global compute dtype
# ---------------------------------------------------------------------------
# The engine computes in exactly one floating dtype at a time.  float64 is
# the default (bitwise-identical to the original implementation); float32
# roughly doubles BLAS throughput and halves every payload the distributed
# stack moves, under the tolerance contract documented in
# docs/ARCHITECTURE.md ("Precision").  The dtype is process-global rather
# than per-tensor: mixing dtypes inside one tape would reintroduce the
# silent-upcast problem this knob exists to remove.

SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

_default_dtype = np.dtype(np.float64)

# Kept for backward compatibility: the seed constant, not the live default.
DEFAULT_DTYPE = np.float64

ArrayLike = "Tensor | np.ndarray | float | int | list | tuple"


def get_default_dtype() -> np.dtype:
    """The dtype every new :class:`Tensor` coerces its payload to."""
    return _default_dtype


def set_default_dtype(dtype) -> np.dtype:
    """Set the process-global compute dtype; returns the previous one.

    Accepts anything ``np.dtype`` does (``"float32"``, ``np.float64``, a
    dtype instance).  Only float32/float64 are supported.  Existing
    tensors keep their dtype — switch before building networks.
    """
    global _default_dtype
    resolved = np.dtype(dtype)
    if resolved not in SUPPORTED_DTYPES:
        supported = ", ".join(d.name for d in SUPPORTED_DTYPES)
        raise ValueError(f"unsupported dtype {resolved.name!r}; options: {supported}")
    previous = _default_dtype
    _default_dtype = resolved
    return previous


@contextmanager
def default_dtype(dtype):
    """Context manager scoping :func:`set_default_dtype` to a block."""
    previous = set_default_dtype(dtype)
    try:
        yield np.dtype(dtype)
    finally:
        set_default_dtype(previous)


def _as_array(value, dtype=None) -> np.ndarray:
    """Coerce ``value`` to a numpy array of the engine's default dtype."""
    if dtype is None:
        dtype = _default_dtype
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting can add leading axes and stretch size-1 axes; the adjoint of
    a broadcast is a sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Remove extra leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _accumulate_unbroadcast(
    tensor: "Tensor", grad: np.ndarray, shape: tuple, fresh: bool = False
) -> None:
    """Accumulate ``_unbroadcast(grad, shape)`` into ``tensor``.

    ``fresh`` marks ``grad`` as a newly allocated array the caller will not
    touch again, letting :meth:`Tensor._accumulate` adopt it without a
    copy; any reduction performed here allocates and therefore upgrades
    the result to fresh regardless.
    """
    if grad.shape == shape:
        tensor._accumulate(grad, fresh)
        return
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
        fresh = True
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
        fresh = True
    tensor._accumulate(grad.reshape(shape), fresh)


class Tensor:
    """A numpy array with reverse-mode gradient support.

    Parameters
    ----------
    data:
        Array-like payload; coerced to the engine's default dtype
        (:func:`get_default_dtype`).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op", "_topo")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._op = ""
        self._topo: list[Tensor] | None = None

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but severed from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        """Create a result tensor, wiring the tape if any parent needs grad."""
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
            out._op = op
        return out

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        ``fresh=True`` promises that ``grad`` is a newly allocated array no
        other node references, so it can be adopted in place of the
        defensive copy — the in-place accumulation half of the fused
        update engine.  Pass-through gradients (views, shared arrays) must
        keep ``fresh=False``.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad if fresh else grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient; defaults to ones (so scalars get ``1.0``).

        The topological order is computed once per output tensor and
        cached (the graph is immutable after construction), so repeated
        backward passes skip the traversal.
        """
        fresh = grad is None
        if fresh:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"backward grad shape {grad.shape} != tensor shape {self.data.shape}"
                )

        if self._topo is None:
            topo: list[Tensor] = []
            visited: set[int] = set()
            stack: list[tuple[Tensor, bool]] = [(self, False)]
            while stack:
                node, processed = stack.pop()
                if processed:
                    topo.append(node)
                    continue
                if id(node) in visited:
                    continue
                visited.add(id(node))
                stack.append((node, True))
                for parent in node._parents:
                    if id(parent) not in visited:
                        stack.append((parent, False))
            self._topo = topo

        self._accumulate(grad, fresh)
        for node in reversed(self._topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            _accumulate_unbroadcast(self, grad, self.shape)
            _accumulate_unbroadcast(other, grad, other.shape)

        return Tensor._make(data, (self, other), backward, "add")

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            _accumulate_unbroadcast(self, grad, self.shape)
            _accumulate_unbroadcast(other, -grad, other.shape, fresh=True)

        return Tensor._make(data, (self, other), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            _accumulate_unbroadcast(self, grad * other.data, self.shape, fresh=True)
            _accumulate_unbroadcast(other, grad * self.data, other.shape, fresh=True)

        return Tensor._make(data, (self, other), backward, "mul")

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            _accumulate_unbroadcast(self, grad / other.data, self.shape, fresh=True)
            _accumulate_unbroadcast(
                other, -grad * self.data / (other.data**2), other.shape, fresh=True
            )

        return Tensor._make(data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, fresh=True)

        return Tensor._make(-self.data, (self,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1), fresh=True)

        return Tensor._make(data, (self,), backward, "pow")

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.outer(grad, other.data) if grad.ndim else grad * other.data
                    if self.data.ndim == 1:
                        grad_self = grad * other.data
                    _accumulate_unbroadcast(
                        self, grad_self.reshape(self.shape), self.shape, fresh=True
                    )
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                    _accumulate_unbroadcast(self, grad_self, self.shape, fresh=True)
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.outer(self.data, grad)
                    if other.data.ndim == 1:
                        grad_other = self.data * grad
                    _accumulate_unbroadcast(
                        other, grad_other.reshape(other.shape), other.shape, fresh=True
                    )
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                    _accumulate_unbroadcast(other, grad_other, other.shape, fresh=True)

        return Tensor._make(data, (self, other), backward, "matmul")

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data, fresh=True)

        return Tensor._make(data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, fresh=True)

        return Tensor._make(data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / data, fresh=True)

        return Tensor._make(data, (self,), backward, "sqrt")

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data**2), fresh=True)

        return Tensor._make(data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data * (1.0 - data), fresh=True)

        return Tensor._make(data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        # Same bits as np.where(mask, data, 0.0) for finite inputs, one
        # ufunc instead of a compare + select pair.
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, fresh=True)

        return Tensor._make(data, (self,), backward, "relu")

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        data = np.where(mask, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.where(mask, 1.0, negative_slope), fresh=True)

        return Tensor._make(data, (self,), backward, "leaky_relu")

    def softplus(self) -> "Tensor":
        # Numerically stable: log(1 + exp(x)) = max(x, 0) + log1p(exp(-|x|)).
        data = np.maximum(self.data, 0.0) + np.log1p(np.exp(-np.abs(self.data)))
        sig = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sig, fresh=True)

        return Tensor._make(data, (self,), backward, "softplus")

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data), fresh=True)

        return Tensor._make(data, (self,), backward, "abs")

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient passes only inside the interval."""
        data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, fresh=True)

        return Tensor._make(data, (self,), backward, "clip")

    def maximum(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = np.maximum(self.data, other.data)
        take_self = self.data >= other.data

        def backward(grad: np.ndarray) -> None:
            _accumulate_unbroadcast(self, grad * take_self, self.shape, fresh=True)
            _accumulate_unbroadcast(other, grad * ~take_self, other.shape, fresh=True)

        return Tensor._make(data, (self, other), backward, "maximum")

    def minimum(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = np.minimum(self.data, other.data)
        take_self = self.data <= other.data

        def backward(grad: np.ndarray) -> None:
            _accumulate_unbroadcast(self, grad * take_self, self.shape, fresh=True)
            _accumulate_unbroadcast(other, grad * ~take_self, other.shape, fresh=True)

        return Tensor._make(data, (self, other), backward, "minimum")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            self._accumulate(np.broadcast_to(g, self.shape).copy(), fresh=True)

        return Tensor._make(data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            expanded = data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
                    expanded = np.expand_dims(expanded, a)
            mask = self.data == expanded
            # Split gradient evenly among tied maxima to keep the adjoint exact.
            counts = mask.sum(
                axis=axis if axis is not None else None, keepdims=True
            )
            self._accumulate(np.broadcast_to(g, self.shape) * mask / counts, fresh=True)

        return Tensor._make(data, (self,), backward, "max")

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward, "reshape")

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward, "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def expand_dims(self, axis: int) -> "Tensor":
        data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.squeeze(grad, axis=axis))

        return Tensor._make(data, (self,), backward, "expand_dims")

    def squeeze(self, axis: int | None = None) -> "Tensor":
        data = np.squeeze(self.data, axis=axis)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward, "squeeze")

    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data.astype(np.int64)
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full, fresh=True)

        return Tensor._make(data, (self,), backward, "getitem")

    def gather(self, indices, axis: int = -1) -> "Tensor":
        """Select values along ``axis`` (like ``np.take_along_axis``).

        Used by Q-learning to pick ``Q(s, a)`` out of per-action Q rows.
        """
        if isinstance(indices, Tensor):
            indices = indices.data
        indices = np.asarray(indices, dtype=np.int64)
        data = np.take_along_axis(self.data, indices, axis=axis)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.put_along_axis(full, indices, grad, axis=axis)
            self._accumulate(full, fresh=True)

        return Tensor._make(data, (self,), backward, "gather")


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(data, tuple(tensors), backward, "concatenate")


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for i, tensor in enumerate(tensors):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = i
            tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(data, tuple(tensors), backward, "stack")


def where(condition, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select ``a`` where ``condition`` else ``b``."""
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    cond = cond.astype(bool)
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        _accumulate_unbroadcast(a, grad * cond, a.shape, fresh=True)
        _accumulate_unbroadcast(b, grad * ~cond, b.shape, fresh=True)

    return Tensor._make(data, (a, b), backward, "where")


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_default_dtype), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=_default_dtype), requires_grad=requires_grad)
