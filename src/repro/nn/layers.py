"""Core layers: Linear, activations, Sequential."""

from __future__ import annotations

import numpy as np

from . import init as initializers
from .module import Module, Parameter
from .tensor import Tensor, _accumulate_unbroadcast


class Linear(Module):
    """Affine layer ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    rng:
        Source of initial weights (explicit for reproducibility).
    weight_init:
        One of ``"xavier"``, ``"he"``, ``"uniform"``, ``"orthogonal"``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        weight_init: str = "xavier",
        bias: bool = True,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        shape = (in_features, out_features)
        if weight_init == "xavier":
            weight = initializers.xavier_uniform(shape, rng)
        elif weight_init == "he":
            weight = initializers.he_uniform(shape, rng)
        elif weight_init == "uniform":
            weight = initializers.uniform(shape, rng)
        elif weight_init == "orthogonal":
            weight = initializers.orthogonal(shape, rng)
        else:
            raise ValueError(f"unknown weight_init {weight_init!r}")
        self.weight = Parameter(weight)
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        weight, bias = self.weight, self.bias
        data = x.data @ weight.data
        if bias is not None:
            data = data + bias.data

        # Fused affine tape node: one closure for ``x W + b`` instead of a
        # matmul node plus an add node.  The adjoint expressions mirror
        # Tensor.__matmul__ / Tensor.__add__ exactly, so gradients are
        # bitwise-identical to the unfused graph.
        def backward(grad: np.ndarray) -> None:
            if x.requires_grad:
                _accumulate_unbroadcast(
                    x, grad @ np.swapaxes(weight.data, -1, -2), x.shape, fresh=True
                )
            if weight.requires_grad:
                if x.data.ndim == 1:
                    grad_weight = np.outer(x.data, grad)
                else:
                    grad_weight = np.swapaxes(x.data, -1, -2) @ grad
                _accumulate_unbroadcast(weight, grad_weight, weight.shape, fresh=True)
            if bias is not None and bias.requires_grad:
                _accumulate_unbroadcast(bias, grad, bias.shape)

        parents = (x, weight) if bias is None else (x, weight, bias)
        return Tensor._make(data, parents, backward, "linear")


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


ACTIVATIONS = {
    "relu": ReLU,
    "tanh": Tanh,
    "sigmoid": Sigmoid,
    "leaky_relu": LeakyReLU,
    "identity": Identity,
}


def make_activation(name: str) -> Module:
    """Instantiate an activation module by name."""
    if name not in ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}; options: {sorted(ACTIVATIONS)}")
    return ACTIVATIONS[name]()


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.children = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.children:
            x = module(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Gradient-free forward on raw arrays.

        Produces values bit-identical to ``forward(...).data`` for the
        layer types used in inference-heavy paths (Linear + elementwise
        activations) without building the autograd graph — the hot path of
        batched rollouts and of the no-gradient target computations inside
        updates.  Falls back to the Tensor path for any other child module.

        Intermediate results are reused in place once the first layer has
        allocated a fresh array (``owned``); np.maximum produces the same
        bits as the np.where form of relu for all finite inputs.
        """
        owned = False
        for module in self.children:
            if isinstance(module, Linear):
                x = x @ module.weight.data
                if module.bias is not None:
                    x += module.bias.data
                owned = True
            elif isinstance(module, ReLU):
                x = np.maximum(x, 0.0, out=x if owned else None)
                owned = True
            elif isinstance(module, Tanh):
                x = np.tanh(x, out=x if owned else None)
                owned = True
            elif isinstance(module, Sigmoid):
                x = 1.0 / (1.0 + np.exp(-x))
                owned = True
            elif isinstance(module, LeakyReLU):
                x = np.where(x > 0, x, module.negative_slope * x)
                owned = True
            elif isinstance(module, Identity):
                pass
            else:
                x = module(Tensor(x)).data
                owned = False
        return x

    def append(self, module: Module) -> None:
        self.children.append(module)

    def __len__(self) -> int:
        return len(self.children)

    def __getitem__(self, index: int) -> Module:
        return self.children[index]
