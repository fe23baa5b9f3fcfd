"""Numpy neural-network substrate (autodiff, layers, optimisers).

This package replaces the deep-learning framework the paper implicitly
relies on; see docs/REPRODUCING.md, "Substitutions", for the rationale.
"""

from .attention import MultiHeadAttention, ScaledDotProductAttention, exclude_self_mask
from .functional import (
    entropy_from_logits,
    gumbel_softmax,
    log_softmax,
    one_hot,
    sample_categorical,
    softmax,
)
from .layers import (
    ACTIVATIONS,
    Identity,
    LeakyReLU,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    make_activation,
)
from .losses import mse_loss, nll_loss
from .module import Module, Parameter, hard_update, soft_update
from .networks import (
    CategoricalPolicy,
    DiscreteQNetwork,
    MLP,
    QNetwork,
    SquashedGaussianPolicy,
    TwinQNetwork,
)
from .optim import Adam, Optimizer, clip_grad_norm
from .tensor import (
    Tensor,
    concatenate,
    default_dtype,
    get_default_dtype,
    ones,
    set_default_dtype,
    stack,
    tensor,
    where,
    zeros,
)

__all__ = [
    "ACTIVATIONS",
    "Adam",
    "CategoricalPolicy",
    "DiscreteQNetwork",
    "Identity",
    "LeakyReLU",
    "Linear",
    "MLP",
    "Module",
    "MultiHeadAttention",
    "Optimizer",
    "Parameter",
    "QNetwork",
    "ReLU",
    "ScaledDotProductAttention",
    "Sequential",
    "Sigmoid",
    "SquashedGaussianPolicy",
    "Tanh",
    "Tensor",
    "TwinQNetwork",
    "clip_grad_norm",
    "concatenate",
    "default_dtype",
    "entropy_from_logits",
    "get_default_dtype",
    "exclude_self_mask",
    "gumbel_softmax",
    "hard_update",
    "log_softmax",
    "make_activation",
    "mse_loss",
    "nll_loss",
    "one_hot",
    "ones",
    "sample_categorical",
    "set_default_dtype",
    "soft_update",
    "softmax",
    "stack",
    "tensor",
    "where",
    "zeros",
]
