"""Composite differentiable operations built on :mod:`repro.nn.tensor`.

These are the probability / classification primitives the RL algorithms
need: stable softmax family, one-hot encodings, and the Gumbel-softmax
relaxation used by MADDPG for discrete actions.
"""

from __future__ import annotations

import numpy as np

from .tensor import (  # noqa: F401  (re-export)
    Tensor,
    concatenate,
    get_default_dtype,
    stack,
    where,
)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(indices, num_classes: int, dtype=None) -> np.ndarray:
    """Plain numpy one-hot rows (not differentiable, used as input data).

    ``dtype`` defaults to the engine's compute dtype so the rows
    concatenate with network inputs without promoting them.
    """
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(
        indices.shape + (num_classes,),
        dtype=get_default_dtype() if dtype is None else dtype,
    )
    flat = out.reshape(-1, num_classes)
    flat[np.arange(flat.shape[0]), indices.reshape(-1)] = 1.0
    return out


def entropy_from_logits(logits: Tensor, axis: int = -1) -> Tensor:
    """Differentiable Shannon entropy of the categorical given ``logits``."""
    log_probs = log_softmax(logits, axis=axis)
    probs = log_probs.exp()
    return -(probs * log_probs).sum(axis=axis)


def gumbel_noise(shape, rng: np.random.Generator) -> np.ndarray:
    """Sample standard Gumbel noise ``-log(-log(U))``."""
    uniform = rng.uniform(low=1e-10, high=1.0 - 1e-10, size=shape)
    return -np.log(-np.log(uniform))


def gumbel_softmax(
    logits: Tensor,
    rng: np.random.Generator,
    temperature: float = 1.0,
    hard: bool = False,
) -> Tensor:
    """Gumbel-softmax relaxation of a categorical sample.

    With ``hard=True`` the forward pass is a one-hot argmax but the gradient
    flows through the soft sample (straight-through estimator), which is how
    MADDPG handles discrete action spaces.
    """
    noise = Tensor(gumbel_noise(logits.shape, rng))
    y_soft = softmax((logits + noise) * (1.0 / temperature), axis=-1)
    if not hard:
        return y_soft
    index = y_soft.data.argmax(axis=-1)
    y_hard = one_hot(index, logits.shape[-1])
    # Straight-through: forward = hard, backward = soft.
    return Tensor(y_hard - y_soft.data) + y_soft


def sample_categorical(logits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample integer actions from unnormalised ``logits`` rows.

    The cumulative-probability comparison always runs in float64: the RNG
    draws are float64 and comparing them against float32 partial sums
    would make the sampled action depend on the probability dtype, not
    just its value.  This is an integer-output path, so the upcast cannot
    leak into downstream compute.
    """
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=-1, keepdims=True)
    if logits.ndim == 1:
        return rng.choice(len(probs), p=probs)
    cumulative = probs.cumsum(axis=-1)
    draws = rng.uniform(size=logits.shape[:-1] + (1,))
    return (draws < cumulative).argmax(axis=-1)
