"""Loss functions used by the RL learners."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error; the TD loss for every critic in the paper."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log-likelihood given row-wise ``log_probs`` and int targets."""
    targets = np.asarray(targets, dtype=np.int64)
    picked = log_probs.gather(targets[:, None], axis=-1)
    return -picked.mean()
