"""Multi-head attention parameters, the building block of the MAAC critic.

MAAC (Iqbal & Sha, ICML 2019) scores each agent's value by attending over
the encodings of the *other* agents: scaled dot-product attention over a
set axis, inputs ``(batch, n_agents, features)``.  These modules hold the
per-head projections and the output projection; the attention pass and
its vector-Jacobian product run fused over every head in
:class:`~repro.core.update_engine.MAACUpdateEngine`.
"""

from __future__ import annotations

import numpy as np

from .layers import Linear
from .module import Module


class ScaledDotProductAttention(Module):
    """Single attention head over a set of entity encodings: bias-free
    query, key and value projections and the ``1/sqrt(key_dim)`` scale."""

    def __init__(self, model_dim: int, key_dim: int, rng: np.random.Generator):
        super().__init__()
        self.query_proj = Linear(model_dim, key_dim, rng, bias=False)
        self.key_proj = Linear(model_dim, key_dim, rng, bias=False)
        self.value_proj = Linear(model_dim, key_dim, rng, bias=False)
        self.scale = 1.0 / np.sqrt(key_dim)


class MultiHeadAttention(Module):
    """Several attention heads whose outputs are concatenated and mapped by
    an output projection."""

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        rng: np.random.Generator,
        output_dim: int | None = None,
    ):
        super().__init__()
        if model_dim % num_heads != 0:
            raise ValueError(
                f"model_dim {model_dim} must be divisible by num_heads {num_heads}"
            )
        head_dim = model_dim // num_heads
        self.heads = [
            ScaledDotProductAttention(model_dim, head_dim, rng) for _ in range(num_heads)
        ]
        self.out_proj = Linear(model_dim, output_dim or model_dim, rng)


def exclude_self_mask(num_agents: int) -> np.ndarray:
    """Boolean (N, N) mask that is False on the diagonal.

    Broadcast over the batch axis so that agent ``i``'s query never attends
    to its own encoding — the defining detail of the MAAC critic.
    """
    return ~np.eye(num_agents, dtype=bool)
