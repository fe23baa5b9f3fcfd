"""Weight initialisation schemes for :mod:`repro.nn` layers."""

from __future__ import annotations

import numpy as np


def xavier_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Glorot uniform init; good default for tanh networks."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Kaiming uniform init; good default for ReLU networks."""
    fan_in, _ = _fans(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def uniform(shape: tuple, rng: np.random.Generator, scale: float = 3e-3) -> np.ndarray:
    """Small uniform init used for final actor/critic output layers (DDPG)."""
    return rng.uniform(-scale, scale, size=shape)


def orthogonal(shape: tuple, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Orthogonal init; used for recurrent-free policy trunks."""
    if len(shape) < 2:
        return rng.standard_normal(shape) * gain
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols].reshape(shape)


def _fans(shape: tuple) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for a bias or dense ``(in, out)`` weight."""
    if len(shape) == 1:
        return shape[0], shape[0]
    return shape[0], shape[1]
