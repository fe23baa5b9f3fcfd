"""Small numeric helpers shared across the simulator and learners."""

from __future__ import annotations

import math

import numpy as np

_TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float | np.ndarray) -> float | np.ndarray:
    """Wrap an angle (radians) into ``(-pi, pi]``."""
    if isinstance(angle, float):
        # One float: Python's ``%`` applies np.mod's fmod-and-sign rule, so
        # this is bitwise the array branch without numpy's per-call cost.
        wrapped = (float(angle) + math.pi) % _TWO_PI - math.pi
        return math.pi if wrapped == -math.pi else wrapped
    wrapped = np.mod(np.asarray(angle) + np.pi, 2.0 * np.pi) - np.pi
    # np.mod maps -pi to -pi; push it to +pi for a half-open interval.
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    if np.isscalar(angle) or np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


def clamp(value: float, low: float, high: float) -> float:
    """Scalar clamp."""
    return max(low, min(high, value))


def clip_scalar(value, low, high):
    """``np.clip`` of one Python number, bitwise, without numpy's per-call cost.

    ``min(max(value, low), high)`` with the value first returns, for ordered
    bounds, exactly what ``np.clip`` returns: signed zeros keep their sign
    when they tie a bound, and a NaN value propagates (``max`` keeps its
    first argument when no later one compares greater).  :func:`clamp`
    puts the bounds first, so it maps NaN to a bound instead.
    """
    return min(max(value, low), high)


def moving_average(values, window: int) -> np.ndarray:
    """Trailing moving average; output has the same length as input.

    The first ``window - 1`` entries average over the available prefix so
    learning curves do not lose their head.
    """
    values = np.asarray(values, dtype=np.float64)
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if values.size == 0:
        return values
    cumulative = np.cumsum(values)
    out = np.empty_like(values)
    for i in range(len(values)):
        start = max(0, i - window + 1)
        total = cumulative[i] - (cumulative[start - 1] if start > 0 else 0.0)
        out[i] = total / (i - start + 1)
    return out


def discounted_returns(rewards, gamma: float) -> np.ndarray:
    """Compute discounted reward-to-go for a single episode."""
    rewards = np.asarray(rewards, dtype=np.float64)
    returns = np.zeros_like(rewards)
    running = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        running = rewards[t] + gamma * running
        returns[t] = running
    return returns


def segment_intersects_circle(
    start: np.ndarray, end: np.ndarray, center: np.ndarray, radius: float
) -> float | None:
    """Distance along segment ``start -> end`` to first circle hit, or None.

    Used by the lidar raycaster: vehicles are modelled as discs.
    """
    direction = end - start
    seg_len = float(np.linalg.norm(direction))
    if seg_len == 0.0:
        return None
    direction = direction / seg_len
    offset = start - center
    b = float(np.dot(offset, direction))
    c = float(np.dot(offset, offset)) - radius * radius
    discriminant = b * b - c
    if discriminant < 0.0:
        return None
    sqrt_disc = float(np.sqrt(discriminant))
    for t in (-b - sqrt_disc, -b + sqrt_disc):
        if 0.0 <= t <= seg_len:
            return t
    return None
