"""Shared utilities: seeding, schedules, math helpers, metric logging."""

from .logging_utils import MetricLogger, format_table
from .math_utils import (
    clamp,
    clip_scalar,
    discounted_returns,
    explained_variance,
    moving_average,
    segment_intersects_circle,
    wrap_angle,
)
from .schedule import (
    ConstantSchedule,
    CosineSchedule,
    ExponentialSchedule,
    LinearSchedule,
    PiecewiseSchedule,
    Schedule,
)
from .seeding import child_rng, make_rng, spawn_rngs

__all__ = [
    "ConstantSchedule",
    "CosineSchedule",
    "ExponentialSchedule",
    "LinearSchedule",
    "MetricLogger",
    "PiecewiseSchedule",
    "Schedule",
    "child_rng",
    "clamp",
    "clip_scalar",
    "discounted_returns",
    "explained_variance",
    "format_table",
    "make_rng",
    "moving_average",
    "segment_intersects_circle",
    "spawn_rngs",
    "wrap_angle",
]
