"""Shared utilities: seeding, schedules, math helpers, metric logging."""

from .logging_utils import MetricLogger, format_table
from .math_utils import (
    clamp,
    clip_scalar,
    discounted_returns,
    moving_average,
    segment_intersects_circle,
    wrap_angle,
)
from .schedule import LinearSchedule, Schedule
from .seeding import spawn_rngs

__all__ = [
    "LinearSchedule",
    "MetricLogger",
    "Schedule",
    "clamp",
    "clip_scalar",
    "discounted_returns",
    "format_table",
    "moving_average",
    "segment_intersects_circle",
    "spawn_rngs",
    "wrap_angle",
]
