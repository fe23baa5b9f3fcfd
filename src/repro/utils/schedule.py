"""Scalar schedules (exploration epsilon, learning rates, temperatures)."""

from __future__ import annotations


class Schedule:
    """Base class: maps a step index to a scalar value."""

    def value(self, step: int) -> float:
        raise NotImplementedError

    def __call__(self, step: int) -> float:
        return self.value(step)


class LinearSchedule(Schedule):
    """Linear interpolation from ``start`` to ``end`` over ``duration`` steps."""

    def __init__(self, start: float, end: float, duration: int):
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        self.start = start
        self.end = end
        self.duration = duration

    def value(self, step: int) -> float:
        fraction = min(max(step, 0), self.duration) / self.duration
        return self.start + fraction * (self.end - self.start)
