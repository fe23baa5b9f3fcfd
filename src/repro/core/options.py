"""The options framework (Sec. III-B).

An option is the paper's three-tuple ``o = (I_o, pi_h, beta_o)``: an
initiation set, the policy that executes it, and a termination condition.
Here the execution policy is supplied by the low-level skill library, so
an :class:`Option` carries the *identity*, *action bounds* and
*initiation predicate*; :class:`OptionSet` groups the four driving
options of Sec. IV-B and the two numbers their termination rules read.

Termination is **asynchronous** (Sec. III-B): each agent checks its own
option's ``beta`` every step and re-selects independently of the others.
:class:`~repro.core.batched.BatchedHeroRunner` evaluates every agent's
``beta`` at once: keep-lane, slow-down and accelerate end after
``option_duration`` steps; a lane change ends when the vehicle is within a
quarter lane width of the target lane's centre (a success) or after
``lane_change_max_steps`` steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import (
    ACCELERATE_BOUNDS,
    LANE_CHANGE_BOUNDS,
    OptionBounds,
    SLOW_DOWN_BOUNDS,
)
from ..envs.vehicle import Vehicle

KEEP_LANE = 0
SLOW_DOWN = 1
ACCELERATE = 2
LANE_CHANGE = 3

OPTION_NAMES = ["keep_lane", "slow_down", "accelerate", "lane_change"]


@dataclass(frozen=True)
class Option:
    """One high-level option: identity + bounds + initiation."""

    index: int
    name: str
    bounds: OptionBounds | None  # None -> coast (keep previous speeds)
    initiation: Callable[[Vehicle], bool]

    def can_initiate(self, vehicle: Vehicle) -> bool:
        return self.initiation(vehicle)


def _always(vehicle: Vehicle) -> bool:
    return True


def _can_change_lane(vehicle: Vehicle) -> bool:
    """Lane change initiates only if another lane exists and the vehicle is
    roughly lane-centred (mid-manoeuvre re-initiation is meaningless)."""
    return vehicle.track.num_lanes > 1


class OptionSet:
    """The driving option set A_h = [keep, slow, accelerate, change]."""

    def __init__(self, option_duration: int = 3, lane_change_max_steps: int = 10):
        self.option_duration = option_duration
        self.lane_change_max_steps = lane_change_max_steps
        self.options = [
            Option(KEEP_LANE, "keep_lane", bounds=None, initiation=_always),
            Option(SLOW_DOWN, "slow_down", bounds=SLOW_DOWN_BOUNDS, initiation=_always),
            Option(
                ACCELERATE, "accelerate", bounds=ACCELERATE_BOUNDS, initiation=_always
            ),
            Option(
                LANE_CHANGE,
                "lane_change",
                bounds=LANE_CHANGE_BOUNDS,
                initiation=_can_change_lane,
            ),
        ]

    def __len__(self) -> int:
        return len(self.options)

    def __getitem__(self, index: int) -> Option:
        return self.options[index]

    def __iter__(self):
        return iter(self.options)

    @property
    def num_options(self) -> int:
        return len(self.options)

    def names(self) -> list[str]:
        return [option.name for option in self.options]
