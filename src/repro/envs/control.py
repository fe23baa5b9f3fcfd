"""Shared low-level steering primitives.

The paper's lane-change action space is one-sided (angular speed in
``0.12..0.25``): the *magnitude* is the learned quantity, the *sign*
(which way to steer at each instant) is determined by the manoeuvre — you
swing toward the target lane, then counter-steer to settle on its centre.
This module holds that direction controller so skill-training environments
and HERO's option execution apply identical steering semantics.
"""

from __future__ import annotations

import numpy as np

from ..utils.math_utils import clip_scalar
from .vehicle import Vehicle

# Desired-heading profile: proportional to remaining lateral error, capped
# so the vehicle never turns more than ~40 degrees off the lane direction.
HEADING_GAIN = 3.0
HEADING_CAP = 0.7


def lane_change_steer_sign(vehicle: Vehicle, target_lane: int) -> float:
    """Instantaneous steering direction for a merge into ``target_lane``.

    Tracks the desired heading ``clip(gain * lateral_error)``: positive
    while swinging out, negative once the vehicle must straighten onto the
    target lane centre.
    """
    target_d = vehicle.track.lane_center(target_lane)
    lateral_error = target_d - vehicle.state.d
    desired_heading = clip_scalar(HEADING_GAIN * lateral_error, -HEADING_CAP, HEADING_CAP)
    heading_error = desired_heading - vehicle.state.heading
    if abs(heading_error) <= 1e-6:
        return 0.0
    return float(np.sign(heading_error))


def lane_change_command(
    vehicle: Vehicle, target_lane: int, linear: float, angular_magnitude: float
) -> np.ndarray:
    """Full (linear, angular) command for one lane-change step."""
    sign = lane_change_steer_sign(vehicle, target_lane)
    return np.array([linear, sign * abs(angular_magnitude)])


def lane_keep_command(
    vehicle: Vehicle, linear: float, max_angular: float = 0.1, gain: float = 0.8
) -> np.ndarray:
    """P-controller command to hold the current lane centre (helper for
    scripted traffic and evaluation probes)."""
    target_d = vehicle.track.lane_center(vehicle.lane_id)
    lateral_error = target_d - vehicle.state.d
    angular = gain * lateral_error - 1.5 * gain * vehicle.state.heading
    return np.array([linear, clip_scalar(angular, -max_angular, max_angular)])
