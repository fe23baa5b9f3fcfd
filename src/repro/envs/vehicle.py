"""Kinematic vehicle model.

The paper's low-level action space is ``(linear speed, angular speed)``
(Sec. IV-C); in the track frame the natural kinematics are

* ``s' = s + v * cos(phi) * dt``   (longitudinal progress)
* ``d' = d + v * sin(phi) * dt``   (lateral drift)
* ``phi' = phi + w * dt``          (heading relative to the lane direction)

where ``phi`` is the heading error w.r.t. the track direction. This is the
unicycle model expressed in Frenet coordinates, which matches the
differential-drive "Smartbot" prototypes of the real testbed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.math_utils import clamp, clip_scalar, wrap_angle
from .geometry import Track

MAX_HEADING_ERROR = np.pi / 3.0  # beyond this the vehicle is "spun out"


@dataclass
class VehicleState:
    """Pose and speed of one vehicle in the track frame."""

    s: float = 0.0
    d: float = 0.0
    heading: float = 0.0  # heading error w.r.t. the lane direction
    linear_speed: float = 0.0
    angular_speed: float = 0.0

    def copy(self) -> "VehicleState":
        return VehicleState(
            self.s, self.d, self.heading, self.linear_speed, self.angular_speed
        )


class Vehicle:
    """A single vehicle: kinematics, collision disc and odometry."""

    def __init__(
        self,
        vehicle_id: int,
        track: Track,
        radius: float = 0.12,
        max_linear_speed: float = 0.3,
        max_angular_speed: float = 0.5,
    ):
        self.vehicle_id = vehicle_id
        self.track = track
        self.radius = radius
        self.max_linear_speed = max_linear_speed
        self.max_angular_speed = max_angular_speed
        self.state = VehicleState()
        self.distance_travelled = 0.0
        self.crashed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self, s: float, lane_id: int, speed: float = 0.0) -> None:
        """Place the vehicle at longitudinal position ``s`` in ``lane_id``."""
        self.state = VehicleState(
            s=self.track.wrap(s),
            d=self.track.lane_center(lane_id),
            heading=0.0,
            linear_speed=speed,
            angular_speed=0.0,
        )
        self.distance_travelled = 0.0
        self.crashed = False

    def apply_action(self, linear_speed: float, angular_speed: float, dt: float) -> None:
        """Command speeds and integrate one step of unicycle kinematics."""
        if self.crashed:
            return
        v = clamp(float(linear_speed), 0.0, self.max_linear_speed)
        w = clamp(float(angular_speed), -self.max_angular_speed, self.max_angular_speed)
        state = self.state
        state.linear_speed = v
        state.angular_speed = w
        # The trigonometry stays on numpy's ufuncs: the stacked kernels in
        # repro.envs.vector_env are locked bitwise against them.
        state.heading = clip_scalar(
            wrap_angle(state.heading + w * dt), -MAX_HEADING_ERROR, MAX_HEADING_ERROR
        )
        ds = v * np.cos(state.heading) * dt
        state.s = self.track.wrap(state.s + ds)
        state.d = float(state.d + v * np.sin(state.heading) * dt)
        self.distance_travelled += max(ds, 0.0)

    def coast(self, dt: float) -> None:
        """Re-apply the previous speed commands (the paper's keep-lane rule:
        "the linear and angular speeds will remain the same")."""
        self.apply_action(self.state.linear_speed, self.state.angular_speed, dt)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def lane_id(self) -> int:
        return self.track.lane_of(self.state.d)

    @property
    def lane_deviation(self) -> float:
        return self.track.deviation_from_lane_center(self.state.d)

    def off_road(self) -> bool:
        return not self.track.on_road(self.state.d)

    def world_position(self) -> np.ndarray:
        return self.track.to_world(self.state.s, self.state.d)

    def collides_with(self, other: "Vehicle") -> bool:
        """Disc-disc collision test in the periodic track frame."""
        gap_s = self.track.signed_gap(self.state.s, other.state.s)
        gap_d = other.state.d - self.state.d
        distance = float(np.hypot(gap_s, gap_d))
        return distance < (self.radius + other.radius)

    def gap_to(self, other: "Vehicle") -> tuple[float, float]:
        """(signed longitudinal gap, lateral gap) to ``other``."""
        return (
            self.track.signed_gap(self.state.s, other.state.s),
            other.state.d - self.state.d,
        )
