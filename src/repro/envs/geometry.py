"""Track geometry for the driving simulator.

The simulator works in a longitudinal/lateral frame:

* ``s`` — distance along the track (periodic: the two-lane loop of
  Fig. 12 is unrolled into a segment of length ``track_length`` with
  wrap-around, so episodes never run off the end of the world),
* ``d`` — signed lateral offset from the track centreline.

Lane 0 is the right lane (negative ``d``), lane 1 the left lane.
:class:`RingTrack` maps the same (s, d) coordinates onto a circular road
for rendering and for lidar geometry fidelity tests.
"""

from __future__ import annotations

import math

import numpy as np

from ..utils.math_utils import clip_scalar


class Track:
    """Base geometry: a periodic road with ``num_lanes`` parallel lanes."""

    def __init__(self, length: float, num_lanes: int = 2, lane_width: float = 0.5):
        if length <= 0:
            raise ValueError(f"track length must be positive, got {length}")
        if num_lanes < 1:
            raise ValueError(f"need at least one lane, got {num_lanes}")
        if lane_width <= 0:
            raise ValueError(f"lane width must be positive, got {lane_width}")
        self.length = float(length)
        self.num_lanes = int(num_lanes)
        self.lane_width = float(lane_width)

    # ------------------------------------------------------------------
    # Longitudinal coordinate
    # ------------------------------------------------------------------
    def wrap(self, s: float) -> float:
        """Wrap a longitudinal coordinate into ``[0, length)``.

        ``%`` follows the same fmod-and-sign rule as ``np.mod`` (bitwise),
        without numpy's per-call cost.  The modulo of a tiny negative value
        can round to exactly ``length``; fold that case back to 0 so the
        invariant holds.
        """
        wrapped = float(s % self.length)
        if wrapped >= self.length:
            wrapped = 0.0
        return wrapped

    def forward_gap(self, s_from: float, s_to: float) -> float:
        """Shortest forward distance from ``s_from`` to ``s_to`` (periodic)."""
        return self.wrap(s_to - s_from)

    def signed_gap(self, s_from: float, s_to: float) -> float:
        """Signed periodic distance in ``(-length/2, length/2]``."""
        gap = self.wrap(s_to - s_from)
        if gap > self.length / 2.0:
            gap -= self.length
        return gap

    # ------------------------------------------------------------------
    # Lateral coordinate / lanes
    # ------------------------------------------------------------------
    def lane_center(self, lane_id: int) -> float:
        """Lateral offset of a lane centre.

        Lanes are stacked symmetrically around the centreline: with two
        lanes, lane 0 sits at ``-lane_width/2`` and lane 1 at
        ``+lane_width/2``.
        """
        if not 0 <= lane_id < self.num_lanes:
            raise ValueError(f"lane_id {lane_id} outside 0..{self.num_lanes - 1}")
        half_span = self.num_lanes * self.lane_width / 2.0
        return -half_span + (lane_id + 0.5) * self.lane_width

    def lane_of(self, d: float) -> int:
        """Lane index containing lateral offset ``d`` (clamped to the road)."""
        half_span = self.num_lanes * self.lane_width / 2.0
        index = math.floor((d + half_span) / self.lane_width)
        return clip_scalar(index, 0, self.num_lanes - 1)

    def deviation_from_lane_center(self, d: float, lane_id: int | None = None) -> float:
        """Absolute lateral deviation from a lane centre (own lane if None)."""
        if lane_id is None:
            lane_id = self.lane_of(d)
        return abs(d - self.lane_center(lane_id))

    @property
    def half_width(self) -> float:
        return self.num_lanes * self.lane_width / 2.0

    def on_road(self, d: float) -> bool:
        return abs(d) <= self.half_width

    # ------------------------------------------------------------------
    # Embedding into the plane (for lidar and rendering)
    # ------------------------------------------------------------------
    def to_world(self, s: float, d: float) -> np.ndarray:
        raise NotImplementedError

    def heading_at(self, s: float) -> float:
        """World-frame heading of the track direction at ``s``."""
        raise NotImplementedError


class StraightTrack(Track):
    """Periodic straight segment: world = (s, d)."""

    def to_world(self, s: float, d: float) -> np.ndarray:
        return np.array([self.wrap(s), d])

    def heading_at(self, s: float) -> float:
        return 0.0


class RingTrack(Track):
    """Circular track: ``s`` maps to arc length on a circle of matching
    circumference; ``d`` offsets radially (positive = toward centre, which
    corresponds to the left/inner lane)."""

    def __init__(self, length: float, num_lanes: int = 2, lane_width: float = 0.5):
        super().__init__(length, num_lanes, lane_width)
        self.radius = self.length / (2.0 * np.pi)
        if self.radius <= self.half_width:
            raise ValueError("ring too small for the requested lane span")

    def to_world(self, s: float, d: float) -> np.ndarray:
        angle = self.wrap(s) / self.radius
        r = self.radius - d  # positive d (left lane) is the inner ring
        return np.array([r * np.cos(angle), r * np.sin(angle)])

    def heading_at(self, s: float) -> float:
        angle = self.wrap(s) / self.radius
        return float(np.mod(angle + np.pi / 2.0, 2.0 * np.pi))


def make_track(kind: str, length: float, num_lanes: int = 2, lane_width: float = 0.5) -> Track:
    """Factory used by configs: ``kind`` in {"straight", "ring"}."""
    if kind == "straight":
        return StraightTrack(length, num_lanes, lane_width)
    if kind == "ring":
        return RingTrack(length, num_lanes, lane_width)
    raise ValueError(f"unknown track kind {kind!r}")
