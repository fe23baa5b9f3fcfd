"""Simulated sensors: 360-degree lidar and the low-level feature vector.

The paper equips each vehicle with a lidar ("the distance with other
vehicles from 360 degrees", Sec. IV-B) and a camera whose image feeds the
low-level controller (Sec. IV-C). Here:

* :class:`Lidar` raycasts ``n_beams`` rays in the track frame against the
  other vehicles' collision discs and the road edges, returning normalised
  distances in ``[0, 1]``.
* :func:`feature_vector` stands in for the camera: the lane-relative pose
  and the nearby gaps a downward-facing camera would show; see
  docs/REPRODUCING.md, "Substitutions", for the substitution argument.
"""

from __future__ import annotations

import numpy as np

from .geometry import Track
from .vehicle import Vehicle

# Batches of at least this many egos scan only each disc's nearest periodic
# copy (see Lidar.scan_batch); the selection does not pay for itself below.
_PRUNE_MIN_BATCH = 2


class Lidar:
    """Raycasting range sensor in the (periodic) track frame."""

    def __init__(self, n_beams: int = 16, max_range: float = 3.0):
        if n_beams < 4:
            raise ValueError(f"need at least 4 beams, got {n_beams}")
        self.n_beams = n_beams
        self.max_range = max_range
        self._angles = np.linspace(0.0, 2.0 * np.pi, n_beams, endpoint=False)

    def scan(self, ego: Vehicle, others: list[Vehicle]) -> np.ndarray:
        """Return normalised distances (1.0 = nothing within range).

        Beam 0 points along the ego heading; beams proceed counter-clockwise.
        Delegates to :meth:`scan_batch` (one ego) so the scalar env and the
        vectorized env share one raycast kernel bit for bit.
        """
        track = ego.track
        obstacles = [other for other in others if other is not ego]
        n = len(obstacles)
        centers = np.zeros((1, n, 2))
        radii = np.zeros((1, n))
        for j, other in enumerate(obstacles):
            centers[0, j, 0] = other.state.s
            centers[0, j, 1] = other.state.d
            radii[0, j] = other.radius
        return self.scan_batch(
            np.array([[ego.state.s, ego.state.d]]),
            np.array([ego.state.heading]),
            centers,
            radii,
            half_width=track.half_width,
            track_length=track.length,
        )[0]

    def scan_batch(
        self,
        origins: np.ndarray,
        headings: np.ndarray,
        centers: np.ndarray,
        radii: np.ndarray,
        half_width: float,
        track_length: float,
    ) -> np.ndarray:
        """Vectorized raycast for a batch of egos against disc obstacles.

        Parameters
        ----------
        origins : ``(B, 2)`` track-frame ``(s, d)`` ego positions.
        headings : ``(B,)`` ego heading errors.
        centers : ``(B, M, 2)`` obstacle disc centres (one row per ego; the
            kernel adds the ``-L/0/+L`` periodic copies itself).
        radii : ``(B, M)`` obstacle radii.
        half_width : road half width (the walls at ``d = +/- half_width``).
        track_length : period of the longitudinal coordinate.

        Returns ``(B, n_beams)`` distances normalised by ``max_range``.
        """
        origins = np.asarray(origins, dtype=np.float64)
        headings = np.asarray(headings, dtype=np.float64)
        centers = np.asarray(centers, dtype=np.float64)
        radii = np.asarray(radii, dtype=np.float64)
        n_batch, n_obstacles = centers.shape[0], centers.shape[1]

        angles = headings[:, None] + self._angles[None, :]  # (B, K)
        dir_s = np.cos(angles)
        dir_d = np.sin(angles)

        best = np.full((n_batch, self.n_beams), self.max_range)
        if n_obstacles:
            # Periodic copies of each disc at s - L, s, s + L: offsets
            # origin - centre along s, copies last, (B, M, 3).
            shifts = np.array([-track_length, 0.0, track_length])
            off_s = origins[:, 0:1, None] - (centers[:, :, 0:1] + shifts)
            center_d = centers[:, :, 1]
            if (
                n_batch >= _PRUNE_MIN_BATCH
                and 0.5 * track_length - radii.max() > 1.001 * self.max_range
            ):
                # Only the copy nearest along s can lie within range: every
                # other copy is at least L/2 away, so its rays all miss and
                # it would only add max_range entries to the minimum below.
                # Dropping them leaves every result bit unchanged and cuts
                # the per-ray work by 3x; small batches skip the selection,
                # whose cost outweighs the saving there.
                along, half = off_s[:, :, 1], 0.5 * track_length
                off_s = np.where(
                    along > half,
                    off_s[:, :, 2],
                    np.where(along < -half, off_s[:, :, 0], along),
                )
            else:
                off_s = off_s.reshape(n_batch, -1)  # (B, 3M)
                center_d = np.repeat(center_d, 3, axis=1)
                radii = np.repeat(radii, 3, axis=1)
            off_d = origins[:, 1:2] - center_d

            # Ray/circle intersection in closed form: with unit direction u
            # and offset o = origin - center, hits are t = -b +/- sqrt(b²-c)
            # for b = o·u, c = o·o - r².  Discs lead the (C, B, K) layout, so
            # the minimum over discs is C - 1 elementwise minimums rather than
            # one tiny reduction per ray.
            b = off_s.T[:, :, None] * dir_s + off_d.T[:, :, None] * dir_d
            c = (off_s * off_s + off_d * off_d - radii * radii).T[:, :, None]
            disc = b * b - c
            hit_possible = disc >= 0.0
            sqrt_disc = np.sqrt(np.where(hit_possible, disc, 0.0))
            t_near = -b - sqrt_disc
            t_far = -b + sqrt_disc
            near_ok = hit_possible & (t_near >= 0.0) & (t_near <= self.max_range)
            far_ok = hit_possible & (t_far >= 0.0) & (t_far <= self.max_range)
            t_hit = np.where(near_ok, t_near, np.where(far_ok, t_far, self.max_range))
            best = np.minimum(best, t_hit.min(axis=0))

        # Road edges are walls at d = +/- half_width.
        steep = np.abs(dir_d) > 1e-9
        safe_dir_d = np.where(steep, dir_d, 1.0)
        for wall in (-half_width, half_width):
            t_wall = (wall - origins[:, 1:2]) / safe_dir_d
            hit = steep & (t_wall >= 0.0) & (t_wall < best)
            best = np.where(hit, t_wall, best)
        return best / self.max_range


def feature_vector(ego: Vehicle, others: list[Vehicle], track: Track) -> np.ndarray:
    """Compact hand-crafted low-level features, the camera's stand-in.

    ``[lane deviation (signed), heading error, speed, lane one-hot...,
    forward gap same lane, forward gap other lane, rear gap other lane]``,
    gaps normalised by a 3-unit horizon.
    """
    horizon = 3.0
    lane = ego.lane_id
    deviation = ego.state.d - track.lane_center(lane)
    lane_onehot = np.zeros(track.num_lanes)
    lane_onehot[lane] = 1.0

    def nearest_gap(target_lane: int, forward: bool) -> float:
        best = horizon
        for other in others:
            if other is ego or other.lane_id != target_lane:
                continue
            gap = track.signed_gap(ego.state.s, other.state.s)
            if forward and 0.0 < gap < best:
                best = gap
            if not forward and 0.0 < -gap < best:
                best = -gap
        return best / horizon

    other_lane = 1 - lane if track.num_lanes == 2 else lane
    return np.concatenate(
        [
            [deviation / track.lane_width, ego.state.heading, ego.state.linear_speed],
            lane_onehot,
            [
                nearest_gap(lane, forward=True),
                nearest_gap(other_lane, forward=True),
                nearest_gap(other_lane, forward=False),
            ],
        ]
    )


FEATURE_DIM_BASE = 6  # deviation, heading, speed, fwd gap, fwd-other, rear-other


def feature_dim(num_lanes: int) -> int:
    """Dimension of :func:`feature_vector` output."""
    return FEATURE_DIM_BASE + num_lanes
