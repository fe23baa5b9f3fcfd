"""Tests for track geometry, vehicles and sensors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envs import (
    Lidar,
    RingTrack,
    StraightTrack,
    Vehicle,
    feature_dim,
    feature_vector,
    make_track,
)
from repro.utils.math_utils import segment_intersects_circle, wrap_angle


class TestTrack:
    def setup_method(self):
        self.track = StraightTrack(length=20.0, num_lanes=2, lane_width=0.5)

    def test_wrap(self):
        assert self.track.wrap(21.0) == pytest.approx(1.0)
        assert self.track.wrap(-1.0) == pytest.approx(19.0)
        assert self.track.wrap(20.0) == pytest.approx(0.0)

    def test_lane_centers_symmetric(self):
        assert self.track.lane_center(0) == pytest.approx(-0.25)
        assert self.track.lane_center(1) == pytest.approx(0.25)

    def test_lane_of_inverts_lane_center(self):
        for lane in range(2):
            assert self.track.lane_of(self.track.lane_center(lane)) == lane

    def test_lane_of_clamps(self):
        assert self.track.lane_of(-100.0) == 0
        assert self.track.lane_of(100.0) == 1

    def test_signed_gap_shortest_path(self):
        assert self.track.signed_gap(1.0, 19.0) == pytest.approx(-2.0)
        assert self.track.signed_gap(19.0, 1.0) == pytest.approx(2.0)

    def test_forward_gap(self):
        assert self.track.forward_gap(19.0, 1.0) == pytest.approx(2.0)
        assert self.track.forward_gap(1.0, 19.0) == pytest.approx(18.0)

    def test_deviation(self):
        assert self.track.deviation_from_lane_center(-0.25) == pytest.approx(0.0)
        assert self.track.deviation_from_lane_center(0.0, lane_id=0) == pytest.approx(0.25)

    def test_on_road(self):
        assert self.track.on_road(0.49)
        assert not self.track.on_road(0.51)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StraightTrack(length=-1.0)
        with pytest.raises(ValueError):
            StraightTrack(length=1.0, num_lanes=0)
        with pytest.raises(ValueError):
            StraightTrack(length=1.0, lane_width=0.0)
        with pytest.raises(ValueError):
            self.track.lane_center(5)

    def test_make_track_factory(self):
        assert isinstance(make_track("straight", 10.0), StraightTrack)
        assert isinstance(make_track("ring", 10.0), RingTrack)
        with pytest.raises(ValueError):
            make_track("figure8", 10.0)


class TestRingTrack:
    def test_world_positions_on_circle(self):
        track = RingTrack(length=20.0, num_lanes=2, lane_width=0.5)
        point = track.to_world(s=5.0, d=0.0)
        assert np.linalg.norm(point) == pytest.approx(track.radius)

    def test_inner_lane_smaller_radius(self):
        track = RingTrack(length=20.0)
        inner = np.linalg.norm(track.to_world(0.0, track.lane_center(1)))
        outer = np.linalg.norm(track.to_world(0.0, track.lane_center(0)))
        assert inner < outer

    def test_too_small_ring_rejected(self):
        with pytest.raises(ValueError):
            RingTrack(length=1.0, num_lanes=2, lane_width=0.5)

    def test_heading_perpendicular_to_radius(self):
        track = RingTrack(length=20.0)
        for s in [0.0, 3.0, 12.5]:
            heading = track.heading_at(s)
            pos = track.to_world(s, 0.0)
            radial = pos / np.linalg.norm(pos)
            tangent = np.array([np.cos(heading), np.sin(heading)])
            assert abs(np.dot(radial, tangent)) < 1e-9


class TestVehicle:
    def setup_method(self):
        self.track = StraightTrack(20.0)
        self.vehicle = Vehicle(0, self.track)

    def test_reset_places_on_lane_center(self):
        self.vehicle.reset(s=3.0, lane_id=1, speed=0.1)
        assert self.vehicle.state.d == pytest.approx(0.25)
        assert self.vehicle.lane_id == 1
        assert not self.vehicle.crashed

    def test_straight_motion(self):
        self.vehicle.reset(s=0.0, lane_id=0, speed=0.0)
        self.vehicle.apply_action(0.1, 0.0, dt=1.0)
        assert self.vehicle.state.s == pytest.approx(0.1)
        assert self.vehicle.state.d == pytest.approx(-0.25)
        assert self.vehicle.distance_travelled == pytest.approx(0.1)

    def test_turn_changes_lateral(self):
        self.vehicle.reset(s=0.0, lane_id=0, speed=0.0)
        for _ in range(5):
            self.vehicle.apply_action(0.1, 0.2, dt=1.0)
        assert self.vehicle.state.d > -0.25  # drifted left

    def test_speed_clamped(self):
        self.vehicle.reset(s=0.0, lane_id=0)
        self.vehicle.apply_action(10.0, 0.0, dt=1.0)
        assert self.vehicle.state.linear_speed == pytest.approx(
            self.vehicle.max_linear_speed
        )

    def test_crashed_vehicle_frozen(self):
        self.vehicle.reset(s=0.0, lane_id=0)
        self.vehicle.crashed = True
        self.vehicle.apply_action(0.1, 0.0, dt=1.0)
        assert self.vehicle.state.s == pytest.approx(0.0)

    def test_collision_detection(self):
        a = Vehicle(0, self.track, radius=0.12)
        b = Vehicle(1, self.track, radius=0.12)
        a.reset(s=0.0, lane_id=0)
        b.reset(s=0.1, lane_id=0)
        assert a.collides_with(b)
        b.reset(s=1.0, lane_id=0)
        assert not a.collides_with(b)

    def test_collision_across_wrap(self):
        a = Vehicle(0, self.track, radius=0.12)
        b = Vehicle(1, self.track, radius=0.12)
        a.reset(s=19.95, lane_id=0)
        b.reset(s=0.05, lane_id=0)
        assert a.collides_with(b)

    def test_different_lanes_no_collision(self):
        a = Vehicle(0, self.track, radius=0.12)
        b = Vehicle(1, self.track, radius=0.12)
        a.reset(s=0.0, lane_id=0)
        b.reset(s=0.0, lane_id=1)
        assert not a.collides_with(b)

    def test_coast_preserves_speed(self):
        self.vehicle.reset(s=0.0, lane_id=0, speed=0.0)
        self.vehicle.apply_action(0.1, 0.05, dt=1.0)
        heading_before = self.vehicle.state.heading
        self.vehicle.coast(dt=1.0)
        assert self.vehicle.state.linear_speed == pytest.approx(0.1)
        assert self.vehicle.state.heading > heading_before


class TestLidar:
    def setup_method(self):
        self.track = StraightTrack(20.0)
        self.lidar = Lidar(n_beams=16, max_range=3.0)

    def test_empty_road_sees_walls_only(self):
        ego = Vehicle(0, self.track)
        ego.reset(s=10.0, lane_id=0)
        scan = self.lidar.scan(ego, [ego])
        # Forward and backward beams see nothing (1.0); some lateral beams
        # hit the road edge walls.
        assert scan[0] == pytest.approx(1.0)
        assert scan.min() < 1.0

    def test_detects_vehicle_ahead(self):
        ego = Vehicle(0, self.track)
        other = Vehicle(1, self.track, radius=0.12)
        ego.reset(s=10.0, lane_id=0)
        other.reset(s=11.0, lane_id=0)
        scan = self.lidar.scan(ego, [ego, other])
        # Beam 0 points forward: distance 1.0 - radius, normalised by 3.
        assert scan[0] == pytest.approx((1.0 - 0.12) / 3.0, abs=1e-6)

    def test_detects_vehicle_behind(self):
        ego = Vehicle(0, self.track)
        other = Vehicle(1, self.track, radius=0.12)
        ego.reset(s=10.0, lane_id=0)
        other.reset(s=9.0, lane_id=0)
        scan = self.lidar.scan(ego, [ego, other])
        back_beam = 8  # 16 beams, beam 8 = 180 degrees
        assert scan[back_beam] == pytest.approx((1.0 - 0.12) / 3.0, abs=1e-6)

    def test_detects_across_wrap(self):
        ego = Vehicle(0, self.track)
        other = Vehicle(1, self.track, radius=0.12)
        ego.reset(s=19.5, lane_id=0)
        other.reset(s=0.5, lane_id=0)
        scan = self.lidar.scan(ego, [ego, other])
        assert scan[0] == pytest.approx((1.0 - 0.12) / 3.0, abs=1e-6)

    def test_out_of_range_invisible(self):
        ego = Vehicle(0, self.track)
        other = Vehicle(1, self.track)
        ego.reset(s=0.0, lane_id=0)
        other.reset(s=5.0, lane_id=0)
        scan = self.lidar.scan(ego, [ego, other])
        assert scan[0] == pytest.approx(1.0)

    def test_min_beams(self):
        with pytest.raises(ValueError):
            Lidar(n_beams=2)

    def test_scan_normalised(self):
        ego = Vehicle(0, self.track)
        ego.reset(s=0.0, lane_id=0)
        others = []
        for i in range(4):
            v = Vehicle(i + 1, self.track)
            v.reset(s=float(i), lane_id=i % 2)
            others.append(v)
        scan = self.lidar.scan(ego, [ego] + others)
        assert np.all(scan >= 0.0) and np.all(scan <= 1.0)


class TestFeatureVector:
    def setup_method(self):
        self.track = StraightTrack(20.0)

    def test_dimension_matches_helper(self):
        ego = Vehicle(0, self.track)
        ego.reset(s=0.0, lane_id=0)
        features = feature_vector(ego, [ego], self.track)
        assert features.shape == (feature_dim(2),)

    def test_gap_to_leader_encoded(self):
        ego = Vehicle(0, self.track)
        leader = Vehicle(1, self.track)
        ego.reset(s=0.0, lane_id=0, speed=0.1)
        leader.reset(s=1.5, lane_id=0)
        features = feature_vector(ego, [ego, leader], self.track)
        no_leader = feature_vector(ego, [ego], self.track)
        assert features[-3] < no_leader[-3]  # forward gap shrinks

    def test_deviation_sign(self):
        ego = Vehicle(0, self.track)
        ego.reset(s=0.0, lane_id=0)
        ego.state.d += 0.1  # drift left of centre
        features = feature_vector(ego, [ego], self.track)
        assert features[0] > 0


class TestMathHelpers:
    def test_wrap_angle(self):
        assert wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(0.3) == pytest.approx(0.3)

    def test_segment_circle_hit(self):
        hit = segment_intersects_circle(
            np.array([0.0, 0.0]), np.array([5.0, 0.0]), np.array([2.0, 0.0]), 0.5
        )
        assert hit == pytest.approx(1.5)

    def test_segment_circle_miss(self):
        hit = segment_intersects_circle(
            np.array([0.0, 0.0]), np.array([5.0, 0.0]), np.array([2.0, 2.0]), 0.5
        )
        assert hit is None

    def test_segment_circle_behind(self):
        hit = segment_intersects_circle(
            np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([-2.0, 0.0]), 0.5
        )
        assert hit is None


@settings(max_examples=50, deadline=None)
@given(
    s1=st.floats(0, 19.99),
    s2=st.floats(0, 19.99),
)
def test_property_signed_gap_antisymmetric(s1, s2):
    track = StraightTrack(20.0)
    g12 = track.signed_gap(s1, s2)
    g21 = track.signed_gap(s2, s1)
    # Antisymmetric except at the +/- half-length boundary.
    if abs(abs(g12) - 10.0) > 1e-6:
        assert g12 == pytest.approx(-g21, abs=1e-9)
    assert abs(g12) <= 10.0 + 1e-9


@settings(max_examples=50, deadline=None)
@given(s=st.floats(-100, 100))
def test_property_wrap_into_range(s):
    track = StraightTrack(20.0)
    assert 0.0 <= track.wrap(s) < 20.0


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 1000),
    beams=st.sampled_from([8, 16, 36]),
)
def test_property_lidar_symmetric_setup(seed, beams):
    """Two vehicles equidistant fore/aft produce symmetric front/back beams."""
    rng = np.random.default_rng(seed)
    track = StraightTrack(20.0)
    lidar = Lidar(n_beams=beams, max_range=3.0)
    ego = Vehicle(0, track)
    front = Vehicle(1, track, radius=0.12)
    back = Vehicle(2, track, radius=0.12)
    gap = float(rng.uniform(0.5, 2.5))
    ego.reset(s=10.0, lane_id=0)
    front.reset(s=10.0 + gap, lane_id=0)
    back.reset(s=10.0 - gap, lane_id=0)
    scan = lidar.scan(ego, [ego, front, back])
    assert scan[0] == pytest.approx(scan[beams // 2], abs=1e-9)


def _random_scan_inputs(rng, batch, obstacles, length, half_width=0.5):
    origins = np.stack(
        [rng.uniform(0.0, length, batch), rng.uniform(-0.6, 0.6, batch)], axis=-1
    )
    centers = np.stack(
        [
            rng.uniform(0.0, length, (batch, obstacles)),
            rng.uniform(-half_width, half_width, (batch, obstacles)),
        ],
        axis=-1,
    )
    if obstacles:
        # A disc around the ego itself and one exactly half a track away:
        # the inside-the-disc hit and the tie between two periodic copies.
        centers[:, 0] = origins + rng.choice([0.0, 0.05, 0.12], (batch, 1))
        centers[:, -1, 0] = (origins[:, 0] + length / 2.0) % length
    origins[: batch // 3, 0] = rng.choice([0.0, np.nextafter(length, 0.0)], batch // 3)
    radii = rng.choice([0.05, 0.12, 0.3], (batch, obstacles))
    headings = rng.uniform(-np.pi, np.pi, batch)
    headings[: batch // 4] = rng.choice([0.0, np.pi / 2, np.pi], batch // 4)
    return origins, headings, centers, radii


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    batch=st.sampled_from([2, 9, 24, 48]),
    obstacles=st.integers(0, 5),
    length=st.sampled_from([4.0, 6.0, 20.0]),
)
def test_property_lidar_batch_rows_equal_single_scans(seed, batch, obstacles, length):
    """Each row of a batched scan is bitwise the one-ego scan of that row.

    Batches only raycast each disc's nearest periodic copy when the track is
    long enough that the others cannot be in range (not at L = 4 or 6 with
    max_range 3); single egos always test all three copies.
    """
    rng = np.random.default_rng(seed)
    lidar = Lidar(n_beams=16, max_range=3.0)
    origins, headings, centers, radii = _random_scan_inputs(rng, batch, obstacles, length)
    kwargs = dict(half_width=0.5, track_length=length)
    rows = lidar.scan_batch(origins, headings, centers, radii, **kwargs)
    for i in range(batch):
        one = lidar.scan_batch(
            origins[i : i + 1],
            headings[i : i + 1],
            centers[i : i + 1],
            radii[i : i + 1],
            **kwargs,
        )
        assert one.tobytes() == rows[i : i + 1].tobytes(), i
