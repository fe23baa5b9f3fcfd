"""Tests for the options framework (the runner executes options; see
``tests/test_batched_rollout.py::TestOptionTermination``)."""

import pytest

from repro.core.options import (
    ACCELERATE,
    KEEP_LANE,
    LANE_CHANGE,
    OPTION_NAMES,
    SLOW_DOWN,
    OptionSet,
)
from repro.envs import StraightTrack, Vehicle


@pytest.fixture
def track():
    return StraightTrack(20.0, num_lanes=2, lane_width=0.5)


@pytest.fixture
def vehicle(track):
    v = Vehicle(0, track)
    v.reset(s=5.0, lane_id=0, speed=0.08)
    return v


class TestOptionSet:
    def test_four_options(self):
        options = OptionSet()
        assert len(options) == 4
        assert options.names() == OPTION_NAMES

    def test_indices_match_constants(self):
        options = OptionSet()
        assert options[KEEP_LANE].name == "keep_lane"
        assert options[SLOW_DOWN].name == "slow_down"
        assert options[ACCELERATE].name == "accelerate"
        assert options[LANE_CHANGE].name == "lane_change"

    def test_bounds_match_paper(self):
        options = OptionSet()
        slow = options[SLOW_DOWN].bounds
        assert (slow.linear_low, slow.linear_high) == (0.04, 0.08)
        acc = options[ACCELERATE].bounds
        assert (acc.linear_low, acc.linear_high) == (0.08, 0.14)
        change = options[LANE_CHANGE].bounds
        assert (change.linear_low, change.linear_high) == (0.10, 0.20)
        assert (change.angular_low, change.angular_high) == (0.12, 0.25)

    def test_keep_lane_has_no_bounds(self):
        assert OptionSet()[KEEP_LANE].bounds is None

    def test_availability_mask_all_on_two_lanes(self, vehicle):
        assert all(option.can_initiate(vehicle) for option in OptionSet())

    def test_lane_change_unavailable_single_lane(self):
        track = StraightTrack(20.0, num_lanes=1)
        vehicle = Vehicle(0, track)
        vehicle.reset(s=0.0, lane_id=0)
        mask = [option.can_initiate(vehicle) for option in OptionSet()]
        assert mask[KEEP_LANE] and mask[SLOW_DOWN] and mask[ACCELERATE]
        assert not mask[LANE_CHANGE]

    def test_iteration(self):
        assert [o.index for o in OptionSet()] == [0, 1, 2, 3]
