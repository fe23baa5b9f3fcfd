"""The scalar simulator's one-float helpers equal the numpy code they replace.

``Track.wrap``/``signed_gap``/``lane_of``, the scalar branch of
``wrap_angle`` and the single-float clamps use Python's ``%``,
``math.floor`` and ``clip_scalar`` (``min(max(x, lo), hi)``) instead of ``np.mod``,
``np.floor`` and ``np.clip``: the same IEEE results without numpy's
per-call cost.  Each property keeps the replaced numpy expression as its
reference and compares bit patterns (a NaN only has to be a NaN), so a
signed zero or a rounding edge that moved would fail here.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import LANE_CHANGE_BOUNDS, SLOW_DOWN_BOUNDS, ScenarioConfig
from repro.core import LANE_CHANGE, SLOW_DOWN, BatchedHeroRunner, HeroTeam
from repro.envs import CooperativeLaneChangeEnv, LaneChangeEnv, StraightTrack, Vehicle
from repro.envs.stepping import PoseStepper
from repro.envs.control import HEADING_CAP, HEADING_GAIN, lane_keep_command
from repro.envs.vehicle import MAX_HEADING_ERROR
from repro.utils.math_utils import clip_scalar, wrap_angle

LENGTH = 20.0
TRACK = StraightTrack(LENGTH, num_lanes=2, lane_width=0.5)
# Lane boundaries at d = -0.5, 0.0, +0.5; the road ends at |d| = 0.5.
BOUNDARIES = (-0.5, 0.0, 0.5)

any_float = st.floats(allow_nan=True, allow_infinity=True)
finite = st.floats(allow_nan=False, allow_infinity=False)


def assert_same_float(actual, expected):
    if np.isnan(expected):
        assert np.isnan(actual)
    else:
        assert np.float64(actual).tobytes() == np.float64(expected).tobytes(), (
            actual,
            expected,
        )


def outcome(fn, *args):
    """``fn(*args)``'s value, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc)


# --- the numpy expressions the scalar helpers replaced -------------------


def ref_wrap(s, length=LENGTH):
    with np.errstate(invalid="ignore"):
        wrapped = float(np.mod(s, length))
    if wrapped >= length:
        wrapped = 0.0
    return wrapped


def ref_signed_gap(s_from, s_to, length=LENGTH):
    gap = ref_wrap(s_to - s_from, length)
    if gap > length / 2.0:
        gap -= length
    return gap


def ref_lane_of(d, track=TRACK):
    half_span = track.num_lanes * track.lane_width / 2.0
    index = int(np.floor((d + half_span) / track.lane_width))
    return int(np.clip(index, 0, track.num_lanes - 1))


def ref_wrap_angle(angle):
    with np.errstate(invalid="ignore"):
        wrapped = np.mod(np.asarray(angle) + np.pi, 2.0 * np.pi) - np.pi
    return float(np.where(wrapped == -np.pi, np.pi, wrapped))


# --- properties -----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(s=any_float)
@example(s=-1e-18)  # rounds to exactly LENGTH before the fold back to 0
@example(s=-0.0)
@example(s=LENGTH)
@example(s=float("nan"))
@example(s=float("inf"))
def test_wrap_is_bitwise_np_mod(s):
    assert_same_float(TRACK.wrap(s), ref_wrap(s))
    with np.errstate(invalid="ignore"):  # numpy scalars warn on inf % x
        assert_same_float(TRACK.wrap(np.float64(s)), ref_wrap(s))


@settings(max_examples=300, deadline=None)
@given(s_from=any_float, s_to=any_float)
@example(s_from=1e-18, s_to=0.0)
@example(s_from=0.0, s_to=LENGTH / 2.0)
@example(s_from=float("nan"), s_to=1.0)
def test_signed_gap_is_bitwise_np_mod(s_from, s_to):
    with np.errstate(invalid="ignore"):
        assert_same_float(TRACK.signed_gap(s_from, s_to), ref_signed_gap(s_from, s_to))


@settings(max_examples=300, deadline=None)
@given(d=st.one_of(any_float, st.sampled_from(BOUNDARIES), st.floats(-1.0, 1.0)))
@example(d=-0.5)
@example(d=0.0)
@example(d=-0.0)
@example(d=0.5)
@example(d=0.75)  # off road, left
@example(d=-3.0)  # off road, right
@example(d=1e308)  # overflows to inf inside the floor
@example(d=float("nan"))
def test_lane_of_is_bitwise_np_floor_and_clip(d):
    expected = outcome(ref_lane_of, d)
    actual = outcome(TRACK.lane_of, d)
    assert actual == expected
    assert type(actual) is type(expected)


@settings(max_examples=300, deadline=None)
@given(angle=any_float)
@example(angle=-np.pi)
@example(angle=np.pi)
@example(angle=3 * np.pi)
@example(angle=-0.0)
@example(angle=float("nan"))
def test_scalar_wrap_angle_is_bitwise_np_mod(angle):
    assert_same_float(wrap_angle(angle), ref_wrap_angle(angle))
    assert_same_float(wrap_angle(np.float64(angle)), ref_wrap_angle(angle))


@settings(max_examples=300, deadline=None)
@given(
    value=any_float,
    bounds=st.tuples(finite, finite).map(sorted),
)
@example(value=-0.0, bounds=[0.0, 0.3])
@example(value=0.0, bounds=[-0.0, 0.3])
@example(value=float("nan"), bounds=[-1.0, 1.0])
def test_clip_scalar_is_bitwise_np_clip(value, bounds):
    """The helper every single-number clip site calls, for ordered bounds."""
    lo, hi = bounds
    assert_same_float(clip_scalar(value, lo, hi), np.clip(value, lo, hi))


@settings(max_examples=200, deadline=None)
@given(
    heading=st.floats(-1.2, 1.2),
    angular=st.one_of(st.floats(-0.5, 0.5), st.sampled_from([-0.5, 0.0, 0.5])),
)
@example(heading=MAX_HEADING_ERROR, angular=0.5)
@example(heading=-MAX_HEADING_ERROR, angular=-0.5)
@example(heading=float("nan"), angular=0.1)  # np.clip keeps the NaN
def test_apply_action_heading_clip_is_bitwise(heading, angular):
    vehicle = Vehicle(0, TRACK)
    vehicle.reset(s=3.0, lane_id=0, speed=0.1)
    vehicle.state.heading = heading
    dt = 0.5
    vehicle.apply_action(0.1, angular, dt)
    expected = float(
        np.clip(
            ref_wrap_angle(heading + angular * dt), -MAX_HEADING_ERROR, MAX_HEADING_ERROR
        )
    )
    assert_same_float(vehicle.state.heading, expected)


@settings(max_examples=200, deadline=None)
@given(d=st.floats(-0.49, 0.49), heading=st.floats(-1.0, 1.0))
def test_lane_keep_command_clip_is_bitwise(d, heading):
    vehicle = Vehicle(0, TRACK)
    vehicle.reset(s=3.0, lane_id=0)
    vehicle.state.d = d
    vehicle.state.heading = heading
    gain, max_angular = 0.8, 0.1
    angular = gain * (TRACK.lane_center(ref_lane_of(d)) - d) - 1.5 * gain * heading
    expected = float(np.clip(angular, -max_angular, max_angular))
    command = lane_keep_command(vehicle, 0.05, max_angular=max_angular, gain=gain)
    assert_same_float(command[1], expected)


@settings(max_examples=100, deadline=None)
@given(
    linear=st.floats(-1.0, 1.0),
    angular=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
@example(linear=0.10, angular=-0.12, seed=0)
@example(linear=0.20, angular=0.25, seed=0)
def test_lane_change_step_clips_are_bitwise(linear, angular, seed):
    """The action clips in LaneChangeEnv.step and the desired-heading clip
    of the merge-direction controller."""
    env = LaneChangeEnv(ScenarioConfig())
    env.reset(seed=seed)
    low, high = env.action_space.low, env.action_space.high
    expected_linear = float(np.clip(linear, low[0], high[0]))
    expected_mag = float(np.clip(abs(angular), abs(low[1]), high[1]))
    state = env.ego.state
    lateral_error = env.track.lane_center(env._target_lane) - state.d
    desired = float(np.clip(HEADING_GAIN * lateral_error, -HEADING_CAP, HEADING_CAP))
    heading_error = desired - state.heading
    sign = 0.0 if abs(heading_error) <= 1e-6 else float(np.sign(heading_error))
    env.step(np.array([linear, angular]))
    assert_same_float(env.ego.state.linear_speed, expected_linear)
    assert_same_float(env.ego.state.angular_speed, sign * expected_mag)


def ref_bounded_action(action, bounds):
    """One skill action's bound step written with scalar np.clip calls."""
    low, high = bounds.as_arrays()
    linear = float(np.clip(action[0], low[0], high[0]))
    if low[1] >= 0.0:
        sign = np.sign(action[1]) or 1.0
        angular = sign * float(np.clip(abs(action[1]), low[1], high[1]))
    else:
        angular = float(np.clip(action[1], low[1], high[1]))
    return np.array([linear, angular])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "option, bounds", [(SLOW_DOWN, SLOW_DOWN_BOUNDS), (LANE_CHANGE, LANE_CHANGE_BOUNDS)]
)
def test_skill_library_act_clips_are_bitwise(dtype, option, bounds):
    """The runner's stacked bound step (``_clip_bounds`` in float64, then
    stored in the skill's dtype) equals the scalar clip, bit for bit."""
    env = CooperativeLaneChangeEnv(scenario=ScenarioConfig(episode_length=5))
    runner = BatchedHeroRunner(HeroTeam(env, np.random.default_rng(0)), PoseStepper(env, 1))
    assert runner.option_set[option].bounds == bounds
    # Random actions plus every bound, its dtype neighbours and signed zeros
    # (a float32 action next to a float64 bound is where a comparison made
    # in the wrong precision would show).
    edges = [0.0, -0.0]
    for bound in (bounds.linear_low, bounds.linear_high, bounds.angular_low, bounds.angular_high):
        near = dtype(bound)
        edges += [bound, -bound, near, np.nextafter(near, dtype(-1)), np.nextafter(near, dtype(1))]
    edges = np.array(edges, dtype=dtype)
    rng = np.random.default_rng(1)
    raws = [rng.uniform(-0.4, 0.4, size=2).astype(dtype) for _ in range(200)]
    raws += [np.array([x, y], dtype=dtype) for x in edges for y in edges]
    stacked = np.array(raws, dtype=np.float64)[:, None, :]  # the runner's raw rows
    actual = runner._clip_bounds(stacked, np.full((len(raws), 1), option))[:, 0]
    for raw, row in zip(raws, actual.astype(dtype)):
        expected = ref_bounded_action(raw, bounds).astype(dtype)
        assert row.tobytes() == expected.tobytes()
