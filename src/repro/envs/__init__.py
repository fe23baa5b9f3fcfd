"""Driving simulator substrate (Gazebo substitute; docs/REPRODUCING.md, "Substitutions")."""

from .base import MultiAgentEnv, SingleAgentEnv
from .control import lane_change_command, lane_change_steer_sign, lane_keep_command
from .geometry import RingTrack, StraightTrack, Track, make_track
from .lane_change_env import CooperativeLaneChangeEnv
from .render import print_episode, render_episode_frames, render_scene
from .sensors import Lidar, feature_dim, feature_vector
from .skill_envs import LaneChangeEnv, LaneKeepingEnv, low_level_obs_dim
from .spaces import Box, DictSpace, Discrete, Space
from .stepping import VectorStepper
from .testbed import RealWorldTestbed
from .traffic import (
    LaneKeepingCruiser,
    ScriptedPolicy,
    SlowLeader,
    StationaryObstacle,
)
from .vector_env import EnvReplicaFactory, VectorEnv
from .vehicle import Vehicle, VehicleState
from .wrappers import (
    DiscreteActionWrapper,
    FlattenObservationWrapper,
    VectorBaselineEnv,
    make_baseline_env,
    make_baseline_vector_env,
)

__all__ = [
    "Box",
    "CooperativeLaneChangeEnv",
    "DictSpace",
    "Discrete",
    "DiscreteActionWrapper",
    "EnvReplicaFactory",
    "FlattenObservationWrapper",
    "LaneChangeEnv",
    "LaneKeepingCruiser",
    "LaneKeepingEnv",
    "Lidar",
    "MultiAgentEnv",
    "RealWorldTestbed",
    "RingTrack",
    "ScriptedPolicy",
    "SingleAgentEnv",
    "SlowLeader",
    "Space",
    "StationaryObstacle",
    "StraightTrack",
    "Track",
    "VectorBaselineEnv",
    "VectorEnv",
    "VectorStepper",
    "Vehicle",
    "VehicleState",
    "feature_dim",
    "lane_change_command",
    "lane_change_steer_sign",
    "lane_keep_command",
    "feature_vector",
    "low_level_obs_dim",
    "make_baseline_env",
    "make_baseline_vector_env",
    "make_track",
    "print_episode",
    "render_episode_frames",
    "render_scene",
]
