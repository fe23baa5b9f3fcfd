"""Training infrastructure: replay buffers and episode runners."""

from .replay import (
    JointReplayBuffer,
    ObservationHistoryBuffer,
    OptionReplayBuffer,
    OptionTransition,
    ReplayBuffer,
)

__all__ = [
    "JointReplayBuffer",
    "ObservationHistoryBuffer",
    "OptionReplayBuffer",
    "OptionTransition",
    "ReplayBuffer",
]
