"""Distributed runtime: simulated vehicle network + async actor–learner stack.

Two layers share this package.  The *simulated* layer
(:class:`DistributedObservationService`) models the paper's lossy,
delayed vehicle-to-vehicle network that distributed execution must
tolerate: a stacked per-(env, receiver, sender) option table that the
batched HERO runner exchanges into every step, at any ``num_envs``.  The
*real* layer is the async actor–learner training stack: N rollout actors
in separate processes each push experience through their own
shared-memory :class:`ShmRingQueue` — merged learner-side by
:class:`ActorFanIn` — and pull versioned policy snapshots from the
:class:`ParameterServer`, while the learner updates continuously
(:func:`train_hero_async`, :func:`train_marl_async`).
"""

from .actor_learner import train_hero_async, train_marl_async
from .bus import DistributedObservationService
from .parameter_server import ParameterServer
from .protocol import (
    ActorError,
    RolloutPayload,
    decode_rng_state,
    encode_rng_state,
    load_rng_state,
)
from .queues import ActorFanIn, QueueClosed, ShmRingQueue

__all__ = [
    "ActorError",
    "ActorFanIn",
    "DistributedObservationService",
    "ParameterServer",
    "QueueClosed",
    "RolloutPayload",
    "ShmRingQueue",
    "decode_rng_state",
    "encode_rng_state",
    "load_rng_state",
    "train_hero_async",
    "train_marl_async",
]
