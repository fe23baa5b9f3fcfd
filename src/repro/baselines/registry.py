"""Baseline factory used by experiments and benchmarks."""

from __future__ import annotations

import numpy as np

from ..envs.wrappers import DiscreteActionWrapper, VectorBaselineEnv
from .base import MARLAlgorithm
from .coma import COMA
from .idqn import IndependentDQN
from .maac import MAAC
from .maddpg import MADDPG

BASELINES = {
    "idqn": IndependentDQN,
    "coma": COMA,
    "maddpg": MADDPG,
    "maac": MAAC,
}


def make_baseline(
    name: str,
    env: DiscreteActionWrapper | VectorBaselineEnv,
    seed: int = 0,
    **kwargs,
) -> MARLAlgorithm:
    """Instantiate a baseline sized for the given discrete env stack.

    Accepts either the scalar stack (:func:`~repro.envs.make_baseline_env`)
    or its vectorized counterpart; both have the same observation and
    action sizes, and the algorithm acts on either through
    :meth:`~repro.baselines.base.MARLAlgorithm.act_batch` (the scalar
    stack one ``(1, agents, obs_dim)`` row at a time, in
    :func:`~repro.baselines.base.evaluate_marl`).
    """
    if name not in BASELINES:
        raise ValueError(f"unknown baseline {name!r}; options: {sorted(BASELINES)}")
    obs_dim = getattr(env, "obs_dim", None)
    if obs_dim is None:
        obs_dim = env.env.obs_dim  # DiscreteActionWrapper wraps the flatten wrapper
    return BASELINES[name](
        agent_ids=list(env.agents),
        obs_dim=obs_dim,
        num_actions=env.num_actions,
        rng=np.random.default_rng(seed),
        **kwargs,
    )
