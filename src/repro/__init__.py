"""HERO reproduction: Hierarchical RL with Opponent Modeling (ICDCS 2022).

This package root is the **stable public surface**: everything in
``__all__`` below is supported for direct import (``from repro import
train_hero, save_checkpoint, PolicyServer``).  The deep module paths the
examples used before PR 7 (``repro.core.train_hero``,
``repro.serving.checkpoint.load_policy``, …) keep working as a
compatibility shim, but new code should import from ``repro`` — only the
names re-exported here are covered by the deprecation policy.

Public API layers:

* :mod:`repro.nn` — numpy autodiff + neural networks (framework substrate)
* :mod:`repro.envs` — multi-vehicle driving simulator (Gazebo substitute)
* :mod:`repro.core` — HERO: options, SAC skills, opponent modeling, trainers
* :mod:`repro.baselines` — IDQN / COMA / MADDPG / MAAC and their one
  training loop (``train_marl_vectorized``, at any ``num_envs``)
* :mod:`repro.distributed` — message bus, actor-learner stack, param server
* :mod:`repro.serving` — versioned checkpoints + batched inference service
* :mod:`repro.experiments` — one harness per paper table/figure

Quickstart (train, checkpoint, serve)::

    import numpy as np
    from repro import (
        TrainingConfig, train_low_level_skills, train_hero,
        save_checkpoint, load_policy, PolicyServer,
    )
    from repro.envs import CooperativeLaneChangeEnv

    config = TrainingConfig(seed=0)
    skills, _ = train_low_level_skills(config, episodes=100)
    env = CooperativeLaneChangeEnv()
    team = HeroTeam(env, np.random.default_rng(0), skills=skills)
    train_hero(env, team, episodes=500, config=config,
               checkpoint_path="team.npz")
    server = PolicyServer(load_policy("team.npz"), num_slots=4)
"""

from .baselines import (
    evaluate_marl,
    evaluate_marl_vectorized,
    make_baseline,
    train_marl_vectorized,
)
from .config import (
    PaperHyperparameters,
    RewardConfig,
    ScenarioConfig,
    TestbedConfig,
    TrainingConfig,
)
from .core import (
    HeroTeam,
    evaluate_hero,
    evaluate_hero_vectorized,
    train_hero,
    train_low_level_skills,
)
from .serving import (
    Checkpoint,
    CheckpointError,
    LoadedPolicy,
    MicroBatcher,
    ObservationRequest,
    PolicyClient,
    PolicyServer,
    load_checkpoint,
    load_policy,
    save_checkpoint,
)

__version__ = "1.1.0"

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "HeroTeam",
    "LoadedPolicy",
    "MicroBatcher",
    "ObservationRequest",
    "PaperHyperparameters",
    "PolicyClient",
    "PolicyServer",
    "RewardConfig",
    "ScenarioConfig",
    "TestbedConfig",
    "TrainingConfig",
    "__version__",
    "evaluate_hero",
    "evaluate_hero_vectorized",
    "evaluate_marl",
    "evaluate_marl_vectorized",
    "load_checkpoint",
    "load_policy",
    "make_baseline",
    "save_checkpoint",
    "train_hero",
    "train_low_level_skills",
    "train_marl_vectorized",
]
