"""End-to-end MARL baselines from the paper's evaluation (Sec. V-A).

IDQN, COMA, MADDPG and MAAC share one interface, :class:`MARLAlgorithm`'s
``act_batch``/``observe_batch``/``update``, and one training loop,
:func:`train_marl_vectorized`, at every batch size (``--num-envs 1``
included): a :class:`BaselineRolloutWorker` collects rounds on a
``VectorBaselineEnv`` and a :class:`BaselineConsumer` observes, updates,
logs and evaluates them, in-process or behind the async IDQN actors.
:func:`evaluate_marl` (one scalar env, as the Table 2 testbed steps, one
``act_batch`` row per step) and :func:`evaluate_marl_vectorized` evaluate
them greedily.
"""

from .base import (
    BaselineConsumer,
    BaselineRolloutWorker,
    MARLAlgorithm,
    evaluate_marl,
    evaluate_marl_vectorized,
    train_marl_vectorized,
)
from .coma import COMA
from .idqn import IndependentDQN
from .maac import MAAC, AttentionCritic
from .maddpg import MADDPG
from .registry import BASELINES, make_baseline

__all__ = [
    "AttentionCritic",
    "BASELINES",
    "BaselineConsumer",
    "BaselineRolloutWorker",
    "COMA",
    "IndependentDQN",
    "MAAC",
    "MADDPG",
    "MARLAlgorithm",
    "evaluate_marl",
    "evaluate_marl_vectorized",
    "make_baseline",
    "train_marl_vectorized",
]
