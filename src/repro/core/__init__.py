"""HERO: the paper's primary contribution.

Hierarchical reinforcement learning with high-level option selection,
opponent modeling, and low-level SAC skills.
"""

from .batched import BatchedHeroRunner
from .hero import HeroAgent, HeroTeam
from .high_level import HighLevelAgent
from .low_level import SACAgent, SkillLibrary, train_skill
from .opponent_model import OpponentModel
from .options import (
    ACCELERATE,
    KEEP_LANE,
    LANE_CHANGE,
    OPTION_NAMES,
    SLOW_DOWN,
    Option,
    OptionSet,
)
from .trainer import (
    BatchedRolloutWorker,
    evaluate_hero,
    evaluate_hero_vectorized,
    train_hero,
    train_low_level_skills,
)
from .update_engine import FamilyAdam, StackedMLP, UpdateEngine

__all__ = [
    "ACCELERATE",
    "BatchedHeroRunner",
    "BatchedRolloutWorker",
    "FamilyAdam",
    "HeroAgent",
    "HeroTeam",
    "HighLevelAgent",
    "KEEP_LANE",
    "LANE_CHANGE",
    "OPTION_NAMES",
    "OpponentModel",
    "Option",
    "OptionSet",
    "SACAgent",
    "SLOW_DOWN",
    "SkillLibrary",
    "StackedMLP",
    "UpdateEngine",
    "evaluate_hero",
    "evaluate_hero_vectorized",
    "train_hero",
    "train_low_level_skills",
    "train_skill",
]
