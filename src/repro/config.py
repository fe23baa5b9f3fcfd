"""Experiment configuration dataclasses.

:class:`PaperHyperparameters` encodes Table I of the paper verbatim; every
experiment config derives from it. Scenario-level knobs (track size, number
of vehicles, option set) live in :class:`ScenarioConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class PaperHyperparameters:
    """Training hyperparameters from Table I of the paper."""

    training_episodes: int = 14_000
    episode_length: int = 30
    buffer_capacity: int = 100_000
    batch_size: int = 1024
    learning_rate: float = 0.01
    discount_factor: float = 0.95
    hidden_dim: int = 32
    target_update_rate: float = 0.01

    def scaled(self, fraction: float) -> "PaperHyperparameters":
        """Return a copy with the episode budget scaled down.

        Benchmarks cannot afford 14k episodes; the ``scale`` knob keeps the
        other hyperparameters fixed so learning dynamics stay comparable.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        episodes = max(1, int(round(self.training_episodes * fraction)))
        return replace(self, training_episodes=episodes)


@dataclass(frozen=True)
class RewardConfig:
    """Reward shaping constants from Sec. IV-B / IV-C."""

    collision_penalty: float = -20.0
    lane_change_success_reward: float = 20.0
    lane_change_fail_penalty: float = -20.0
    # alpha weighs collision avoidance vs forward progress in the team reward.
    alpha: float = 0.5
    # beta weighs lane deviation vs travel distance in the intrinsic reward.
    beta: float = 0.5
    travel_reward_scale: float = 10.0


@dataclass(frozen=True)
class OptionBounds:
    """Per-option action bounds from Sec. IV-C (linear / angular speed)."""

    linear_low: float
    linear_high: float
    angular_low: float
    angular_high: float

    def as_arrays(self):
        import numpy as np

        low = np.array([self.linear_low, self.angular_low])
        high = np.array([self.linear_high, self.angular_high])
        return low, high


# The paper's Sec. IV-C table of per-skill action ranges.
SLOW_DOWN_BOUNDS = OptionBounds(0.04, 0.08, -0.1, 0.1)
ACCELERATE_BOUNDS = OptionBounds(0.08, 0.14, -0.1, 0.1)
LANE_CHANGE_BOUNDS = OptionBounds(0.10, 0.20, 0.12, 0.25)


@dataclass(frozen=True)
class ScenarioConfig:
    """Cooperative lane-change scenario parameters (Sec. V-B, Fig. 9/12)."""

    num_learning_vehicles: int = 3
    num_scripted_vehicles: int = 1
    track_length: float = 20.0
    lane_width: float = 0.5
    num_lanes: int = 2
    vehicle_radius: float = 0.12
    dt: float = 0.5
    lidar_beams: int = 16
    lidar_range: float = 3.0
    camera_size: int = 16
    camera_range: float = 2.0
    episode_length: int = 30
    scripted_speed: float = 0.02
    initial_speed: float = 0.08
    max_option_steps: int = 6
    observation_mode: str = "features"  # "features" | "image"

    @property
    def num_vehicles(self) -> int:
        return self.num_learning_vehicles + self.num_scripted_vehicles


@dataclass(frozen=True)
class TestbedConfig:
    """Domain-shift bundle standing in for the physical testbed (Sec. V-E).

    Each field perturbs one unmodelled-dynamics axis; see DESIGN.md §2 for
    the substitution argument.
    """

    sensor_noise_std: float = 0.03
    action_delay_steps: int = 1
    speed_scale_range: tuple[float, float] = (0.85, 1.05)
    heading_drift_std: float = 0.02
    initial_position_jitter: float = 0.6
    evaluation_episodes: int = 20


@dataclass
class TrainingConfig:
    """Bundle handed to training loops; mutable because trainers anneal it."""

    hyper: PaperHyperparameters = field(default_factory=PaperHyperparameters)
    rewards: RewardConfig = field(default_factory=RewardConfig)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    seed: int = 0
    # Number of environment copies the rollout phase steps in parallel on
    # one envs.vector_env.VectorEnv with batched policy inference (1 is a
    # one-env batch).
    num_envs: int = 1
    # Route gradient updates through core.update_engine.UpdateEngine, which
    # batches architecturally identical networks into one fused
    # forward/backward per family.  Numerically equivalent to the default
    # per-network loop within float tolerance (not bitwise — see
    # docs/ARCHITECTURE.md, "Update phase").
    fused_updates: bool = False
    # Run rollouts in a separate actor process (distributed.actor_learner):
    # the actor steps the vectorized env batch and pulls versioned policy
    # snapshots from a shared-memory parameter server while the learner
    # updates continuously.
    async_actors: bool = False
    # Snapshot-staleness budget for async_actors, in collection rounds.
    # 0 = lockstep barrier — bitwise identical to the synchronous loop;
    # k > 0 lets the actor run up to k rounds ahead of the newest snapshot
    # (rollout and update genuinely overlap; staleness is logged per round).
    max_staleness: int = 0
    # Number of rollout actor processes for async_actors (the fan-out).
    # Lockstep (max_staleness == 0) runs exactly one; with max_staleness > 0
    # each actor steps its own env batch on forked RNG streams and
    # collection throughput scales with the actor count.
    num_actors: int = 1
    # Floating-point compute dtype for the whole stack ("float64" |
    # "float32").  float64 is the default and bitwise-identical to the
    # original implementation; float32 roughly doubles the BLAS-bound
    # update phase and halves every payload (snapshots, rings, shm env
    # state, checkpoints) under the tolerance contract documented in
    # docs/ARCHITECTURE.md ("Precision").  Applied process-globally via
    # repro.nn.set_default_dtype before networks are built.
    dtype: str = "float64"
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_episodes: int = 2_000
    updates_per_episode: int = 1
    warmup_transitions: int = 64
    entropy_coef: float = 0.01
    opponent_entropy_coef: float = 0.01  # lambda in the opponent-model loss
    sac_alpha: float = 0.2
    grad_clip: float = 10.0
