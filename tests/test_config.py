"""Table I hyperparameters and configuration invariants."""

import numpy as np
import pytest

from repro.config import (
    ACCELERATE_BOUNDS,
    LANE_CHANGE_BOUNDS,
    PaperHyperparameters,
    RewardConfig,
    ScenarioConfig,
    SLOW_DOWN_BOUNDS,
    TrainingConfig,
)


class TestTableI:
    """Assert the values of Table I verbatim."""

    def test_training_episodes(self):
        assert PaperHyperparameters().training_episodes == 14_000

    def test_episode_length(self):
        assert PaperHyperparameters().episode_length == 30

    def test_buffer_capacity(self):
        assert PaperHyperparameters().buffer_capacity == 100_000

    def test_batch_size(self):
        assert PaperHyperparameters().batch_size == 1024

    def test_learning_rate(self):
        assert PaperHyperparameters().learning_rate == 0.01

    def test_discount_factor(self):
        assert PaperHyperparameters().discount_factor == 0.95

    def test_hidden_dim(self):
        assert PaperHyperparameters().hidden_dim == 32

    def test_target_update_rate(self):
        assert PaperHyperparameters().target_update_rate == 0.01


class TestScaled:
    def test_scaled_keeps_other_fields(self):
        scaled = PaperHyperparameters().scaled(0.01)
        assert scaled.training_episodes == 140
        assert scaled.batch_size == 1024
        assert scaled.discount_factor == 0.95

    def test_scaled_bounds(self):
        with pytest.raises(ValueError):
            PaperHyperparameters().scaled(0.0)
        with pytest.raises(ValueError):
            PaperHyperparameters().scaled(1.5)

    def test_scaled_minimum_one_episode(self):
        assert PaperHyperparameters().scaled(1e-9).training_episodes >= 1


class TestActionBounds:
    """Sec. IV-C per-skill speed ranges, verbatim."""

    def test_slow_down(self):
        low, high = SLOW_DOWN_BOUNDS.as_arrays()
        np.testing.assert_allclose(low, [0.04, -0.1])
        np.testing.assert_allclose(high, [0.08, 0.1])

    def test_accelerate(self):
        low, high = ACCELERATE_BOUNDS.as_arrays()
        np.testing.assert_allclose(low, [0.08, -0.1])
        np.testing.assert_allclose(high, [0.14, 0.1])

    def test_lane_change(self):
        low, high = LANE_CHANGE_BOUNDS.as_arrays()
        np.testing.assert_allclose(low, [0.10, 0.12])
        np.testing.assert_allclose(high, [0.20, 0.25])


class TestRewardConfig:
    def test_paper_penalties(self):
        rewards = RewardConfig()
        assert rewards.collision_penalty == -20.0
        assert rewards.lane_change_success_reward == 20.0
        assert rewards.lane_change_fail_penalty == -20.0

    def test_weights_in_unit_interval(self):
        rewards = RewardConfig()
        assert 0.0 <= rewards.alpha <= 1.0
        assert 0.0 <= rewards.beta <= 1.0


class TestScenarioConfig:
    def test_vehicle_counts(self):
        scenario = ScenarioConfig()
        assert scenario.num_learning_vehicles == 3
        assert scenario.num_scripted_vehicles == 1
        assert scenario.num_vehicles == 4  # the paper's four-vehicle setup

    def test_two_lane_track(self):
        assert ScenarioConfig().num_lanes == 2

    def test_frozen(self):
        with pytest.raises(Exception):
            ScenarioConfig().num_lanes = 3

    @pytest.mark.parametrize(
        "field, value",
        [("observation_mode", "features"), ("camera_size", 16), ("camera_range", 2.0)],
    )
    def test_camera_fields_are_retired(self, field, value):
        """Observations are lidar features only; the camera's fields are
        gone (checkpoints that record them drop them on load)."""
        with pytest.raises(TypeError):
            ScenarioConfig(**{field: value})
        assert not hasattr(ScenarioConfig(), field)


class TestTrainingConfig:
    def test_defaults_derive_from_table1(self):
        config = TrainingConfig()
        assert config.hyper.training_episodes == 14_000
        assert config.hyper.hidden_dim == 32

    def test_mutable_for_annealing(self):
        config = TrainingConfig()
        config.epsilon_start = 0.4
        assert config.epsilon_start == 0.4

    def test_fused_updates_accepts_only_true(self):
        """The keyword survives for compatibility; every update runs on
        the fused engines, so False names the removed path and raises."""
        from repro.experiments.common import train_all_methods

        TrainingConfig(fused_updates=True)
        with pytest.raises(ValueError, match="per-network update path"):
            TrainingConfig(fused_updates=False)
        with pytest.raises(ValueError, match="per-network update path"):
            train_all_methods(scale=0.001, methods=["idqn"], fused_updates=False)
