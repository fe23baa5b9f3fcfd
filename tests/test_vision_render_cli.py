"""Tests for the vision pipeline, ASCII renderer, CLI and checkpoints."""

import numpy as np

from repro.cli import build_parser, main
from repro.config import ScenarioConfig
from repro.core.hero import HeroTeam
from repro.core.vision import VisionEncoder, VisionSACAgent, train_vision_skill
from repro.envs import CooperativeLaneChangeEnv, LaneKeepingEnv
from repro.envs.render import print_episode, render_episode_frames, render_scene


def tiny_scenario():
    return ScenarioConfig(episode_length=6, camera_size=8)


class TestVisionEncoder:
    def test_output_shape(self):
        encoder = VisionEncoder(2, 8, vector_dim=5, out_features=16,
                                rng=np.random.default_rng(0))
        out = encoder(np.zeros((3, 2, 8, 8)), np.zeros((3, 5)))
        assert out.shape == (3, 16)

    def test_gradients_reach_cnn(self):
        encoder = VisionEncoder(2, 8, 5, 16, np.random.default_rng(0))
        out = encoder(np.random.default_rng(1).uniform(size=(2, 2, 8, 8)),
                      np.zeros((2, 5)))
        out.sum().backward()
        conv_params = encoder.cnn.parameters()
        assert any(p.grad is not None and np.abs(p.grad).sum() > 0 for p in conv_params)


class TestVisionSAC:
    def make_agent(self, env):
        return VisionSACAgent(
            image_shape=(2, env.scenario.camera_size, env.scenario.camera_size),
            vector_dim=env.observation_space.dim,
            action_dim=2,
            rng=np.random.default_rng(0),
            action_low=env.action_space.low,
            action_high=env.action_space.high,
            batch_size=8,
            buffer_capacity=200,
        )

    def test_act_within_bounds(self):
        env = LaneKeepingEnv(scenario=tiny_scenario(), max_steps=3)
        agent = self.make_agent(env)
        vector = env.reset(seed=0)
        image = env.observe_image()
        action = agent.act(image, vector)
        assert env.action_space.contains(np.clip(action, env.action_space.low,
                                                 env.action_space.high))

    def test_update_needs_data(self):
        env = LaneKeepingEnv(scenario=tiny_scenario(), max_steps=3)
        agent = self.make_agent(env)
        assert agent.update() is None

    def test_training_loop_runs(self):
        env = LaneKeepingEnv(scenario=tiny_scenario(), max_steps=3)
        agent = self.make_agent(env)
        logger = train_vision_skill(env, agent, episodes=4, seed=0, warmup_steps=4)
        rewards = logger.values("vision_skill/episode_reward")
        assert len(rewards) == 4
        assert np.all(np.isfinite(rewards))

    def test_update_returns_finite_losses(self):
        env = LaneKeepingEnv(scenario=tiny_scenario(), max_steps=4)
        agent = self.make_agent(env)
        train_vision_skill(env, agent, episodes=3, seed=0, warmup_steps=2)
        losses = agent.update()
        assert losses is not None
        assert all(np.isfinite(v) for v in losses.values())


class TestRenderer:
    def test_render_scene_dimensions(self):
        env = CooperativeLaneChangeEnv(scenario=tiny_scenario())
        env.reset(seed=0)
        frame = render_scene(env, width=40)
        lines = frame.split("\n")
        assert len(lines) == 4  # border + 2 lanes + border
        assert all(len(line) == 42 for line in lines)

    def test_vehicles_appear(self):
        env = CooperativeLaneChangeEnv(scenario=tiny_scenario())
        env.reset(seed=0)
        frame = render_scene(env)
        assert "X" in frame  # scripted leader
        assert "0" in frame  # learning vehicle 0

    def test_crashed_vehicle_marker(self):
        env = CooperativeLaneChangeEnv(scenario=tiny_scenario())
        env.reset(seed=0)
        env.vehicle(env.agents[0]).crashed = True
        assert "*" in render_scene(env)

    def test_episode_frames(self):
        env = CooperativeLaneChangeEnv(scenario=tiny_scenario())

        def policy(observations):
            return {agent: np.array([0.05, 0.0]) for agent in env.agents}

        frames = render_episode_frames(env, policy, seed=0)
        assert len(frames) >= 3
        assert frames[-1].startswith("episode:")

    def test_print_episode(self, capsys):
        env = CooperativeLaneChangeEnv(scenario=tiny_scenario())

        def policy(observations):
            return {agent: np.array([0.05, 0.0]) for agent in env.agents}

        print_episode(env, policy, seed=0, every=2)
        out = capsys.readouterr().out
        assert "step 0" in out


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig8", "--scale", "0.002"])
        assert args.experiment == "fig8"
        assert args.scale == 0.002

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("fig7", "fig8", "fig10", "fig11", "table2"):
            assert exp_id in out

    def test_watch_command(self, capsys):
        assert main(["watch", "--seed", "1", "--every", "10"]) == 0
        assert "step 0" in capsys.readouterr().out

    def test_run_fig8_tiny(self, capsys):
        assert main(["run", "fig8", "--scale", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 8(a)" in out


class TestTeamCheckpoint:
    def test_save_load_roundtrip(self, tmp_path):
        env = CooperativeLaneChangeEnv(scenario=tiny_scenario())
        team1 = HeroTeam(env, np.random.default_rng(0), batch_size=8)
        env2 = CooperativeLaneChangeEnv(scenario=tiny_scenario())
        team2 = HeroTeam(env2, np.random.default_rng(42), batch_size=8)

        path = tmp_path / "team.npz"
        team1.save(path)
        team2.load(path)

        obs = np.ones((1, env.high_level_obs_dim))
        for agent_id in env.agents:
            h1, h2 = team1.agents[agent_id].high_level, team2.agents[agent_id].high_level
            np.testing.assert_array_equal(
                h1.actor.logits_inference(np.hstack([obs, h1._opponent_rep_batch(obs)])),
                h2.actor.logits_inference(np.hstack([obs, h2._opponent_rep_batch(obs)])),
            )
        skill_obs = np.ones(team1.skills.obs_dim)
        np.testing.assert_allclose(
            team1.skills.lane_change.act(skill_obs, deterministic=True),
            team2.skills.lane_change.act(skill_obs, deterministic=True),
        )
