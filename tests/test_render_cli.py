"""Tests for the ASCII renderer, the CLI and team checkpoints."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.config import ScenarioConfig
from repro.core.hero import HeroTeam
from repro.envs import CooperativeLaneChangeEnv
from repro.envs.render import print_episode, render_episode_frames, render_scene


def tiny_scenario():
    return ScenarioConfig(episode_length=6)


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

    def test_run_and_run_all_share_every_training_flag(self):
        """Both commands parse every shared flag, and its default, to the
        same value and hand ``run_experiment`` the same keywords;
        ``--checkpoint-dir`` is ``run``-only."""
        from repro.cli import _training_kwargs

        parser = build_parser()
        flags = [
            "--scale", "0.003", "--seed", "4", "--num-envs", "3",
            "--async-actors", "--max-staleness", "2",
            "--num-actors", "2", "--dtype", "float32",
        ]
        run = _training_kwargs(parser.parse_args(["run", "fig7", *flags]))
        run_all = _training_kwargs(parser.parse_args(["run-all", *flags]))
        assert run == run_all == {
            "scale": 0.003, "seed": 4, "num_envs": 3,
            "async_actors": True, "max_staleness": 2, "num_actors": 2,
            "dtype": "float32",
        }
        run = _training_kwargs(parser.parse_args(["run", "fig7"]))
        run_all = _training_kwargs(parser.parse_args(["run-all"]))
        assert run == run_all == {
            "scale": 0.01, "seed": 0, "num_envs": 1,
            "async_actors": False, "max_staleness": 0, "num_actors": 1,
            "dtype": "float64",
        }
        with pytest.raises(SystemExit):
            parser.parse_args(["run-all", "--checkpoint-dir", "ckpt"])
        with pytest.raises(SystemExit):  # the one update path has no switch
            parser.parse_args(["run", "fig7", "--fused-updates"])

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
            # Mode 'model': the opponent input is the predicted options.
            logits = [
                h.actor.logits_inference(
                    np.hstack([obs, h.opponent_model.predict_probs_batch(obs).reshape(1, -1)])
                )
                for h in (h1, h2)
            ]
            np.testing.assert_array_equal(*logits)
        skill_obs = np.ones(team1.skills.obs_dim)
        np.testing.assert_allclose(
            team1.skills.lane_change.act(skill_obs, deterministic=True),
            team2.skills.lane_change.act(skill_obs, deterministic=True),
        )
