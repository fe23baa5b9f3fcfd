"""Tests for the experiment harnesses (registry, reporting, tiny runs)."""

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    curve_summary,
    episodes_from_scale,
    print_learning_curves,
    print_metric_table,
    shape_check,
    train_all_methods,
)
from repro.experiments.common import bench_scenario
from repro.experiments.fig11 import run_fig11
from repro.experiments.registry import run_experiment
from repro.experiments.table2 import run_table2
from repro.nn.tensor import default_dtype


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        assert set(EXPERIMENTS) == {"fig7", "fig8", "fig10", "fig11", "table2"}

    def test_entries_have_run_and_report(self):
        for experiment in EXPERIMENTS.values():
            assert callable(experiment.run)
            assert callable(experiment.report)
            assert experiment.title and experiment.workload

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestReporting:
    def test_curve_summary_fields(self):
        summary = curve_summary(np.arange(30, dtype=float))
        assert set(summary) == {"early", "mid", "late", "tail", "final"}
        assert summary["late"] > summary["early"]

    def test_curve_summary_empty(self):
        summary = curve_summary(np.array([]))
        assert all(np.isnan(v) for v in summary.values())

    def test_print_learning_curves_sorted(self, capsys):
        print_learning_curves(
            "panel", {"a": np.array([1.0, 1.0]), "b": np.array([2.0, 2.0])}
        )
        out = capsys.readouterr().out
        assert out.index("b ") < out.index("a ")  # higher late value first

    def test_print_metric_table(self, capsys):
        print_metric_table("t", {"m": {"x": 1.0}}, columns=["x"])
        assert "1.0000" in capsys.readouterr().out

    def test_shape_check_status(self, capsys):
        _, ok = shape_check("desc", True)
        assert ok
        assert "[OK ]" in capsys.readouterr().out
        _, ok = shape_check("desc", False, "why")
        assert not ok
        assert "MISS" in capsys.readouterr().out


class TestCommon:
    def test_episodes_from_scale(self):
        assert episodes_from_scale(1.0) == 14_000
        assert episodes_from_scale(0.01) == 140
        assert episodes_from_scale(1e-9) == 10  # floor

    def test_bench_scenario_matches_table1_length(self):
        assert bench_scenario().episode_length == 30

    def test_train_all_methods_tiny(self):
        """End-to-end smoke: two methods at micro scale."""
        result = train_all_methods(
            scale=0.001, seed=0, methods=["hero", "idqn"], skill_scale=0.001
        )
        assert set(result.methods) == {"hero", "idqn"}
        for name in result.methods:
            rewards = result.series(name, "eval_episode_reward")
            assert len(rewards) > 0
            assert np.all(np.isfinite(rewards))

    def test_series_missing_method_raises(self):
        result = train_all_methods(
            scale=0.001, seed=0, methods=["idqn"], skill_scale=0.001
        )
        with pytest.raises(KeyError):
            result.series("hero", "episode_reward")


class TestMethodsSideBySide:
    """``train_all_methods`` trains, and ``run_table2``/``run_fig11`` score,
    the methods in worker processes; everything is bitwise the in-process
    result that a one-CPU affinity forces."""

    @staticmethod
    def _sweep(monkeypatch, cpus: int, methods=None, **options):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        result = train_all_methods(
            scale=0.0005, seed=5, methods=methods, skill_scale=0.0, num_envs=2,
            **options,
        )
        rows = run_table2(result=result, seed=5, eval_episodes=3)["rows"]
        fig11 = run_fig11(result=result, seed=5, eval_episodes=3)
        assert mp.active_children() == []
        return result, rows, fig11

    @staticmethod
    def _assert_bitwise(side_by_side, in_process) -> None:
        (result, rows, fig11), (ref, ref_rows, ref_fig11) = side_by_side, in_process
        assert list(result.methods) == list(ref.methods)
        for name, trained in result.methods.items():
            logger, ref_logger = trained.logger, ref.methods[name].logger
            assert logger.names() == ref_logger.names(), name
            for series in ref_logger.names():
                np.testing.assert_array_equal(
                    logger.steps(series), ref_logger.steps(series), err_msg=series
                )
                np.testing.assert_array_equal(
                    logger.values(series), ref_logger.values(series), err_msg=series
                )
            state = trained.controller.state_dict()
            ref_state = ref.methods[name].controller.state_dict()
            assert list(state) == list(ref_state), name
            for key, value in ref_state.items():
                assert state[key].dtype == value.dtype, key
                np.testing.assert_array_equal(state[key], value, err_msg=f"{name} {key}")
        assert rows == ref_rows
        assert fig11["mean_speed"] == ref_fig11["mean_speed"]
        assert fig11["collision_rate"] == ref_fig11["collision_rate"]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_five_methods_bitwise(self, monkeypatch, dtype):
        with default_dtype(dtype):
            side_by_side = self._sweep(monkeypatch, 2)
            in_process = self._sweep(monkeypatch, 1)
        assert list(side_by_side[0].methods) == ["hero", "idqn", "coma", "maddpg", "maac"]
        self._assert_bitwise(side_by_side, in_process)

    def test_lockstep_actors_start_inside_a_method_worker(self, monkeypatch):
        """IDQN trains in the (non-daemonic) worker, which starts its own
        lockstep actor; lockstep stays bitwise."""
        options = {"async_actors": True, "max_staleness": 0}
        side_by_side = self._sweep(monkeypatch, 2, ["hero", "idqn"], **options)
        in_process = self._sweep(monkeypatch, 1, ["hero", "idqn"], **options)
        self._assert_bitwise(side_by_side, in_process)


class TestFig7Verdicts:
    @staticmethod
    def _verdict(panel: str, tails: dict[str, float], phrase: str) -> bool:
        """Run report_fig7 on flat curves whose ``panel`` tails are ``tails``
        (every other panel all zeros) and return the verdict naming ``phrase``."""
        from repro.experiments.fig7 import PANELS, report_fig7

        panels = {name: {m: np.zeros(20) for m in tails} for name in PANELS}
        panels[panel] = {m: np.full(20, value) for m, value in tails.items()}
        checks = dict(report_fig7({"panels": panels}))
        (line,) = [line for line in checks if phrase in line]
        return checks[line]

    def _merge_verdict(self, hero: float, idqn: float) -> bool:
        return self._verdict(
            "c_merge_success_rate", {"hero": hero, "idqn": idqn}, "merges far more"
        )

    def test_merge_verdict_misses_when_hero_never_merges(self, capsys):
        assert not self._merge_verdict(hero=0.0, idqn=0.0)
        assert "[MISS] HERO merges far more reliably" in capsys.readouterr().out

    def test_merge_verdict_passes_on_a_clear_margin(self):
        assert self._merge_verdict(hero=0.5, idqn=0.1)

    ORDERING_VERDICTS = {
        "reward": ("a_mean_episode_reward", "HERO reaches the highest converged"),
        "hero_collision": ("b_collision_rate", "HERO is among the lowest converged"),
        "maddpg_collision": ("b_collision_rate", "MADDPG keeps a comparatively high"),
    }

    @pytest.mark.parametrize("verdict", sorted(ORDERING_VERDICTS))
    def test_ordering_verdict_misses_on_all_equal_tails(self, verdict, capsys):
        """Every method's tail at 1.00 (seen at --scale 0.003 --seed 7)
        separates nothing, so no ordering claim may pass on it."""
        panel, phrase = self.ORDERING_VERDICTS[verdict]
        tails = {"hero": 1.0, "idqn": 1.0, "maddpg": 1.0, "maac": 1.0}
        assert not self._verdict(panel, tails, phrase)
        assert f"[MISS] {phrase}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "verdict, tails",
        [
            ("reward", {"hero": 6.0, "idqn": 2.0, "maddpg": 1.0, "maac": 3.0}),
            ("hero_collision", {"hero": 0.1, "idqn": 0.6, "maddpg": 0.9, "maac": 0.5}),
            ("maddpg_collision", {"hero": 0.1, "idqn": 0.6, "maddpg": 0.9, "maac": 0.5}),
        ],
    )
    def test_ordering_verdict_passes_on_a_clear_margin(self, verdict, tails):
        panel, phrase = self.ORDERING_VERDICTS[verdict]
        assert self._verdict(panel, tails, phrase)


class TestTable2Verdicts:
    VERDICTS = {
        "collision": "HERO has the lowest testbed collision rate",
        "success": "HERO has the highest testbed success rate",
        "idqn_shift": "Independent DQN degrades under domain shift",
    }

    @staticmethod
    def _verdict(rows: dict[str, dict[str, float]], phrase: str) -> bool:
        """Run report_table2 on synthetic ``rows`` and return the verdict
        naming ``phrase``."""
        from repro.experiments.table2 import PAPER_ROWS, report_table2

        checks = dict(report_table2({"rows": rows, "paper": PAPER_ROWS}))
        (line,) = [line for line in checks if phrase in line]
        return checks[line]

    @pytest.mark.parametrize("verdict", sorted(VERDICTS))
    def test_verdict_misses_on_all_equal_rows(self, verdict, capsys):
        """Every method at collision 1.0 and success 0.0 separates
        nothing, so no Table 2 verdict may pass on it."""
        row = {"collision_rate": 1.0, "success_rate": 0.0, "mean_speed": 0.1}
        rows = {m: dict(row) for m in ("hero", "idqn", "coma", "maddpg", "maac")}
        phrase = self.VERDICTS[verdict]
        assert not self._verdict(rows, phrase)
        assert f"[MISS] {phrase}" in capsys.readouterr().out

    @pytest.mark.parametrize("verdict", sorted(VERDICTS))
    def test_verdict_passes_on_a_clear_margin(self, verdict):
        rows = {
            "hero": {"collision_rate": 0.1, "success_rate": 0.8, "mean_speed": 0.1},
            "idqn": {"collision_rate": 0.6, "success_rate": 0.2, "mean_speed": 0.1},
            "maddpg": {"collision_rate": 0.9, "success_rate": 0.1, "mean_speed": 0.1},
        }
        assert self._verdict(rows, self.VERDICTS[verdict])


class TestFig11Verdicts:
    VERDICTS = {
        "hero": "HERO reaches the highest mean speed",
        "maac": "MAAC is the slowest converged policy",
    }
    METHODS = ("hero", "idqn", "coma", "maddpg", "maac")

    @staticmethod
    def _verdict(speeds: dict[str, float], phrase: str) -> bool:
        """Run report_fig11 on synthetic speeds (no method crashes) and
        return the verdict naming ``phrase``."""
        from repro.experiments.fig11 import report_fig11

        collisions = {name: 0.0 for name in speeds}
        checks = dict(report_fig11({"mean_speed": speeds, "collision_rate": collisions}))
        (line,) = [line for line in checks if phrase in line]
        return checks[line]

    @pytest.mark.parametrize("verdict", sorted(VERDICTS))
    def test_verdict_misses_on_all_equal_speeds(self, verdict, capsys):
        """Five methods at speed 0.100 separate nothing, so neither speed
        ordering may pass on them."""
        speeds = {name: 0.1 for name in self.METHODS}
        phrase = self.VERDICTS[verdict]
        assert not self._verdict(speeds, phrase)
        assert f"[MISS] {phrase}" in capsys.readouterr().out

    @pytest.mark.parametrize("verdict", sorted(VERDICTS))
    def test_verdict_passes_on_a_clear_margin(self, verdict):
        speeds = dict(zip(self.METHODS, (0.08, 0.06, 0.065, 0.07, 0.048)))
        assert self._verdict(speeds, self.VERDICTS[verdict])


class TestFig8Tiny:
    def test_run_and_report(self):
        from repro.experiments.fig8 import report_fig8, run_fig8

        outputs = run_fig8(scale=0.002, seed=0)
        assert len(outputs["a_lane_keeping"]) == episodes_from_scale(0.002)
        checks = report_fig8(outputs)
        assert len(checks) >= 2


class TestFig10Tiny:
    def test_run_collects_nll_curves(self):
        from repro.experiments.fig10 import run_fig10

        result = train_all_methods(
            scale=0.003, seed=0, methods=["hero"], skill_scale=0.002
        )
        outputs = run_fig10(result=result)
        assert len(outputs["curves"]) == 2  # two modeled opponents
        for values in outputs["curves"].values():
            assert np.all(np.isfinite(values))


class TestTable2Tiny:
    def test_rows_cover_methods(self):
        from repro.experiments.table2 import PAPER_ROWS, run_table2

        result = train_all_methods(
            scale=0.001, seed=0, methods=["hero", "idqn"], skill_scale=0.001
        )
        outputs = run_table2(result=result, eval_episodes=2)
        assert set(outputs["rows"]) == {"hero", "idqn"}
        assert set(PAPER_ROWS) == {"hero", "idqn", "coma", "maddpg", "maac"}
        for metrics in outputs["rows"].values():
            assert 0.0 <= metrics["collision_rate"] <= 1.0
