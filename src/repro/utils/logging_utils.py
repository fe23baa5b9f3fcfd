"""Lightweight metric logging for training loops.

Experiments record scalar series into a :class:`MetricLogger`; the
benchmark harness then prints paper-style rows from these series without
any plotting dependency.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np


def summarise_eval_episodes(
    rewards, collisions, successes, speeds
) -> dict[str, float]:
    """Mean per-episode evaluation series into the paper's Table II metrics.

    The single definition of the evaluation metric contract
    (``episode_reward`` / ``collision_rate`` / ``success_rate`` /
    ``mean_speed``), shared by the scalar and vectorized evaluators of
    HERO (:mod:`repro.core.trainer`) and the baselines
    (:mod:`repro.baselines.base`) so the five methods can never drift
    apart on metric names.
    """
    return {
        "episode_reward": float(np.mean(rewards)),
        "collision_rate": float(np.mean(collisions)),
        "success_rate": float(np.mean(successes)),
        "mean_speed": float(np.mean(speeds)),
    }


def episode_series(prefix: str, summary: dict[str, float]) -> dict[str, float]:
    """The four paper metrics of an env's episode ``summary``, as the
    ``{prefix}/*`` series every training loop logs per episode."""
    return {
        f"{prefix}/episode_reward": summary["episode_reward"],
        f"{prefix}/collision_rate": summary["collision"],
        f"{prefix}/merge_success_rate": summary["merge_success_rate"],
        f"{prefix}/mean_speed": summary["mean_speed"],
    }


def eval_series(prefix: str, metrics: dict[str, float]) -> dict[str, float]:
    """A greedy evaluation's metrics (:func:`summarise_eval_episodes`) as
    the ``{prefix}/eval_*`` series: the curves Fig. 7 plots."""
    return {
        f"{prefix}/eval_episode_reward": metrics["episode_reward"],
        f"{prefix}/eval_collision_rate": metrics["collision_rate"],
        f"{prefix}/eval_merge_success_rate": metrics["success_rate"],
        f"{prefix}/eval_mean_speed": metrics["mean_speed"],
    }


class MetricLogger:
    """Append-only store of named scalar time series."""

    def __init__(self):
        self._series: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self._start_time = time.monotonic()

    def log(self, name: str, value: float, step: int) -> None:
        """Record ``value`` for series ``name`` at ``step``."""
        self._series[name].append((int(step), float(value)))

    def log_many(self, values: dict[str, float], step: int) -> None:
        for name, value in values.items():
            self.log(name, value, step)

    def extend(self, other: "MetricLogger") -> None:
        """Append every point of ``other``, series by series in the order
        ``other`` first logged them."""
        for name, points in other._series.items():
            self._series[name].extend(points)

    def names(self) -> list[str]:
        return sorted(self._series)

    def steps(self, name: str) -> np.ndarray:
        return np.array([s for s, _ in self._series[name]], dtype=np.int64)

    def values(self, name: str) -> np.ndarray:
        return np.array([v for _, v in self._series[name]], dtype=np.float64)

    def latest(self, name: str, default: float = float("nan")) -> float:
        series = self._series.get(name)
        if not series:
            return default
        return series[-1][1]

    def window_mean(self, name: str, window: int) -> float:
        """Mean of the trailing ``window`` values (or all if fewer)."""
        values = self.values(name)
        if values.size == 0:
            return float("nan")
        return float(values[-window:].mean())

    def elapsed(self) -> float:
        return time.monotonic() - self._start_time

    def to_dict(self) -> dict[str, list[tuple[int, float]]]:
        return {name: list(points) for name, points in self._series.items()}

    def save(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)

    @classmethod
    def load(cls, path) -> "MetricLogger":
        logger = cls()
        with open(path) as handle:
            data = json.load(handle)
        for name, points in data.items():
            for step, value in points:
                logger.log(name, value, step)
        return logger


def format_table(headers: list[str], rows: list[list]) -> str:
    """Render a plain-text table (paper-style report output)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)
