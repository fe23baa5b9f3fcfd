"""Paper-style report printers.

Benchmarks cannot plot, so learning curves are summarised the way a
reviewer would read Fig. 7: windowed means at the start / middle / end of
training, plus the final value. Tables print in the same row layout as
the paper.
"""

from __future__ import annotations

import numpy as np

from ..utils.logging_utils import format_table
from ..utils.math_utils import moving_average


def curve_summary(values: np.ndarray, window: int | None = None) -> dict[str, float]:
    """Early/mid/late/tail means of a training series (the curve's shape).

    ``late`` is the last third; ``tail`` is the last ~15% — the converged
    regime a reader compares across methods at the right edge of a figure.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        nan = float("nan")
        return {"early": nan, "mid": nan, "late": nan, "tail": nan, "final": nan}
    window = window or max(len(values) // 5, 1)
    smoothed = moving_average(values, window)
    third = max(len(values) // 3, 1)
    tail = max(len(values) // 7, 1)
    return {
        "early": float(smoothed[:third].mean()),
        "mid": float(smoothed[third : 2 * third].mean() if len(values) > third else smoothed.mean()),
        "late": float(smoothed[-third:].mean()),
        "tail": float(smoothed[-tail:].mean()),
        "final": float(smoothed[-1]),
    }


def print_learning_curves(
    title: str,
    series_by_method: dict[str, np.ndarray],
    higher_is_better: bool = True,
) -> str:
    """Render one Fig.-7-style panel as an early/mid/late table."""
    rows = []
    for method, values in series_by_method.items():
        summary = curve_summary(values)
        rows.append(
            [
                method,
                summary["early"],
                summary["mid"],
                summary["late"],
                summary["tail"],
                summary["final"],
            ]
        )
    key = 4  # sort by converged tail value
    rows.sort(key=lambda r: r[key], reverse=higher_is_better)
    table = format_table(["method", "early", "mid", "late", "tail", "final"], rows)
    report = f"\n=== {title} ===\n{table}"
    print(report)
    return report


def print_metric_table(
    title: str, rows_by_method: dict[str, dict[str, float]], columns: list[str]
) -> str:
    """Render a Table-II-style metrics table."""
    rows = [
        [method, *[metrics.get(col, float("nan")) for col in columns]]
        for method, metrics in rows_by_method.items()
    ]
    table = format_table(["method", *columns], rows)
    report = f"\n=== {title} ===\n{table}"
    print(report)
    return report


def _separated(values: dict[str, float]) -> bool:
    """Whether the compared per-method values differ at all.  An ordering
    verdict over all-equal values (every method at collision rate 1.00,
    say) would pass vacuously, so it misses instead."""
    return max(values.values()) - min(values.values()) > 1e-9


def shape_check(
    description: str, condition: bool, details: str = ""
) -> tuple[str, bool]:
    """Record one qualitative shape assertion (who wins / who collapses)."""
    status = "OK " if condition else "MISS"
    line = f"[{status}] {description}" + (f" ({details})" if details else "")
    print(line)
    return line, condition
