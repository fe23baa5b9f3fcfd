"""Per-table/figure reproduction harnesses (see docs/REPRODUCING.md,
"Per-experiment commands")."""

from .common import (
    ExperimentResult,
    TrainedMethod,
    bench_scenario,
    episodes_from_scale,
    train_all_methods,
    train_baseline_method,
    train_hero_method,
)
from .registry import EXPERIMENTS, Experiment, run_experiment
from .reporting import (
    curve_summary,
    print_learning_curves,
    print_metric_table,
    shape_check,
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "TrainedMethod",
    "bench_scenario",
    "curve_summary",
    "episodes_from_scale",
    "print_learning_curves",
    "print_metric_table",
    "run_experiment",
    "shape_check",
    "train_all_methods",
    "train_baseline_method",
    "train_hero_method",
]
