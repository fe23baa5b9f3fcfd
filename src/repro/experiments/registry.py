"""Experiment registry: one entry per paper table/figure.

Each entry binds the experiment id to its ``run``/``report`` pair and the
module implementing it, so benchmarks and the README can enumerate the
full reproduction surface programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..nn.tensor import default_dtype
from . import fig7, fig8, fig10, fig11, table2


@dataclass(frozen=True)
class Experiment:
    """Metadata + harness entry points for one table/figure."""

    exp_id: str
    title: str
    run: Callable
    report: Callable
    workload: str


EXPERIMENTS: dict[str, Experiment] = {
    "fig7": Experiment(
        "fig7",
        "Learning curves: reward / collision rate / merge success",
        fig7.run_fig7,
        fig7.report_fig7,
        "4-vehicle cooperative lane change, 5 methods",
    ),
    "fig8": Experiment(
        "fig8",
        "Low-level skill training (lane keeping, lane change)",
        fig8.run_fig8,
        fig8.report_fig8,
        "single vehicle, SAC with intrinsic rewards",
    ),
    "fig10": Experiment(
        "fig10",
        "Opponent-model loss per modeled vehicle",
        fig10.run_fig10,
        fig10.report_fig10,
        "HERO training, vehicle 2's predictors",
    ),
    "fig11": Experiment(
        "fig11",
        "Mean speed of trained policies",
        fig11.run_fig11,
        fig11.report_fig11,
        "greedy evaluation in simulation",
    ),
    "table2": Experiment(
        "table2",
        "Real-world testbed evaluation (domain-shifted simulator)",
        table2.run_table2,
        table2.report_table2,
        "20 evaluation episodes under sensor/actuation shift",
    ),
}


def run_experiment(
    exp_id: str,
    scale: float = 0.02,
    seed: int = 0,
    num_envs: int = 1,
    async_actors: bool = False,
    max_staleness: int = 0,
    num_actors: int = 1,
    checkpoint_dir: str | None = None,
    dtype: str = "float64",
) -> dict:
    """Run one experiment end to end and print its report.

    ``num_envs > 1`` collects every method's training rollouts — HERO's
    and the four baselines' — from that many vectorized environment copies
    (see ``repro.envs.vector_env`` and docs/REPRODUCING.md); the
    interleaved greedy evaluations are recorded during training and
    scored in one wide batch after it, at any ``num_envs``.
    ``async_actors`` runs rollouts in a separate actor process
    on the async actor–learner stack (``repro.distributed.actor_learner``;
    HERO and IDQN), with ``max_staleness`` bounding how far the actor may
    run ahead of the newest policy snapshot (0 = lockstep, bitwise equal
    to the synchronous path; one actor) and ``num_actors`` fanning
    collection out to that many actor processes (needs ``max_staleness >
    0``).  ``checkpoint_dir`` persists each trained
    method as a serving checkpoint and reloads instead of retraining when
    the directory is already complete (table2 only — the figure harnesses
    report training curves, which a checkpoint does not carry).
    ``dtype`` selects the floating-point compute precision for the whole
    run ("float64" | "float32"): float32 speeds the BLAS-bound update phase
    and halves every payload under the tolerance contract documented in
    docs/ARCHITECTURE.md ("Precision").  Env physics stays float64 at
    either setting.
    """
    if exp_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; options: {sorted(EXPERIMENTS)}")
    experiment = EXPERIMENTS[exp_id]
    extra_kwargs = {}
    if checkpoint_dir is not None:
        if exp_id != "table2":
            raise ValueError(
                f"checkpoint_dir is only supported by table2, not {exp_id!r}"
            )
        extra_kwargs["checkpoint_dir"] = checkpoint_dir
    # Networks, envs and actor processes all inherit the default
    # dtype at construction, so one process-global scope covers the run.
    with default_dtype(dtype):
        outputs = experiment.run(
            scale=scale,
            seed=seed,
            num_envs=num_envs,
            async_actors=async_actors,
            max_staleness=max_staleness,
            num_actors=num_actors,
            **extra_kwargs,
        )
        experiment.report(outputs)
    return outputs
