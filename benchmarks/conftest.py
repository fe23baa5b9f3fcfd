"""Shared fixtures for the reproduction benchmarks.

The figure/table benches share one training sweep (HERO + 4 baselines) so
the suite stays affordable; the sweep scale is controlled by
``REPRO_BENCH_SCALE`` (fraction of the paper's 14,000-episode budget,
default 0.01 ≈ 140 episodes per method). docs/REPRODUCING.md documents
the budgets and commands of larger runs.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.common import train_all_methods

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.01"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))


@pytest.fixture(scope="session")
def shared_sweep():
    """One training sweep shared by fig7 / fig11 / table2 benches."""
    return train_all_methods(scale=BENCH_SCALE, seed=BENCH_SEED)
