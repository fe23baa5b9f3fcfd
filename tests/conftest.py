"""Fixtures shared across the tier-1 suite."""

from __future__ import annotations

import multiprocessing as mp

import pytest


@pytest.fixture
def spawn_default():
    """Make ``spawn`` the default start method for one test."""
    previous = mp.get_start_method(allow_none=True)
    mp.set_start_method("spawn", force=True)
    try:
        yield
    finally:
        mp.set_start_method(previous, force=True)
