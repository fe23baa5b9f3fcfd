"""The fast examples run end to end, so an example cannot keep importing a
name the library deleted.

Each runs in its own interpreter at a few episodes (about a second each on
a 2-vCPU VM).  ``cooperative_lane_change.py`` and
``sim_to_real_transfer.py`` are left out: they train every method through
the experiment harnesses and take ~25 s each even at ``--scale 0.0005``,
too long for the tier-1 suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FAST_EXAMPLES = [
    ["quickstart.py", "--episodes", "2", "--skill-episodes", "2"],
    ["opponent_modeling_demo.py", "--episodes", "2", "--skill-episodes", "2"],
    ["train_low_level_skills.py", "--episodes", "2"],
    ["serve_policy.py", "--steps", "2", "--slots", "2"],
    [
        "distributed_dtde.py",
        "--episodes", "4", "--skill-episodes", "4", "--async-episodes", "3",
        "--num-envs", "2", "--latency", "2", "--drop", "0.2",
    ],
]


@pytest.mark.parametrize("command", FAST_EXAMPLES, ids=lambda command: command[0])
def test_example_runs(command, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "examples" / command[0]), *command[1:]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr[-4000:]
