"""The float32 literal scan passes on the repo and fails on a new ``np.float64``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "check_dtype_literals.py"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_repo_passes_and_scans_baselines_and_training():
    out = _run()
    assert out.returncode == 0, out.stdout
    package = ROOT / "src" / "repro"
    scanned = sum(
        len(list((package / part).rglob("*.py")))
        for part in ("nn", "core", "baselines", "training")
    )
    assert out.stdout.strip() == f"dtype-literal check passed ({scanned} files scanned)"


def test_float64_literal_fails(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "# np.float64 in a comment is ignored\n"
        'NOTE = "np.float64 in a string is ignored"\n'
        "x = np.zeros(3, dtype=np.float64)\n"
    )
    out = _run(probe)
    assert out.returncode == 1
    assert out.stdout.count("hard-coded np.float64") == 1
    assert f"{probe.resolve().as_posix()}:4: hard-coded np.float64" in out.stdout
