"""The docs check fails on a backtick-quoted repo path that no longer exists."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "check_doc_links.py"


def test_dead_quoted_path_fails_and_live_one_passes(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "The engine lives in `envs/vector_env.py` and is locked by\n"
        "`tests/test_vector_env.py::TestVectorEnv`; the sharded engine was\n"
        "locked by `tests/test_no_such_engine.py`.\n"
        "```\n"
        "`tests/inside_a_fence_is_not_checked.py`\n"
        "```\n"
    )
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(doc)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 1
    assert out.stderr.splitlines() == [f"{doc}: dead path -> tests/test_no_such_engine.py"]
