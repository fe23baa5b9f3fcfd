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


def test_python_citation_of_a_missing_doc_fails(tmp_path):
    """A ``.py`` docstring citing a ``.md`` file that does not exist fails
    the check; citations that resolve (from the repo root, under
    ``docs/`` or beside the file) pass."""
    (tmp_path / "NOTES.md").write_text("notes\n")
    source = tmp_path / "module.py"
    source.write_text(
        '"""Simulator substrate; see DESIGN.md §2 for the substitution.\n\n'
        "The update phase is in docs/ARCHITECTURE.md, the flags in\n"
        'REPRODUCING.md and README.md, the rest in NOTES.md; docs/*.md globs."""\n'
    )
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(source)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 1
    assert out.stderr.splitlines() == [f"{source}: missing cited doc -> DESIGN.md"]


def test_repository_docs_and_sources_pass():
    out = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
