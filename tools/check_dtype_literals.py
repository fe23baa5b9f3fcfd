#!/usr/bin/env python
"""Precision guard: no hard-coded ``np.float64`` in the compute paths.

``--dtype float32`` only works end-to-end if every array in ``nn/``,
``core/``, ``baselines/`` and ``training/`` draws its dtype from
``repro.nn.tensor.get_default_dtype()`` (or from the parameters or
buffers it operates on).  A stray ``np.float64`` literal silently upcasts
the arrays it touches and — because numpy propagates the widest dtype
through every downstream op — quietly converts the whole pipeline back
to double precision, erasing the float32 speedup without failing a
single numerical test.

This checker scans ``src/repro/nn``, ``src/repro/core``,
``src/repro/baselines`` and ``src/repro/training`` for ``np.float64``
tokens outside the documented exemptions below.  Comments and strings
are ignored; add a new exemption only with a justification for why the
site must stay float64 at any compute dtype (see the existing entries
and docs/ARCHITECTURE.md (Precision)).

Usage::

    python tools/check_dtype_literals.py           # check the scanned dirs
    python tools/check_dtype_literals.py FILE...   # check specific files
"""

from __future__ import annotations

import io
import re
import sys
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED_DIRS = (
    "src/repro/nn",
    "src/repro/core",
    "src/repro/baselines",
    "src/repro/training",
)

LITERAL_PATTERN = re.compile(r"np\s*\.\s*float64")

# (repo-relative path, substring of the offending line) -> justification.
# Matching by line content instead of line number keeps the exemptions
# stable across unrelated edits.
EXEMPTIONS: dict[tuple[str, str], str] = {
    ("src/repro/nn/tensor.py", "SUPPORTED_DTYPES"): (
        "the dtype registry itself enumerates the supported precisions"
    ),
    ("src/repro/nn/tensor.py", "_default_dtype = np.dtype(np.float64)"): (
        "the process-wide default: float64 keeps the seed bitwise-identical"
    ),
    ("src/repro/nn/tensor.py", "DEFAULT_DTYPE = np.float64"): (
        "public alias of the float64 default (back-compat constant)"
    ),
    ("src/repro/nn/functional.py", "logits = np.asarray(logits, dtype=np.float64)"): (
        "categorical sampling compares float64 RNG draws against cumulative "
        "probabilities; an integer-output path, so the upcast cannot leak"
    ),
    ("src/repro/core/update_engine.py", "return np.dtype(np.float64)"): (
        "family_dtype fallback for an empty family (no parameters to read)"
    ),
    (
        "src/repro/core/update_engine.py",
        "logits64 = np.asarray(logits_all, dtype=np.float64)",
    ): (
        "the fused MAAC sampler mirrors nn.functional.sample_categorical: "
        "float64 softmax/cumsum against float64 RNG draws keeps the sampled "
        "actions bitwise-faithful to the scalar path; float32 members cast "
        "the reused log-probs/probs back down at the point of use"
    ),
    ("src/repro/core/batched.py", "np.asarray(epsilon, dtype=np.float64)"): (
        "exploration-schedule scalar compared against float64 RNG draws; "
        "never enters network compute"
    ),
    ("src/repro/baselines/idqn.py", "np.asarray(self.epsilon, dtype=np.float64)"): (
        "IDQN's exploration probability, compared against float64 RNG draws; "
        "the result is integer actions, so the upcast cannot leak"
    ),
}


def code_lines(source: str) -> dict[int, str]:
    """Map line number -> line content with comments and strings blanked.

    Docstrings routinely *mention* ``np.float64`` (the tolerance contract
    documents it), so only real code tokens count; tokenizing (rather
    than splitting on ``#``) gets both cases right.
    """
    lines = source.splitlines()
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type not in (tokenize.COMMENT, tokenize.STRING):
                continue
            (start_row, start_col), (end_row, end_col) = token.start, token.end
            for row in range(start_row, end_row + 1):
                line = lines[row - 1]
                lo = start_col if row == start_row else 0
                hi = end_col if row == end_row else len(line)
                lines[row - 1] = line[:lo] + " " * (hi - lo) + line[hi:]
    except tokenize.TokenError:
        pass  # fall back to raw lines; the scan still runs
    return {number: line for number, line in enumerate(lines, start=1)}


def repo_path(path: Path) -> str:
    """``path`` relative to the repo root, or absolute when outside it."""
    resolved = path.resolve()
    if resolved.is_relative_to(REPO_ROOT):
        return resolved.relative_to(REPO_ROOT).as_posix()
    return resolved.as_posix()


def check_file(path: Path) -> list[str]:
    rel = repo_path(path)
    failures = []
    for number, line in code_lines(path.read_text()).items():
        if not LITERAL_PATTERN.search(line):
            continue
        exempt = any(
            rel == exempt_path and marker in line
            for (exempt_path, marker) in EXEMPTIONS
        )
        if not exempt:
            failures.append(
                f"{rel}:{number}: hard-coded np.float64 in a compute path "
                f"(use get_default_dtype() or the parameter dtype): "
                f"{line.strip()}"
            )
    return failures


def main(argv: list[str]) -> int:
    if argv:
        paths = [Path(arg) for arg in argv]
    else:
        paths = sorted(
            path
            for scan_dir in SCANNED_DIRS
            for path in (REPO_ROOT / scan_dir).rglob("*.py")
        )
    failures = []
    for path in paths:
        failures.extend(check_file(path))

    # Stale exemptions are noise that hides real regressions: prune them.
    sources = {repo_path(path): path.read_text() for path in paths}
    if not argv:  # only meaningful over the full scan set
        for (exempt_path, marker), reason in EXEMPTIONS.items():
            source = sources.get(exempt_path)
            if source is not None and marker not in source:
                failures.append(
                    f"stale exemption for {exempt_path!r} ({marker!r}): "
                    f"site no longer present — remove it ({reason})"
                )

    if failures:
        print(f"dtype-literal check FAILED ({len(failures)} problem(s)):\n")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"dtype-literal check passed ({len(paths)} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
