#!/usr/bin/env python
"""Docs link check: every relative link, quoted repo path and cited doc
must resolve.

Scans ``README.md`` and ``docs/*.md`` and fails on

* an inline Markdown link whose relative target (file or directory) does
  not exist in the repository.  External links (``http(s)://``) are
  intentionally not fetched — CI must not depend on third-party uptime —
  and pure anchors (``#section``) are skipped;
* a backtick-quoted repo path — one starting with ``src/``, ``tests/``,
  ``benchmarks/``, ``tools/``, ``examples/``, ``docs/``, ``perfbench/`` or
  a package directory under ``src/repro`` such as ``envs/`` — that
  resolves neither from the repository root nor from ``src/repro``.  A
  ``::test`` suffix is ignored and a glob must match something, so docs
  cannot keep citing a file after it is deleted.

Fenced code blocks are skipped by both checks.

It also scans every ``.py`` file under ``src/``, ``examples/``,
``benchmarks/`` and ``tools/`` and fails on a cited ``.md`` file (a
docstring's "see docs/ARCHITECTURE.md", say) that exists neither from the
repository root, nor under ``docs/``, nor beside the citing file.

Usage::

    python tools/check_doc_links.py            # check the repo's docs and sources
    python tools/check_doc_links.py FILE...    # check specific .md / .py files
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

# Inline links: [text](target). Images share the syntax via a leading "!".
LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
PATH_HEADS = ("src", "tests", "benchmarks", "tools", "examples", "docs", "perfbench")
# A cited Markdown file in Python source: an optional directory path, then
# a name ending in ``.md`` (a glob such as ``docs/*.md`` is no citation).
MD_CITATION = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w-]+\.md)\b")
SOURCE_DIRS = ("src", "examples", "benchmarks", "tools")


def _path_pattern() -> re.Pattern:
    """A quoted repo path: a known head, directories, and a last component
    with at most a short file extension (so ``utils/seeding.episode_reset_seeds``,
    a module attribute, is not taken for a file)."""
    packages = [p.name for p in PACKAGE_ROOT.iterdir() if (p / "__init__.py").is_file()]
    heads = "|".join(re.escape(head) for head in (*PATH_HEADS, *sorted(packages)))
    return re.compile(rf"^(?:{heads})/(?:[\w*.-]+/)*(?:[\w*-]+(?:\.[a-z0-9]{{1,4}})?)?$")


PATH_PATTERN = _path_pattern()


def _prose_lines(markdown: str):
    """Yield the lines outside fenced code blocks."""
    in_fence = False
    for line in markdown.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield line


def iter_links(markdown: str):
    """Yield link targets, skipping fenced code blocks."""
    for line in _prose_lines(markdown):
        yield from LINK_PATTERN.findall(line)


def iter_quoted_paths(markdown: str):
    """Yield backtick-quoted repo paths (``::node`` suffix stripped)."""
    for line in _prose_lines(markdown):
        for span in CODE_SPAN.findall(line):
            path = span.strip().split("::", 1)[0]
            if PATH_PATTERN.match(path):
                yield path


def path_resolves(path: str) -> bool:
    """Whether ``path`` names something from the repo root or ``src/repro``."""
    for base in (REPO_ROOT, PACKAGE_ROOT):
        if "*" in path:
            if next(base.glob(path.rstrip("/")), None) is not None:
                return True
        elif (base / path).exists():
            return True
    return False


def _display(path: Path) -> str:
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def check_file(path: Path) -> list[str]:
    """Return one error string per broken link or dead quoted path in ``path``."""
    text = path.read_text(encoding="utf-8")
    errors = []
    for target in iter_links(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            errors.append(f"{_display(path)}: broken link -> {target}")
    for quoted in iter_quoted_paths(text):
        if not path_resolves(quoted):
            errors.append(f"{_display(path)}: dead path -> {quoted}")
    return errors


def check_source(path: Path) -> list[str]:
    """Return one error string per ``.md`` file ``path`` cites that does
    not exist from the repo root, under ``docs/`` or beside ``path``."""
    errors = []
    for cited in MD_CITATION.findall(path.read_text(encoding="utf-8")):
        bases = (REPO_ROOT, REPO_ROOT / "docs", path.parent)
        if not any((base / cited).is_file() for base in bases):
            errors.append(f"{_display(path)}: missing cited doc -> {cited}")
    return errors


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        files = [Path(arg).resolve() for arg in argv]
    else:
        files = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
        for head in SOURCE_DIRS:
            files += sorted((REPO_ROOT / head).rglob("*.py"))
    missing = [path for path in files if not path.exists()]
    if missing:
        for path in missing:
            print(f"no such file: {path}", file=sys.stderr)
        return 1

    errors = [
        error
        for path in files
        for error in (check_source(path) if path.suffix == ".py" else check_file(path))
    ]
    for error in errors:
        print(error, file=sys.stderr)
    docs = [p for p in files if p.suffix != ".py"]
    checked = ", ".join(_display(p) for p in docs)
    if len(docs) < len(files):
        checked += f" and {len(files) - len(docs)} Python sources"
    if errors:
        print(f"\nlink check FAILED ({len(errors)} broken) over: {checked}")
        return 1
    print(f"link check passed: {checked}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
