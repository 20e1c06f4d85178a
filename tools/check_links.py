#!/usr/bin/env python3
"""Markdown link checker: every path a doc names must resolve on disk.

Scans the given files/directories (default: README.md and docs/) for
inline markdown links and verifies that relative targets exist, so the
README's architecture map and the scenario-spec reference cannot drift
from the tree.  External (http/https/mailto) links and pure anchors
are skipped; `path#fragment` targets are checked as `path`.

Repo-rooted paths quoted in inline code — `` `benchmarks/bench_x.py` ``,
or a word of a quoted command such as `` `pytest tests/core/test_y.py
-q` `` — are resolved against the repository root the same way, so a
doc that still names a deleted bench or experiment file fails too.
Placeholders (`BENCH_<name>.json`, globs) and fenced blocks are skipped.

Usage:  python tools/check_links.py [FILE_OR_DIR ...]
Exit status 1 when any link is broken.
"""

from __future__ import annotations

import pathlib
import re
import sys

#: Inline markdown links: [text](target).  Images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
_REPO = pathlib.Path(__file__).resolve().parent.parent
_FENCED = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)
_CODE_SPAN = re.compile(r"`([^`]+)`")
_ROOTED_PATH = re.compile(
    r"(?<![\w./-])((?:benchmarks|src|tests|examples|tools|bench)/[^\s:,;)]*)")
_PLACEHOLDER_CHARS = frozenset("<>*{}…")


def markdown_files(paths: list[str]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        else:
            files.append(path)
    return files


def broken_links(doc: pathlib.Path) -> list[tuple[int, str]]:
    """(line, target) pairs whose relative targets do not resolve."""
    failures = []
    for lineno, line in enumerate(
            doc.read_text(encoding="utf-8").splitlines(), start=1):
        for target in _LINK.findall(line):
            if target.startswith(_SKIP_PREFIXES):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            if not (doc.parent / relative).exists():
                failures.append((lineno, target))
    return failures


def broken_paths(doc: pathlib.Path) -> list[tuple[int, str]]:
    """(line, path) pairs for quoted repo-rooted paths that do not exist."""
    text = doc.read_text(encoding="utf-8")
    # Blank fenced blocks but keep their newlines, so line numbers hold.
    text = _FENCED.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    failures = []
    for span in _CODE_SPAN.finditer(text):
        for path in _ROOTED_PATH.findall(span.group(1)):
            if _PLACEHOLDER_CHARS & set(path):
                continue
            if not (_REPO / path).exists():
                failures.append((text.count("\n", 0, span.start()) + 1,
                                 path))
    return failures


def main(argv: list[str]) -> int:
    paths = argv or ["README.md", "docs"]
    failed = False
    checked = 0
    for doc in markdown_files(paths):
        if not doc.exists():
            print(f"{doc}: file not found")
            failed = True
            continue
        checked += 1
        for lineno, target in broken_links(doc):
            print(f"{doc}:{lineno}: broken link -> {target}")
            failed = True
        for lineno, path in broken_paths(doc):
            print(f"{doc}:{lineno}: quoted path does not exist -> {path}")
            failed = True
    print(f"checked {checked} markdown file(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
