#!/usr/bin/env python3
"""Markdown link checker: every path a doc names must resolve on disk.

Scans the given files/directories (default: README.md and docs/) for
inline markdown links and verifies that relative targets exist, so the
README's architecture map and the scenario-spec reference cannot drift
from the tree.  External (http/https/mailto) links and pure anchors
are skipped; `path#fragment` targets are checked as `path`.

Repo-rooted paths quoted in inline code — `` `bench/run.py` ``, or a
word of a quoted command such as `` `pytest tests/core/test_y.py -q` ``
— are resolved against the repository root the same way, so a doc that
still names a deleted bench or experiment file fails too.  Placeholders
(`src/repro/eval/experiments/<name>.py`, globs) and fenced blocks are
skipped.

A code span that is a CamelCase identifier — `` `EdgeNode` ``,
`` `EdgeNode.probe_log` ``, `` `ClusterDeployment(spec)` ``, or a
private one with one leading underscore, `` `_VectorStore.add` `` —
must be a class, function or module-level name defined under
`src/repro`, so a doc cannot go on naming a class that was deleted;
and when it is a class, a following `.attr` must be something that
class (or a base under `src/repro`) defines — an annotated field, a
method or property, a class-level name or a `self.attr` assignment —
so a doc cannot go on naming a deleted field either.

`docs/pr*.md` are per-PR history: they name the files and classes they
deleted, so both quoted-code checks skip them.  Their markdown links
are still checked.

Usage:  python tools/check_links.py [FILE_OR_DIR ...]
Exit status 1 when any link is broken.
"""

from __future__ import annotations

import ast
import builtins
import functools
import pathlib
import re
import sys
import typing

#: Inline markdown links: [text](target).  Images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
_REPO = pathlib.Path(__file__).resolve().parent.parent
_FENCED = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)
_CODE_SPAN = re.compile(r"`([^`]+)`")
_ROOTED_PATH = re.compile(
    r"(?<![\w./-])((?:benchmarks|src|tests|examples|tools|bench)/[^\s:,;)]*)")
_PLACEHOLDER_CHARS = frozenset("<>*{}…")
#: A whole code span naming a CamelCase identifier (public, or private
#: with one leading underscore), optionally followed by an attribute or
#: a call.
_SYMBOL = re.compile(r"(_?[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)(?:[.(].*)?")
_ATTRIBUTE = re.compile(r"\.([A-Za-z_]\w*)")


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


def _code_spans(doc: pathlib.Path) -> typing.Iterator[tuple[int, str]]:
    """(line, content) of every inline code span outside fenced blocks."""
    text = doc.read_text(encoding="utf-8")
    # Blank fenced blocks but keep their newlines, so line numbers hold.
    text = _FENCED.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    for span in _CODE_SPAN.finditer(text):
        yield text.count("\n", 0, span.start()) + 1, span.group(1)


def is_history(doc: pathlib.Path) -> bool:
    """Per-PR history (``docs/pr*.md``) names what its PR deleted."""
    return doc.name.startswith("pr")


def broken_paths(doc: pathlib.Path) -> list[tuple[int, str]]:
    """(line, path) pairs for quoted repo-rooted paths that do not exist."""
    if is_history(doc):
        return []
    return [(lineno, path)
            for lineno, code in _code_spans(doc)
            for path in _ROOTED_PATH.findall(code)
            if not _PLACEHOLDER_CHARS & set(path)
            and not (_REPO / path).exists()]


def _assigned(node: ast.AST) -> list[ast.expr]:
    """The targets of an assignment statement (none for anything else)."""
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target]
    return []


@functools.cache
def _source_trees() -> tuple[ast.Module, ...]:
    return tuple(ast.parse(source.read_text(encoding="utf-8"))
                 for source in (_REPO / "src" / "repro").rglob("*.py"))


@functools.cache
def class_table() -> dict[str, tuple[frozenset[str], frozenset[str]]]:
    """``class name -> (own attributes, base names)`` under ``src/repro``.

    Attributes are what the class body binds (fields, methods,
    properties, constants) plus every ``self.attr`` its methods assign.
    Same-named classes in different modules are merged.
    """
    table: dict[str, tuple[set[str], set[str]]] = {}
    for tree in _source_trees():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            attrs, bases = table.setdefault(cls.name, (set(), set()))
            bases.update(base.id for base in cls.bases
                         if isinstance(base, ast.Name))
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    attrs.add(node.name)
                attrs.update(target.id for target in _assigned(node)
                             if isinstance(target, ast.Name))
            attrs.update(
                target.attr for node in ast.walk(cls)
                for target in _assigned(node)
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self")
    return {name: (frozenset(attrs), frozenset(bases))
            for name, (attrs, bases) in table.items()}


def class_defines(name: str, attr: str) -> bool:
    """Does class ``name``, or a base of it under ``src/repro``, bind ``attr``?"""
    attrs, bases = class_table()[name]
    return attr in attrs or any(class_defines(base, attr)
                                for base in bases if base in class_table())


@functools.cache
def defined_names() -> frozenset[str]:
    """Every class, function and module-level name under ``src/repro``."""
    names: set[str] = set()
    for tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                names.add(node.name)
        for node in tree.body:
            names.update(target.id for target in _assigned(node)
                         if isinstance(target, ast.Name))
    return frozenset(names)


def broken_symbols(doc: pathlib.Path) -> list[tuple[int, str]]:
    """(line, name) pairs for quoted CamelCase names ``src/repro`` lacks.

    ``name`` is ``Class.attr`` when the class exists but does not
    define the attribute the span goes on to name.
    """
    if is_history(doc):
        return []
    failures = []
    for lineno, code in _code_spans(doc):
        symbol = _SYMBOL.fullmatch(code)
        if symbol is None:
            continue
        name = symbol.group(1)
        attribute = _ATTRIBUTE.match(code, len(name))
        if name not in defined_names() and not hasattr(builtins, name):
            failures.append((lineno, name))
        elif (attribute is not None and name in class_table()
              and not _PLACEHOLDER_CHARS & set(code)
              and not class_defines(name, attribute.group(1))):
            failures.append((lineno, f"{name}.{attribute.group(1)}"))
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
        for lineno, name in broken_symbols(doc):
            print(f"{doc}:{lineno}: no such name under src/repro -> {name}")
            failed = True
    print(f"checked {checked} markdown file(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
