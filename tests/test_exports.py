"""Every name a package re-exports has a caller that imports it there.

A package's ``__all__`` is its public face.  An entry that no code
outside the package imports through it (``from repro.sim import X``)
is surface nobody uses, and an entry that does not resolve is a broken
promise.  Both fail here, so deleting a caller or a feature also
shrinks the export list.  An import only counts where the importing
file also uses the name.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEARCHED = ("src", "bench", "examples", "tests", "tools")
PACKAGES = ("sim", "net", "vision", "workload", "render", "eval", "core",
            "backend")


def _python_files():
    for top in SEARCHED:
        yield from sorted((ROOT / top).rglob("*.py"))


def _used_imports(path: pathlib.Path) -> dict[str, set[str]]:
    """module -> names ``path`` imports from it and then uses."""
    imported: dict[tuple[str, str], str] = {}  # (module, alias) -> name
    loaded = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            loaded.add(node.id)
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module and node.module.startswith("repro.")):
            for alias in node.names:
                imported[node.module, alias.asname or alias.name] = alias.name
    used: dict[str, set[str]] = {}
    for (module, local), name in imported.items():
        if local in loaded:
            used.setdefault(module, set()).add(name)
    return used


@pytest.fixture(scope="module")
def importers():
    """package -> names imported through it by a file outside it."""
    found = {pkg: set() for pkg in PACKAGES}
    this = pathlib.Path(__file__).resolve()
    for path in _python_files():
        if path.resolve() == this:
            continue
        for module, names in _used_imports(path).items():
            pkg = module.removeprefix("repro.")
            if (pkg in found
                    and ROOT / "src" / "repro" / pkg not in path.parents):
                found[pkg] |= names
    return found


@pytest.mark.parametrize("pkg", PACKAGES)
def test_every_export_resolves_and_is_imported_through_the_package(
        pkg, importers):
    module = importlib.import_module(f"repro.{pkg}")
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), "duplicate __all__ entry"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], f"repro.{pkg}.__all__ names what it lacks"
    unused = sorted(set(exported) - importers[pkg])
    assert unused == [], (
        f"repro.{pkg} exports names nothing imports through it")


def test_an_unused_import_does_not_count(tmp_path):
    path = tmp_path / "user.py"
    path.write_text("from repro.sim import Environment, Store as S\n"
                    "env = Environment()\n", encoding="utf-8")
    assert _used_imports(path) == {"repro.sim": {"Environment"}}
