"""Every config and spec field is read somewhere in the program.

A field nothing reads is a knob that does nothing: a spec file may set
it and no run can tell.  So each field of each config and spec
dataclass must be read as ``.field`` by some line under ``src/`` that
does not only check it: a read in the class's ``__post_init__`` or
``_check_*`` helpers does not count, nor does the shared field check
(``getattr(self, name)``).  A method such as
``BackgroundTrafficSpec.level`` counts: it is what the program calls.
Deleting the last reader of a field fails here until the field goes
too.
"""

import ast
import dataclasses
import inspect
import pathlib
import textwrap

import pytest

from repro.core import config, scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _declared_classes() -> list[type]:
    found, stack = [], [config.Declared]
    while stack:
        cls = stack.pop()
        if dataclasses.is_dataclass(cls):
            found.append(cls)
        stack.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


CLASSES = _declared_classes()


@pytest.fixture(scope="module")
def reads() -> list[tuple[pathlib.Path, int, str]]:
    """``(file, line, attribute)`` for every ``.attribute`` load in src."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.resolve(), node.lineno, node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)]
    return found


def test_the_fifteen_config_and_spec_classes_are_found():
    assert len(CLASSES) == 15
    assert {config.CoICConfig, config.NetworkConfig, scenario.ScenarioSpec,
            scenario.ClientSpec, scenario.WarmupSpec} <= set(CLASSES)


def _checking_lines(cls: type) -> tuple[pathlib.Path, set[int]]:
    """The file of ``cls`` and the lines of its checking methods."""
    path = pathlib.Path(inspect.getsourcefile(cls)).resolve()
    lines, start = inspect.getsourcelines(cls)
    body = ast.parse(textwrap.dedent("".join(lines)))
    checking = set()
    for node in ast.walk(body):
        if (isinstance(node, ast.FunctionDef)
                and (node.name == "__post_init__"
                     or node.name.startswith("_check"))):
            checking |= set(range(start + node.lineno - 1,
                                  start + node.end_lineno))
    return path, checking


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_is_read_by_more_than_its_check(cls, reads):
    path, checking = _checking_lines(cls)
    read = {attr for where, line, attr in reads
            if where != path or line not in checking}
    unread = [f.name for f in dataclasses.fields(cls) if f.name not in read]
    assert unread == [], f"nothing in src/ reads {cls.__name__}.{unread}"


def test_a_read_by_a_check_does_not_count(reads):
    path, checking = _checking_lines(scenario.MobilitySpec)
    in_checks = {attr for where, line, attr in reads
                 if where == path and line in checking}
    assert {"bias", "bias_schedule", "n_places"} <= in_checks
