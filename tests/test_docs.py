"""Docs stay truthful: links resolve, commands exist, specs load.

The README and the scenario-spec reference are part of the product
surface; these tests keep them from drifting away from the code the
way stale docs do.  CI additionally runs ``tools/check_links.py`` and
an examples smoke pass.
"""

import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SPEC_DOC = ROOT / "docs" / "scenario_spec.md"


def test_docs_exist():
    assert README.is_file()
    assert SPEC_DOC.is_file()


def _check_links():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import check_links
    finally:
        sys.path.pop(0)
    return check_links


def test_relative_links_resolve():
    check_links = _check_links()
    for doc in (README, *sorted((ROOT / "docs").glob("*.md"))):
        assert check_links.broken_links(doc) == [], f"broken links in {doc}"
        assert check_links.broken_paths(doc) == [], \
            f"{doc} quotes paths that do not exist"
        assert check_links.broken_symbols(doc) == [], \
            f"{doc} names classes or functions src/repro does not define"


def test_symbol_check_flags_only_names_the_source_lacks(tmp_path):
    check_links = _check_links()
    text = "\n".join([
        "`EdgeNode.probe_log` and `ClusterDeployment(spec)` exist;",
        "`GoneEdgeNode.probe_log` and `GoneDeployment(spec)` do not.",
        "`None`, `ValueError`, `federate` and `BENCH_x.json` are not",
        "class names.  `EdgePolicySpec.queue_limit`, the inherited",
        "`AffinityLoadBalancer.note_dispatch(name)` and the glob",
        "`NetworkConfig.lte_*` name attributes their class has;",
        "`EdgePolicySpec.summary_piggyback` names one it lost.",
        "```",
        "`GoneInAFence` is code, not prose",
        "```",
        "`tools/check_links.py` is a file; `benchmarks"
        "/legacy_kernel.py` is not.",
    ])
    doc = tmp_path / "guide.md"
    doc.write_text(text, encoding="utf-8")
    assert check_links.broken_symbols(doc) == [
        (2, "GoneEdgeNode"), (2, "GoneDeployment"),
        (7, "EdgePolicySpec.summary_piggyback")]
    # Only the deleted path on line 11 is flagged, not the live one.
    assert [lineno for lineno, _ in check_links.broken_paths(doc)] == [11]
    # Per-PR history names what its PR deleted: both code checks skip it.
    history = tmp_path / "pr99_what_was_deleted.md"
    history.write_text(text, encoding="utf-8")
    assert check_links.broken_symbols(history) == []
    assert check_links.broken_paths(history) == []


def test_symbol_check_resolves_private_class_names(tmp_path):
    check_links = _check_links()
    doc = tmp_path / "guide.md"
    doc.write_text("\n".join([
        "`_VectorIndex`, `_VectorStore.nearest_cosine` and `_Initialize`",
        "exist; `_VectorStore.add_batch` and `_GoneStore` do not.",
        "`__init__`, `_drop` and `__Dunder` are not class names.",
    ]), encoding="utf-8")
    assert check_links.broken_symbols(doc) == [
        (2, "_VectorStore.add_batch"), (2, "_GoneStore")]


def test_every_readme_experiment_is_registered():
    from repro.eval.runner import experiment_names

    text = README.read_text(encoding="utf-8")
    mentioned = set(re.findall(r"repro run (\w+)", text))
    assert mentioned, "README must show at least one `repro run` command"
    unknown = mentioned - set(experiment_names())
    assert not unknown, f"README mentions unregistered experiments: {unknown}"
    # The experiment table stays complete: every registered experiment
    # appears in the README.
    missing = {name for name in experiment_names()
               if f"`{name}`" not in text}
    assert not missing, f"README experiment table is missing: {missing}"


def test_shipped_scenario_specs_load_and_validate():
    from repro.core.scenario import load_spec

    spec_dir = ROOT / "examples" / "specs"
    specs = sorted(spec_dir.glob("*.json"))
    assert specs, "examples/specs must ship at least one runnable spec"
    for path in specs:
        spec = load_spec(str(path))
        assert spec.edges


def test_scenario_spec_doc_covers_every_policy_field():
    import dataclasses

    from repro.core.scenario import EdgePolicySpec, MobilitySpec

    text = SPEC_DOC.read_text(encoding="utf-8")
    for cls in (EdgePolicySpec, MobilitySpec):
        for field in dataclasses.fields(cls):
            assert f"`{field.name}`" in text, \
                f"docs/scenario_spec.md is missing {cls.__name__}.{field.name}"


def test_scenario_spec_doc_names_only_fields_the_dataclass_has():
    """The reverse: a table row may not outlive the field it documents."""
    import dataclasses

    from repro.core.scenario import EdgePolicySpec, MobilitySpec

    text = SPEC_DOC.read_text(encoding="utf-8")
    for cls in (EdgePolicySpec, MobilitySpec):
        heading = f"\n## {cls.__name__}\n"
        table = text.split(heading, 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
        assert rows, f"no field table under {heading}"
        fields = {field.name for field in dataclasses.fields(cls)}
        assert set(rows) <= fields, (
            f"docs/scenario_spec.md documents {cls.__name__} fields that "
            f"do not exist: {sorted(set(rows) - fields)}")


def _number_domains(hint) -> list:
    """The number domains an annotation declares, nested ones too."""
    import typing

    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Annotated:
        return [hint.__metadata__[0]] if args[0] in (int, float) else []
    return [domain for arg in args for domain in _number_domains(arg)]


def _spec_classes() -> list:
    from repro.core import scenario

    return scenario._Spec.__subclasses__()


@pytest.mark.parametrize("cls", _spec_classes(),
                         ids=lambda cls: cls.__name__)
def test_scenario_spec_doc_states_each_number_fields_domain(cls):
    """Each number field's "Type / default" cell names the domain its
    annotation declares, so the table and the check cannot drift."""
    import dataclasses
    import typing

    text = SPEC_DOC.read_text(encoding="utf-8")
    table = re.split(rf"\n## {cls.__name__}\b.*\n", text)[1]
    table = table.split("\n## ", 1)[0]
    cells = {}
    for names, cell in re.findall(r"^\| (`\w+`(?:, `\w+`)*) \| ([^|]*) \|",
                                  table, flags=re.MULTILINE):
        for name in re.findall(r"`(\w+)`", names):
            cells[name] = cell
    hints = typing.get_type_hints(cls, include_extras=True)
    for field in dataclasses.fields(cls):
        for domain in _number_domains(hints[field.name]):
            assert domain.text in cells.get(field.name, ""), (
                f"docs/scenario_spec.md: {cls.__name__}.{field.name} is "
                f"{domain.text!r}, the cell says "
                f"{cells.get(field.name)!r}")


@pytest.mark.parametrize("spec_name", ["cafes_federated.json"])
def test_cli_scenario_runs_a_shipped_spec(spec_name):
    env_path = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro", "scenario",
         str(ROOT / "examples" / "specs" / spec_name), "--duration", "5"],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin:/usr/local/bin"},
        cwd=str(ROOT))
    assert result.returncode == 0, result.stderr
    assert "hit ratio" in result.stdout


def _counter_table() -> set[str]:
    """Counter names in docs/real_backend.md's stats-frame table."""
    text = (ROOT / "docs" / "real_backend.md").read_text(encoding="utf-8")
    section = text.split("\n## The stats frame\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE))


def test_every_counter_in_use_is_documented():
    """A typo'd key would silently become a new counter: every key the
    shipped specs put in any node's ``counts`` must be in the table."""
    from repro.core import ClusterDeployment, CoICConfig
    from repro.core.scenario import load_spec
    from repro.eval.experiments.mobility_exp import drive_scenario

    seen: set[str] = set()
    for path in sorted((ROOT / "examples" / "specs").glob("*.json")):
        dep = ClusterDeployment(load_spec(str(path)),
                                config=CoICConfig(seed=0))
        drive_scenario(dep, duration_s=5.0, request_interval_s=0.5)
        for node in (*dep.edges, dep.cloud):
            seen.update(node.counts)
    assert seen, "the shipped specs counted nothing"
    assert seen <= _counter_table(), sorted(seen - _counter_table())


def test_counter_table_names_only_counters_the_source_keeps():
    """The reverse: a row may not outlive its counter."""
    from repro.core import metrics

    source = "\n".join(path.read_text(encoding="utf-8") for path in
                       (ROOT / "src" / "repro").rglob("*.py"))
    kept = set(re.findall(r"counts\[\"(\w+)\"\]", source))
    kept |= {value for name, value in vars(metrics).items()
             if name.startswith("OUTCOME_")}
    assert _counter_table() <= kept, sorted(_counter_table() - kept)
