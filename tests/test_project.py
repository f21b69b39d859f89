"""Project-level promises: README's examples run as printed, the package
needs nothing outside the standard library, it writes JSON only through
its own writers, its import generates no code, and a re-import leaves
nothing of the previous copy alive."""

import ast
import dataclasses
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import seqc
from seqc import model
from seqc.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _squeezed(text: str) -> str:
    return " ".join(text.split())


def _quick_tour() -> list[tuple[list[str], str]]:
    """README's quick-tour commands, each as (argv after `seqc`, printed output)."""
    block = re.search(r"A quick tour over the bundled fixtures:\n\n```sh\n(.*?)```", README, re.S)
    entries = []
    for entry in re.split(r"^\$ ", block.group(1), flags=re.M)[1:]:
        command, _, output = entry.replace("\\\n", " ").partition("\n")
        entries.append((shlex.split(command)[1:], output))
    return entries


def test_readme_library_example_runs_from_the_repository_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    code = re.search(r"## Library\n\n```python\n(.*?)```", README, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["report"].ok and namespace["trace"].makespan == 6


def test_the_public_surface_resolves():
    # A stale export or a stale README line names something that is gone.
    assert [name for name in seqc.__all__ if not hasattr(seqc, name)] == []
    library = _squeezed(README.partition("## Library\n")[2].partition("\n## ")[0])
    helpers = re.findall(r"`(\w+)`", re.search(r"lives? in `seqc\.model`: (.*?)\. ", library).group(1))
    assert helpers and [name for name in helpers if not hasattr(model, name)] == []


def test_readme_quick_tour_prints_what_readme_shows(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    tour = [(argv, output) for argv, output in _quick_tour() if argv[0] in ("validate", "simulate")]
    assert [argv[0] for argv, _ in tour] == ["validate", "simulate", "validate"]
    assert tour[1][0][-2:] == ["--duration", "C=5"]
    for argv, output in tour:
        main(argv)
        assert _squeezed(capsys.readouterr().out) == _squeezed(output), argv


def _readme_block_after(text: str) -> list[str]:
    """The lines of the first code block after `text` in README, less its `...` lines."""
    block = re.search(re.escape(text) + r".*?\n```\n(.*?)```", README, re.S).group(1)
    return [line for line in block.splitlines() if line.strip() != "..."]


@pytest.mark.parametrize("text,argv", [
    ("`--trace OUT` writes the",
     ["simulate", "--dsl", "fixtures/demo/dsl.xml", "fixtures/demo/five_stage.xml", "--json"]),
    ("The JSON document has three keys", ["graph", "fixtures/demo/five_stage.xml", "--json"]),
])
def test_readme_json_examples_are_the_output_with_lines_left_out(monkeypatch, capsys, text, argv):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    printed = iter(capsys.readouterr().out.splitlines())
    for line in _readme_block_after(text):
        assert line in printed, line  # consumes `printed` up to the match: lines stay in order


def test_the_package_imports_only_the_standard_library():
    for path in sorted((ROOT / "src" / "seqc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names or top == "seqc", (path.name, module)


# Counts the `compile` audit events of `<string>` sources that seqc asks
# for while `seqc.cli` imports: the first frame outside the standard
# library, counting outward from the compile, is one of seqc's.
_COMPILES_SCRIPT = """
import os, sys, sysconfig
stdlib, package = sysconfig.get_paths()["stdlib"] + os.sep, sys.argv[1]
compiles = []
def hook(event, args):
    if event == "compile" and args[1] == "<string>":
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_filename.startswith(stdlib):
            frame = frame.f_back
        if frame is not None and frame.f_code.co_filename.startswith(package):
            compiles.append(frame.f_code.co_filename)
sys.addaudithook(hook)
import seqc.cli
print(len(compiles))
"""


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="3.13's dataclasses exec one empty builder per class")
def test_importing_the_cli_compiles_no_source_text():
    # A frozen dataclass compiles its methods from text at every import:
    # 166 compiles, most of seqc's import time.  The value classes share
    # one base's methods instead.  A fresh interpreter, so nothing is cached.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", _COMPILES_SCRIPT, str(ROOT / "src" / "seqc")],
                            env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "0\n"


def test_every_value_class_runs_seqcs_own_methods():
    # On every Python, whatever dataclasses generates for a class: each
    # value class's methods are written in seqc, none is generated.
    package = str(ROOT / "src" / "seqc")
    classes = [value for name, module in sorted(sys.modules.items())
               if name.split(".")[0] == "seqc" for value in vars(module).values()
               if isinstance(value, type) and value.__module__ == name
               and dataclasses.is_dataclass(value)]
    assert len(classes) == 28 and all(issubclass(cls, model.Value) for cls in classes)
    for cls in classes:
        for method in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
            assert getattr(cls, method).__code__.co_filename.startswith(package), (cls, method)


_REIMPORT_SCRIPT = """
import gc, importlib, sys, weakref
importlib.import_module("seqc.cli")
classes = [weakref.ref(value)
           for name, module in list(sys.modules.items()) if name.split(".")[0] == "seqc"
           for value in vars(module).values()
           if isinstance(value, type) and value.__module__ == name]
for name in [name for name in sys.modules if name.split(".")[0] == "seqc"]:
    del sys.modules[name]
importlib.import_module("seqc.cli")
gc.collect()
print(len(classes), sum(ref() is not None for ref in classes))
"""


def test_a_reimport_leaves_nothing_of_the_previous_copy_alive():
    # A fresh interpreter: this session's own imports hold a copy of seqc.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", _REIMPORT_SCRIPT], env=env,
                            capture_output=True, text=True, check=True)
    taken, alive = map(int, result.stdout.split())
    assert taken > 50 and alive == 0


def test_the_package_declares_no_runtime_dependency():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r"^dependencies\s*=\s*\[(.*?)\]", pyproject, re.M | re.S)
    assert declared is not None and declared.group(1).strip() == ""


def test_json_is_written_only_by_seqcs_own_writers():
    """`jsonout.dumps` and `ValidationReport.to_json` write every JSON
    document: no module calls `json.dumps`, imports it, or builds a
    `JSONEncoder`.  Reading JSON with `json.loads` stays allowed."""
    banned = {"dump", "dumps", "JSONEncoder"}
    for path in sorted((ROOT / "src" / "seqc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("json", "json.encoder"):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                names = [alias.name for alias in node.names]
            else:
                continue
            assert banned.isdisjoint(names), (path.name, node.lineno, names)


# The texts of the rules `load_program` refuses a document by and `validate`
# reports, as patterns of their source, each with the one module that
# writes it, once: the two the precedence graph raises on too are the
# model's, the rest the validator's.
SHARED_RULE_TEXTS = {
    "has unknown component type": "validator.py",
    "runs on undeclared resource": "validator.py",
    "belongs to component": "validator.py",
    "is written for robot class": "validator.py",
    r"variable \{[^}]*\} has unknown type": "validator.py",
    r"action \{[^}]*\} has unknown type": "validator.py",
    "binds unknown parameter": "validator.py",
    r"binds parameter \{[^}]*\} twice": "validator.py",
    "is declared more than once": "model.py",
    "names unknown predecessor": "model.py",
}


def test_the_loader_and_the_validator_state_their_shared_rules_once():
    for path in sorted((ROOT / "src" / "seqc").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        found = {rule: len(re.findall(rule, text)) for rule in SHARED_RULE_TEXTS}
        assert {rule: n for rule, n in found.items() if n} == {
            rule: 1 for rule, home in SHARED_RULE_TEXTS.items() if home == path.name}, path.name


def test_no_module_imports_inside_a_function():
    # Every import is at module level, so a module's dependencies are read at its top.
    for path in sorted((ROOT / "src" / "seqc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [node.lineno for node in ast.walk(function)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
                assert not nested, (path.name, function.name, nested)
