"""End-to-end command-line behaviour and exit codes."""

import dataclasses
import gc
import json
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import support
from seqc import cli, codegen, program_io, simulator
from seqc.cli import main
from seqc.dsl import load_dsl, save_dsl
from seqc.errors import SeqcError
from seqc.program_io import save_program
from seqc.validator import validate
from support import fixture_path, fixture_text, reverse_chain_cycle

DEMO_DSL = str(fixture_path("demo/dsl.xml"))
FIVE_STAGE = str(fixture_path("demo/five_stage.xml"))
VACUUM_DSL = str(fixture_path("vacuum/dsl.xml"))
VACUUM_PARALLEL = str(fixture_path("vacuum/clean_parallel.xml"))
VACUUM_ORDERED = str(fixture_path("vacuum/clean_ordered.xml"))
NXT_DSL = str(fixture_path("nxt/dsl.xml"))
NXT_PROGRAM = str(fixture_path("nxt/obstacle_avoid.xml"))
NXT_GENERATOR = str(fixture_path("nxt/generator.xml"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate -----------------------------------------------------------------

def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", "--dsl", DEMO_DSL, FIVE_STAGE)
    assert code == 0
    assert out == "OK, 0 findings\n"
    assert err == ""


def test_validate_reports_mutex_violation(capsys):
    code, out, _ = run(capsys, "validate", "--dsl", VACUUM_DSL, VACUUM_PARALLEL)
    assert code == 1
    assert "error MutexViolation (driveAhead, dumpDirt)" in out
    assert out.rstrip().endswith("FAILED, 1 finding")

    code, out, _ = run(capsys, "validate", "--dsl", VACUUM_DSL, VACUUM_ORDERED)
    assert code == 0


def test_validate_json(capsys):
    code, out, _ = run(
        capsys, "validate", "--json", "--dsl", VACUUM_DSL, VACUUM_PARALLEL
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert [f["code"] for f in payload["findings"]] == ["MutexViolation"]
    assert payload["findings"][0]["subjects"] == ["driveAhead", "dumpDirt"]


def test_validate_strict_warnings(capsys, tmp_path):
    program = tmp_path / "warned.xml"
    program.write_text(
        '<Program name="W" robotClass="DemoRig">'
        '<Resources><Resource name="r" type="Station"/></Resources>'
        '<Variables><Variable name="spare" type="Int"/></Variables>'
        '<Actions><ActionInstance name="a" type="Step" resource="r"/></Actions>'
        "</Program>",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "validate", "--dsl", DEMO_DSL, str(program))
    assert code == 0
    assert "warning UnusedVariable (spare)" in out

    code, _, _ = run(
        capsys, "validate", "--strict-warnings", "--dsl", DEMO_DSL, str(program)
    )
    assert code == 1


# --- simulate -----------------------------------------------------------------

def test_simulate_timeline(capsys):
    code, out, err = run(capsys, "simulate", "--dsl", DEMO_DSL, FIVE_STAGE)
    assert code == 0
    assert err == ""
    assert "A  =..\n" in out
    assert out.endswith("makespan: 3\n")


def test_simulate_json(capsys):
    code, out, _ = run(capsys, "simulate", "--json", "--dsl", DEMO_DSL, FIVE_STAGE)
    assert code == 0
    payload = json.loads(out)
    assert payload["makespan"] == 3
    first = payload["events"][0]
    assert first == {"t": 0, "kind": "start", "action": "A", "resource": "ra"}


def test_simulate_duration_override(capsys):
    code, out, _ = run(
        capsys, "simulate", "--duration", "C=5", "--dsl", DEMO_DSL, FIVE_STAGE
    )
    assert code == 0
    assert out.endswith("makespan: 6\n")


@pytest.mark.parametrize("override", ["C", "=3", "C=fast", "Z=2", "A=1_0", "A= 3", "A=+3",
                                      "A=\u0663", "A=0", "A=-2"])
def test_simulate_bad_duration_overrides(capsys, override):
    code, _, err = run(
        capsys, "simulate", "--duration", override, "--dsl", DEMO_DSL, FIVE_STAGE
    )
    assert code == 2
    assert err.startswith("seqc: error:")


def test_duration_override_is_ascii_digits_after_an_optional_minus(capsys):
    # int() alone reads each of these as a number; the durations file refuses them too.
    for value in ("1_0", " 3", "+3", "\u0663", "\uff11"):
        code, _, err = run(capsys, "simulate", "--duration", f"A={value}",
                           "--dsl", DEMO_DSL, FIVE_STAGE)
        assert (code, err) == (2, f"seqc: error: --duration A: {value!r} is not an integer\n")
    for value in ("0", "-2"):
        code, _, err = run(capsys, "simulate", "--duration", f"A={value}",
                           "--dsl", DEMO_DSL, FIVE_STAGE)
        assert (code, err) == (2, "seqc: error: duration of 'A' must be a positive integer"
                                  f" tick count, got {value}\n")
    assert run(capsys, "simulate", "--duration", "A=03", "--dsl", DEMO_DSL,
               FIVE_STAGE)[1].endswith("makespan: 5\n")


def test_duration_override_splits_at_the_last_equals_sign(capsys, tmp_path):
    # An action name is an XML attribute and may hold "="; a value is digits.
    program = tmp_path / "eq.xml"
    program.write_text(fixture_text("demo", "five_stage.xml").replace('"C"', '"x=y"'),
                       encoding="utf-8")
    code, out, err = run(capsys, "simulate", "--duration", "x=y=5", "--dsl", DEMO_DSL,
                         str(program))
    assert (code, err) == (0, "")
    assert out.endswith("makespan: 6\n")


def test_simulate_durations_file(capsys, tmp_path):
    durations = tmp_path / "durations.json"
    durations.write_text(
        json.dumps({"default": 2, "actions": {"C": 5, "NotInProgram": 9}}),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys,
        "simulate", "--durations", str(durations), "--dsl", DEMO_DSL, FIVE_STAGE,
    )
    assert code == 0
    assert out.endswith("makespan: 7\n")


def test_simulate_flag_overrides_file(capsys, tmp_path):
    durations = tmp_path / "durations.json"
    for in_file in (5, 0):  # an override replaces even a value the file may not hold
        durations.write_text(json.dumps({"actions": {"C": in_file}}), encoding="utf-8")
        code, out, _ = run(
            capsys,
            "simulate", "--durations", str(durations), "--duration", "C=1",
            "--dsl", DEMO_DSL, FIVE_STAGE,
        )
        assert code == 0
        assert out.endswith("makespan: 3\n")


@pytest.mark.parametrize(
    "content",
    ["[]", '{"actions": []}', '{"actions": {"A": 0}}', '{"default": 0}', "{not json"],
)
def test_simulate_bad_durations_file(capsys, tmp_path, content):
    durations = tmp_path / "durations.json"
    durations.write_text(content, encoding="utf-8")
    code, _, err = run(
        capsys,
        "simulate", "--durations", str(durations), "--dsl", DEMO_DSL, FIVE_STAGE,
    )
    assert code == 2
    assert err.startswith(f"seqc: error: {durations}: ")


@pytest.mark.parametrize("content, name, value", [
    ('{"actions": {"A": 0}}', "A", "0"),
    ('{"actions": {"NotInProgram": -2}}', "NotInProgram", "-2"),
    ('{"default": true}', "default", "True"),
    ('{"default": 3, "actions": {"D": 1.5, "E": 0}}', "D", "1.5"),
])
def test_a_bad_durations_value_is_the_same_error_with_and_without_an_override(
        capsys, tmp_path, content, name, value):
    # The file's values are checked once when no --duration is given, and
    # less the one an override replaces when one is: B is never the bad value.
    durations = tmp_path / "durations.json"
    durations.write_text(content, encoding="utf-8")
    expected = (f"seqc: error: {durations}: duration of {name!r} must be a positive integer"
                f" tick count, got {value}\n")
    for overrides in ([], ["--duration", "B=2"], ["--duration", "B=2", "--duration", "C=3"]):
        code, out, err = run(capsys, "simulate", "--durations", str(durations), *overrides,
                             "--dsl", DEMO_DSL, FIVE_STAGE)
        assert (code, out, err) == (2, "", expected)


def test_each_duration_value_is_checked_once(capsys, tmp_path, monkeypatch):
    # With or without an override: the default, then A and B, each once.
    checked = []
    real_init = simulator.DurationMap.__init__

    def counting_init(self, per_action=None, default=1):
        checked.extend(["default", *(per_action or {})])
        real_init(self, per_action, default)

    monkeypatch.setattr(simulator.DurationMap, "__init__", counting_init)
    durations = tmp_path / "durations.json"
    durations.write_text(json.dumps({"default": 2, "actions": {"A": 3, "B": 4}}), encoding="utf-8")
    for overrides, values in (([], "AB"), (["A=5"], "AB"), (["B=1", "C=6"], "ABC")):
        checked.clear()
        code, _, err = run(capsys, "simulate", "--durations", str(durations),
                           *[f"--duration={override}" for override in overrides],
                           "--dsl", DEMO_DSL, FIVE_STAGE)
        assert (code, err) == (0, "")
        assert sorted(checked) == sorted(["default", *values])
    # A bad value of the file's own comes first, then the first bad override in
    # the file's order.
    bad = "must be a positive integer tick count, got 0\n"
    for content, overrides, expected in (
            ({"A": 0}, ["B=0"], f"{durations}: duration of 'A' {bad}"),
            ({"A": 0}, ["A=0"], f"duration of 'A' {bad}"),
            ({"A": 3, "B": 4}, ["B=0", "A=0"], f"duration of 'A' {bad}"),
            ({"B": 4}, ["C=0", "A=0", "B=0"], f"duration of 'B' {bad}")):
        durations.write_text(json.dumps({"actions": content}), encoding="utf-8")
        code, out, err = run(capsys, "simulate", "--durations", str(durations),
                             *[f"--duration={override}" for override in overrides],
                             "--dsl", DEMO_DSL, FIVE_STAGE)
        assert (code, out, err) == (2, "", f"seqc: error: {expected}")


@pytest.mark.parametrize("content, key", [
    ('{"Default": 5, "Actions": {"C": 9}}', "Default"),
    ('{"default": 5, "actions": {"C": 9}, "action": {"C": 1}}', "action"),
    ('{"": 1, "zeta": 2}', ""),
    ('{"actions": {}, "d\u00e9fault": 2}', "d\u00e9fault"),
])
def test_durations_file_refuses_an_unknown_key(capsys, tmp_path, content, key):
    # The first key in the file that is not "default" or "actions" is named.
    durations = tmp_path / "durations.json"
    durations.write_text(content, encoding="utf-8")
    code, out, err = run(
        capsys, "simulate", "--durations", str(durations), "--dsl", DEMO_DSL, FIVE_STAGE)
    assert (code, out) == (2, "")
    assert err == f"seqc: error: {durations}: unknown key {key!r}\n"


def test_malformed_durations_file_error_names_the_file(capsys, tmp_path):
    durations = tmp_path / "durations.json"
    durations.write_text("{bad", encoding="utf-8")
    code, out, err = run(
        capsys, "simulate", "--durations", str(durations), "--dsl", DEMO_DSL, FIVE_STAGE)
    assert (code, out) == (2, "")
    assert err == (f"seqc: error: {durations}: Expecting property name enclosed in double"
                   " quotes: line 1 column 2 (char 1)\n")


def test_simulate_invalid_program_suggests_force(capsys):
    code, _, err = run(capsys, "simulate", "--dsl", VACUUM_DSL, VACUUM_PARALLEL)
    assert code == 1
    assert "MutexViolation" in err
    assert "--force" in err

    code, out, _ = run(
        capsys, "simulate", "--force", "--dsl", VACUUM_DSL, VACUUM_PARALLEL
    )
    assert code == 0
    assert out.endswith("makespan: 2\n")


def test_simulate_trace_output(capsys, tmp_path):
    trace_file = tmp_path / "trace.json"
    code, _, _ = run(
        capsys,
        "simulate", "--trace", str(trace_file), "--dsl", DEMO_DSL, FIVE_STAGE,
    )
    assert code == 0
    payload = json.loads(trace_file.read_text(encoding="utf-8"))
    assert payload["makespan"] == 3
    assert {e["kind"] for e in payload["events"]} == {"start", "finish"}


def test_simulate_trace_and_json_render_the_trace_once(capsys, tmp_path, monkeypatch):
    calls = []
    render = simulator.trace_to_json
    monkeypatch.setattr(simulator, "trace_to_json", lambda trace: calls.append(1) or render(trace))
    trace_file = tmp_path / "trace.json"
    code, out, _ = run(
        capsys,
        "simulate", "--trace", str(trace_file), "--json", "--dsl", DEMO_DSL, FIVE_STAGE,
    )
    assert code == 0
    assert len(calls) == 1
    assert trace_file.read_text(encoding="utf-8") == out
    assert json.loads(out)["makespan"] == 3


def test_simulate_refuses_a_text_timeline_too_long_to_build(capsys, tmp_path):
    # Six rows of 10**10 ticks: refused before any text is built and before
    # --trace is written; --json answers the same command.
    trace_file = tmp_path / "trace.json"
    argv = ("simulate", "--duration", "A=10000000000", "--trace", str(trace_file),
            "--dsl", DEMO_DSL, FIVE_STAGE)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("seqc: error: a text timeline of 60000000036 characters is over the"
                   f" limit of {2**30}; use --json, and --trace FILE to keep it\n")
    assert not trace_file.exists()
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["makespan"] == 10000000002
    assert trace_file.read_text(encoding="utf-8") == out


# --- generate -----------------------------------------------------------------

def test_generate_writes_outputs(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
        "--templates", NXT_GENERATOR, "--out", str(tmp_path),
    )
    assert code == 0
    assert err == ""
    assert out.strip().endswith("ObstacleAvoid.nxc")
    text = (tmp_path / "ObstacleAvoid.nxc").read_text(encoding="utf-8")
    assert text.startswith('#include "NXCDefs.h"\n')
    assert text.count("SensorUS(") == 2


def test_generate_refuses_overwrite_then_forces(capsys, tmp_path):
    argv = (
        "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
        "--templates", NXT_GENERATOR, "--out", str(tmp_path),
    )
    assert run(capsys, *argv)[0] == 0
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "refusing to overwrite" in err
    assert run(capsys, *argv, "--force")[0] == 0


def test_generate_json_output(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "generate", "--json", "--dsl", NXT_DSL, NXT_PROGRAM,
        "--templates", NXT_GENERATOR, "--out", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    assert payload["warnings"] == []
    assert len(payload["written"]) == 1
    assert payload["written"][0].endswith("ObstacleAvoid.nxc")


def test_generate_rejects_invalid_program(capsys, tmp_path):
    generator = tmp_path / "gen.xml"
    generator.write_text("<Generator/>", encoding="utf-8")
    code, _, err = run(
        capsys,
        "generate", "--dsl", VACUUM_DSL, VACUUM_PARALLEL,
        "--templates", str(generator), "--out", str(tmp_path),
    )
    assert code == 1
    assert "MutexViolation" in err


def test_generate_config_clash_is_refused_before_validation(capsys, tmp_path):
    (tmp_path / "a.vt").write_text("a", encoding="utf-8")
    generator = tmp_path / "gen.xml"
    generator.write_text(
        '<Generator><ActionTemplate actionType="X" file="a.vt"/>'
        '<ComponentTemplate componentType="X" file="a.vt"/></Generator>',
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys,
        "generate", "--dsl", VACUUM_DSL, VACUUM_PARALLEL,
        "--templates", str(generator), "--out", str(out_dir),
    )
    assert (code, out) == (2, "")
    assert err == (f"seqc: error: {generator}: template id 'X' is used for both"
                   " an action type and a component type\n")
    assert not out_dir.exists()


def test_generate_render_error_and_lenient(capsys, tmp_path):
    (tmp_path / "main.vt").write_text("$Program.getBogus()end\n", encoding="utf-8")
    generator = tmp_path / "gen.xml"
    generator.write_text(
        '<Generator><Main file="main.vt" output="out.txt"/></Generator>',
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    argv = (
        "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
        "--templates", str(generator), "--out", str(out_dir),
    )
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "seqc: render error:" in err
    assert not out_dir.exists()

    code, _, err = run(capsys, *argv, "--lenient")
    assert code == 0
    assert "seqc: warning:" in err
    assert (out_dir / "out.txt").read_text(encoding="utf-8") == "end\n"

    # Two warnings, so the list separator is pinned too.
    (tmp_path / "main.vt").write_text("$Program.getBogus()$Program.getOther()end\n",
                                      encoding="utf-8")
    code, out, err = run(capsys, *argv, "--lenient", "--json", "--force")
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    assert payload["written"] == [str(out_dir / "out.txt")]
    assert len(payload["warnings"]) == err.count("seqc: warning:") == 2


def test_lenient_warnings_of_an_action_template_name_their_action(capsys, tmp_path):
    # Both ReadSonar actions render read_sonar.vt: each warning says which one.
    shutil.copytree(fixture_path("nxt"), tmp_path / "nxt")
    template = tmp_path / "nxt" / "templates" / "read_sonar.vt"
    template.write_text("$Action.getParameters().getIndex()\n", encoding="utf-8")
    argv = ("generate", "--dsl", NXT_DSL, NXT_PROGRAM, "--templates",
            str(tmp_path / "nxt" / "generator.xml"), "--out", str(tmp_path / "out"))
    code, _, err = run(capsys, *argv, "--lenient")
    assert code == 0
    reason = "('index' cannot be called without arguments)"
    assert err.splitlines() == [
        f"seqc: warning: ReadSonar:1 (inserted for Action {name!r}): unresolved"
        f" reference $Action.getParameters().getIndex() {reason}"
        for name in ("readLeft", "readRight")]
    # Strict output is unchanged: the template's own id and line.
    code, _, err = run(capsys, *argv, "--force")
    assert code == 1
    assert err == ("seqc: render error: cannot resolve $Action.getParameters().getIndex():"
                   f" {reason[1:-1]} [ReadSonar:1]\n")


def test_generate_reports_a_step_that_needs_arguments(capsys, tmp_path):
    # str.join needs an argument: a render error, not a traceback.
    (tmp_path / "main.vt").write_text("[$Program.getName().getJoin()]\n", encoding="utf-8")
    generator = tmp_path / "gen.xml"
    generator.write_text(
        '<Generator><Main file="main.vt" output="out.txt"/></Generator>',
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    argv = (
        "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
        "--templates", str(generator), "--out", str(out_dir),
    )
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("seqc: render error: cannot resolve $Program.getName().getJoin():"
                   " 'join' cannot be called without arguments [main.vt:1]\n")
    assert not out_dir.exists()

    code, _, err = run(capsys, *argv, "--lenient")
    assert code == 0 and err.count("seqc: warning:") == 1
    assert (out_dir / "out.txt").read_text(encoding="utf-8") == "[]\n"


# Every public method of the types a template value can have, called with
# no arguments: some need arguments, and some raise on the values below.
_STEPS = sorted({name for kind in (str, int, tuple) for name in dir(kind)
                 if not name.startswith("_") and callable(getattr(kind, name))})
_TEXT_REFERENCE = re.compile(r"\$[A-Za-z_]\w*(?:\.[A-Za-z_]\w*(?:\(\))?)*")
_INTS = "#set($low = -3)\n#set($high = 300)\n[$low] [$high]\n"  # how ints reach a step


def _with_steps(template: str, steps) -> str:
    """`template` with each text line repeated once per step, the step
    appended to each of its references; directive lines are kept as they are."""
    lines = []
    for line in template.splitlines(keepends=True):
        if line.lstrip().startswith("#") or "$" not in line:
            lines.append(line)
        else:
            lines += [_TEXT_REFERENCE.sub(lambda m: f"{m.group(0)}.{step}()", line)
                      for step in steps]
    return "".join(lines)


def _braced(program):
    """The program with its name and its action names holding "{" and "}"."""
    marks = ("{", "{0}", "{x}", "}")
    rename = {a.name: a.name + marks[i % 4] for i, a in enumerate(program.actions)}
    return dataclasses.replace(program, name=program.name + "{", actions=tuple(
        dataclasses.replace(a, name=rename[a.name],
                            predecessors=[rename[p] for p in a.predecessors])
        for a in program.actions))


def test_template_steps_keep_the_exit_code_contract(capsys, tmp_path):
    # Strict runs take one step at a time, since the first unresolved
    # reference ends them, and meet the ints first only for an int method;
    # lenient runs take all steps in one render.
    cases = []
    for fixture, program_file in (("nxt", "obstacle_avoid.xml"),
                                  ("service_robot", "grasp_demo.xml")):
        source = fixture_path(fixture)
        dsl_path = str(source / "dsl.xml")
        program = program_io.load_program(fixture_text(fixture, program_file),
                                           load_dsl(fixture_text(fixture, "dsl.xml")))
        programs = []
        for k, variant in enumerate((program, _braced(program))):
            path = tmp_path / f"{fixture}-{k}.xml"
            path.write_text(save_program(variant), encoding="utf-8")
            programs.append(str(path))
        for steps, mode in [([step], []) for step in _STEPS] + [(_STEPS, ["--lenient"])]:
            config = tmp_path / fixture / (mode[0] if mode else steps[0])
            shutil.copytree(source / "templates", config / "templates")
            shutil.copy(source / "generator.xml", config)
            for template in (config / "templates").iterdir():
                text = template.read_text(encoding="utf-8")
                if template.name == "main.vt":
                    text = _INTS + text if hasattr(int, steps[0]) else text + _INTS
                template.write_text(_with_steps(text, steps), encoding="utf-8")
            cases += [("generate", "--dsl", dsl_path, path, "--templates",
                       str(config / "generator.xml"), "--out", str(tmp_path / "out"),
                       "--force", *mode) for path in programs]
    raised = Counter()  # runs that met a call that raised, by mode
    for argv in cases:
        code, _, err = run(capsys, *argv)
        lines = err.splitlines()
        assert code in (0, 1) and "Traceback" not in err, argv
        if code:
            assert len(lines) == 1 and lines[0].startswith("seqc: render error: "), argv
        else:
            assert all(line.startswith("seqc: warning: ") for line in lines), argv
            assert "--lenient" in argv or not lines, argv
        raised["--lenient" in argv] += "' raised " in err
    assert raised[False] >= 4 and raised[True] == 4, raised


def test_generate_refuses_an_output_named_for_the_directory(capsys, tmp_path):
    (tmp_path / "main.vt").write_text("text\n", encoding="utf-8")
    generator = tmp_path / "gen.xml"
    generator.write_text(
        '<Generator><Main file="main.vt" output="a.txt"/>'
        '<Main file="main.vt" output="."/></Generator>',
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = (
        "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
        "--templates", str(generator), "--out", str(out_dir),
    )
    for extra in ((), ("--force",)):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2
        assert out == ""
        assert "escapes the output directory" in err
        assert err.count("\n") == 1
        assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("outputs, message", [
    (("sub", "sub/b.txt"), "to be a directory"),
    (("a.txt", "d"), "is an existing directory"),
])
def test_generate_refuses_an_output_that_is_or_holds_a_directory(capsys, tmp_path, outputs, message):
    (tmp_path / "main.vt").write_text("text\n", encoding="utf-8")
    generator = tmp_path / "gen.xml"
    generator.write_text("<Generator>" + "".join(
        f'<Main file="main.vt" output="{name}"/>' for name in outputs) + "</Generator>",
        encoding="utf-8")
    out_dir = tmp_path / "out"
    (out_dir / "d").mkdir(parents=True)
    code, out, err = run(capsys, "generate", "--dsl", NXT_DSL, NXT_PROGRAM, "--force",
                         "--templates", str(generator), "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err.startswith("seqc: error:") and message in err and err.count("\n") == 1
    assert list(out_dir.iterdir()) == [out_dir / "d"] and list((out_dir / "d").iterdir()) == []


@pytest.mark.parametrize("outputs, message", [
    (("",), "output pattern 'main.vt#output' produced an unusable file name: ''"),
    (("a&#10;b",), "output pattern 'main.vt#output' produced an unusable file name: 'a\\nb'"),
    # The `nm` template renders a name holding a NUL byte.
    (("#foreach($r in $Program.resources)#insert(nm, $r)#end",), "holds a NUL byte"),
    # The output directory does not exist, so only the write of the second
    # file meets the name the file system refuses.
    (("a.nxc", "x" * 300), "File name too long"),
])
def test_generate_refuses_an_unusable_output_name_and_writes_nothing(capsys, tmp_path, outputs, message):
    (tmp_path / "main.vt").write_text("text\n", encoding="utf-8")
    (tmp_path / "name.vt").write_text("a\0b", encoding="utf-8")
    generator = tmp_path / "gen.xml"
    generator.write_text('<Generator><ComponentTemplate componentType="nm" file="name.vt"/>' + "".join(
        f'<Main file="main.vt" output="{name}"/>' for name in outputs) + "</Generator>",
        encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(capsys, "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
                         "--templates", str(generator), "--out", str(tmp_path / "out4"))
    assert (code, out) == (2, "")
    assert err.startswith("seqc: error: ") and message in err and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_generate_missing_config(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
        "--templates", str(tmp_path / "nope.xml"), "--out", str(tmp_path),
    )
    assert code == 2
    assert err.startswith("seqc: error:")



def test_generate_non_utf8_config_is_a_one_line_error(capsys, tmp_path):
    generator = tmp_path / "gen.xml"
    generator.write_bytes(b"\xff")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
                         "--templates", str(generator), "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err.startswith(f"seqc: error: {generator}: not UTF-8 text: ")
    assert err.count("\n") == 1
    assert not out_dir.exists()


def test_generate_non_utf8_template_is_a_one_line_error(capsys, tmp_path):
    template = tmp_path / "main.vt"
    template.write_bytes(b"\xff")
    generator = tmp_path / "gen.xml"
    generator.write_text('<Generator><Main file="main.vt" output="out.txt"/></Generator>',
                         encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
                         "--templates", str(generator), "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err.startswith(f"seqc: error: {generator}: {template}: not UTF-8 text: ")
    assert err.count("\n") == 1
    assert not out_dir.exists()

def test_generate_missing_absolute_template_is_a_one_line_error(capsys, tmp_path):
    missing = tmp_path / "missing.vt"
    generator = tmp_path / "gen.xml"
    generator.write_text(f'<Generator><Main file="{missing}" output="out.txt"/></Generator>',
                         encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
                         "--templates", str(generator), "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err == f"seqc: error: {generator}: template file not found: {missing}\n"
    assert not out_dir.exists()


def test_generate_template_search_path(capsys, tmp_path, monkeypatch):
    config_dir = tmp_path / "config"
    shared_dir = tmp_path / "shared"
    out_dir = tmp_path / "out"
    config_dir.mkdir()
    shared_dir.mkdir()
    (shared_dir / "main.vt").write_text("from shared\n", encoding="utf-8")
    generator = config_dir / "gen.xml"
    generator.write_text(
        '<Generator><Main file="main.vt" output="out.txt"/></Generator>',
        encoding="utf-8",
    )
    argv = (
        "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
        "--templates", str(generator), "--out", str(out_dir),
    )
    monkeypatch.delenv("SEQC_TEMPLATE_PATH", raising=False)
    assert run(capsys, *argv)[0] == 2
    monkeypatch.setenv("SEQC_TEMPLATE_PATH", str(shared_dir))
    assert run(capsys, *argv)[0] == 0
    assert (out_dir / "out.txt").read_text(encoding="utf-8") == "from shared\n"


# --- graph --------------------------------------------------------------------

def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", FIVE_STAGE)
    assert code == 0
    assert out.startswith("digraph FiveStage {\n")
    assert '  "A" -> "D";\n' in out
    assert out.endswith("}\n")


def test_graph_json(capsys):
    code, out, _ = run(capsys, "graph", "--json", FIVE_STAGE)
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "FiveStage"
    assert {"name": "A", "type": "Step", "resource": "ra"} in payload["nodes"]
    assert payload["edges"][0] == {"from": "A", "to": "D"}
    assert len(payload["edges"]) == 5


def test_graph_accepts_cycles_without_dsl(capsys, tmp_path):
    looped = tmp_path / "loop.xml"
    looped.write_text(
        '<Program name="Loop" robotClass="DemoRig">'
        '<Resources><Resource name="r" type="Station"/></Resources>'
        "<Actions>"
        '<ActionInstance name="a" type="Step" resource="r"/>'
        '<ActionInstance name="b" type="Step" resource="r"/>'
        "</Actions>"
        '<Constraints><After action="a" predecessor="b"/><After action="b" predecessor="a"/></Constraints>'
        "</Program>",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "graph", str(looped))
    assert code == 0
    assert '"a" -> "b"' in out and '"b" -> "a"' in out

    code, _, err = run(capsys, "graph", "--dsl", DEMO_DSL, str(looped))
    assert code == 2
    assert "cycle" in err

    # A self-loop and an undeclared resource are drawn too, and refused with the DSL.
    for constraint, resource, edge, message in (
            ('<After action="a" predecessor="a"/>', "r", '"a" -> "a"',
             "precedence graph contains a cycle: a -> a"),
            ("", "ghost", '[label="a: Step @ghost"]',
             "action 'a' runs on undeclared resource 'ghost'")):
        flawed = tmp_path / "flawed.xml"
        flawed.write_text(
            '<Program name="Flawed" robotClass="DemoRig">'
            '<Resources><Resource name="r" type="Station"/></Resources>'
            f'<Actions><ActionInstance name="a" type="Step" resource="{resource}"/></Actions>'
            f"<Constraints>{constraint}</Constraints></Program>",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "graph", str(flawed))
        assert code == 0 and edge in out
        code, out, err = run(capsys, "graph", "--dsl", DEMO_DSL, str(flawed))
        assert (code, out, err) == (2, "", f"seqc: error: {flawed}: {message}\n")


def test_graph_with_dsl_checks_references(capsys):
    code, out, _ = run(capsys, "graph", "--dsl", DEMO_DSL, FIVE_STAGE)
    assert code == 0
    assert "digraph FiveStage" in out


# --- failure plumbing -----------------------------------------------------------

def test_missing_program_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "validate", "--dsl", DEMO_DSL, str(tmp_path / "nope.xml")
    )
    assert code == 2
    assert err.startswith("seqc: error:")


def test_malformed_program_file(capsys, tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("<Program", encoding="utf-8")
    code, _, err = run(capsys, "validate", "--dsl", DEMO_DSL, str(bad))
    assert code == 2
    assert str(bad) in err


def test_malformed_dsl_file(capsys, tmp_path):
    bad = tmp_path / "bad_dsl.xml"
    bad.write_text("<RobotClassDSL name='X'><Nope/></RobotClassDSL>", encoding="utf-8")
    code, _, err = run(capsys, "validate", "--dsl", str(bad), FIVE_STAGE)
    assert code == 2
    assert str(bad) in err


def test_deep_cycle_is_a_one_line_error(capsys, tmp_path):
    dsl, program = reverse_chain_cycle(1500)
    dsl_file, program_file = tmp_path / "dsl.xml", tmp_path / "chain.xml"
    dsl_file.write_text(save_dsl(dsl), encoding="utf-8")
    program_file.write_text(save_program(program), encoding="utf-8")
    code, out, err = run(capsys, "validate", "--dsl", str(dsl_file), str(program_file))
    assert code == 2
    assert out == ""
    assert err.startswith(f"seqc: error: {program_file}: ") and err.count("\n") == 1



@pytest.mark.parametrize("command", ["validate", "simulate", "generate", "graph"])
def test_robot_class_mismatch_is_a_one_line_error(capsys, tmp_path, command):
    foreign = tmp_path / "foreign.xml"
    foreign.write_text(fixture_text("nxt/obstacle_avoid.xml").replace(
        'robotClass="LegoNxt"', 'robotClass="SomethingElse"'), encoding="utf-8")
    extra = ["--templates", NXT_GENERATOR, "--out", str(tmp_path / "out")] \
        if command == "generate" else []
    code, out, err = run(capsys, command, "--dsl", NXT_DSL, str(foreign), *extra)
    assert code == 2
    assert out == ""
    assert err.startswith(f"seqc: error: {foreign}: ") and err.count("\n") == 1
    assert "'SomethingElse'" in err and "'LegoNxt'" in err
    assert not (tmp_path / "out").exists()
    if command == "graph":  # without --dsl nothing is resolved
        code, out, _ = run(capsys, "graph", str(foreign))
        assert code == 0 and out.startswith("digraph ObstacleAvoid {")


def test_a_program_of_one_fixture_against_another_fixtures_dsl(capsys):
    # The robot class is judged before any action type, none of which DemoRig has.
    code, out, err = run(capsys, "validate", "--dsl", DEMO_DSL, NXT_PROGRAM)
    assert (code, out) == (2, "")
    assert err == (f"seqc: error: {NXT_PROGRAM}: program is written for robot class"
                   " 'LegoNxt', but the DSL is 'DemoRig'\n")


def _assert_nested_too_deeply(code, out, err):
    assert code == 2
    assert out == ""
    assert err == "seqc: error: input is nested too deeply\n"  # one line, no traceback
    assert gc.isenabled()


def test_deep_composite_literal_is_a_one_line_error(capsys, tmp_path, collector_on):
    # One nesting level per frame at least, so this depth always overflows.
    depth = sys.getrecursionlimit()
    types = "".join(
        f'<VariableType name="T{i}"><Field name="f" type="{f"T{i + 1}" if i + 1 < depth else "Int"}"/>'
        '</VariableType>' for i in range(depth))
    dsl_file, program_file = tmp_path / "dsl.xml", tmp_path / "program.xml"
    dsl_file.write_text(
        f'<RobotClassDSL name="Deep"><VariableTypes>{types}</VariableTypes>'
        '<ResourceComponent type="Unit"><Action actionIdentifier="Step"/>'
        '</ResourceComponent></RobotClassDSL>', encoding="utf-8")
    literal = ('<Field name="f">' * (depth - 1) + '<Field name="f" value="1"/>'
               + '</Field>' * (depth - 1))
    program_file.write_text(
        '<Program name="P" robotClass="Deep"><Resources><Resource name="r" type="Unit"/>'
        f'</Resources><Variables><Variable name="v" type="T0">{literal}</Variable>'
        '</Variables><Actions><ActionInstance name="a" type="Step" resource="r"/>'
        '</Actions></Program>', encoding="utf-8")
    code, out, err = run(capsys, "validate", "--dsl", str(dsl_file), str(program_file))
    assert (code, out) == (2, "")
    # One line, no traceback, path-prefixed like every other load error.
    assert err == f"seqc: error: {program_file}: variable 'v': literal nested too deeply\n"
    assert gc.isenabled()


def test_deep_action_literal_keeps_its_place_in_the_error_order(capsys, tmp_path, collector_on):
    depth = sys.getrecursionlimit()
    types = "".join(
        f'<VariableType name="T{i}"><Field name="f" type="{f"T{i + 1}" if i + 1 < depth else "Int"}"/>'
        '</VariableType>' for i in range(depth))
    dsl_file, program_file = tmp_path / "dsl.xml", tmp_path / "program.xml"
    dsl_file.write_text(
        f'<RobotClassDSL name="Deep"><VariableTypes>{types}</VariableTypes>'
        '<ResourceComponent type="Unit"><Action actionIdentifier="Step">'
        '<ParameterList><Parameter name="p" type="T0"/></ParameterList></Action>'
        '</ResourceComponent></RobotClassDSL>', encoding="utf-8")
    literal = ('<Field name="f">' * (depth - 1) + '<Field name="f" value="1"/>'
               + '</Field>' * (depth - 1))
    # The literal is a reading failure: one of action 'b', which comes
    # first in the document, is reported before it.
    bad_arg = '<Arg param="q"/>'
    program_file.write_text(
        '<Program name="P" robotClass="Deep"><Resources><Resource name="r" type="Unit"/>'
        f'</Resources><Actions><ActionInstance name="b" type="Nope" resource="ghost">{bad_arg}'
        f'</ActionInstance><ActionInstance name="a" type="Step" resource="r"><Arg param="p">'
        f'{literal}</Arg></ActionInstance></Actions></Program>', encoding="utf-8")
    code, out, err = run(capsys, "validate", "--dsl", str(dsl_file), str(program_file))
    assert (code, out) == (2, "")
    assert err == (f"seqc: error: {program_file}: action 'b', parameter 'q': exactly one of"
                   " variable=, value=, or nested <Field> elements is required\n")
    # Once 'b' reads, the literal comes before its unknown type and its
    # undeclared resource, which only the declaration rules judge, after
    # every entry is read.
    program_file.write_text(program_file.read_text(encoding="utf-8").replace(bad_arg, ""),
                            encoding="utf-8")
    code, out, err = run(capsys, "validate", "--dsl", str(dsl_file), str(program_file))
    assert (code, out) == (2, "")
    assert err == f"seqc: error: {program_file}: action 'a': literal nested too deeply\n"


def test_an_unknown_action_type_is_refused_with_validates_line(capsys, tmp_path):
    # The loader raises the finding `validate` reports for the program built in memory.
    dsl = load_dsl(fixture_text("demo/dsl.xml"))
    program = program_io.load_program(fixture_text("demo/five_stage.xml"), dsl)
    first = program.actions[0]
    program = dataclasses.replace(program, actions=(
        dataclasses.replace(first, action_type="Nope"), *program.actions[1:]))
    [line] = [text for text in validate(program, dsl).render_text().splitlines()
              if text.startswith("error ")]
    assert line == (f"error UnresolvedReference ({first.name}, Nope):"
                    f" action {first.name!r} has unknown type 'Nope'")
    program_file = tmp_path / "program.xml"
    program_file.write_text(save_program(program), encoding="utf-8")
    code, out, err = run(capsys, "validate", "--dsl", DEMO_DSL, str(program_file))
    assert (code, out) == (2, "")
    assert err == f"seqc: error: {program_file}: {line.partition('): ')[2]}\n"


def test_deep_durations_json_is_a_one_line_error(capsys, tmp_path, collector_on):
    durations = tmp_path / "durations.json"
    durations.write_text("[" * 200_000, encoding="utf-8")
    _assert_nested_too_deeply(*run(
        capsys, "simulate", "--dsl", DEMO_DSL, FIVE_STAGE, "--durations", str(durations)))


def _assert_one_line_error(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("seqc: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_durations_int_past_the_digit_limit_is_a_one_line_error(capsys, tmp_path):
    durations = tmp_path / "durations.json"
    durations.write_text('{"actions": {"A": %s}}' % ("9" * (sys.get_int_max_str_digits() + 1)),
                         encoding="utf-8")
    _assert_one_line_error(*run(
        capsys, "simulate", "--json", "--dsl", DEMO_DSL, FIVE_STAGE, "--durations", str(durations)))


def test_template_int_past_the_digit_limit_is_a_one_line_error(capsys, tmp_path):
    (tmp_path / "main.vt").write_text(
        "x\n#set($x = %s)\n" % ("9" * (sys.get_int_max_str_digits() + 1)), encoding="utf-8")
    generator = tmp_path / "gen.xml"
    generator.write_text('<Generator><Main file="main.vt" output="out.txt"/></Generator>',
                         encoding="utf-8")
    code, out, err = run(capsys, "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
                         "--templates", str(generator), "--out", str(tmp_path / "out"))
    _assert_one_line_error(code, out, err)
    assert err.endswith("is too long [main.vt:2]\n")  # the line of the #set


@pytest.mark.parametrize("output", [["--json"], ["--trace", "trace.json"]])
def test_finish_time_past_the_digit_limit_is_a_one_line_error(capsys, tmp_path, monkeypatch,
                                                              output):
    # Each duration has as many digits as the limit allows; D finishes at
    # their sum, which has one more.  The text timeline would take one
    # character per tick, so only the JSON outputs are run.
    monkeypatch.chdir(tmp_path)
    nines = "9" * sys.get_int_max_str_digits()
    _assert_one_line_error(*run(
        capsys, "simulate", *output, "--dsl", DEMO_DSL, FIVE_STAGE,
        "--duration", f"A={nines}", "--duration", f"D={nines}"))
    assert not (tmp_path / "trace.json").exists()


@pytest.mark.parametrize("argv", [
    ["validate", "--dsl", "", FIVE_STAGE],
    ["simulate", "--dsl", DEMO_DSL, FIVE_STAGE, "--durations", ""],
    ["simulate", "--dsl", DEMO_DSL, FIVE_STAGE, "--trace", ""],
    ["simulate", "--json", "--dsl", DEMO_DSL, FIVE_STAGE, "--trace", ""],
    ["graph", "--dsl", "", FIVE_STAGE],
    ["graph", "--json", "--dsl", "", FIVE_STAGE],
    ["generate", "--dsl", NXT_DSL, NXT_PROGRAM, "--templates", NXT_GENERATOR, "--out", ""],
    ["generate", "--dsl", NXT_DSL, NXT_PROGRAM, "--templates", ""],
    ["validate", "--dsl", DEMO_DSL, ""],
    ["graph", ""],
])
def test_an_option_given_an_empty_value_is_a_one_line_error(capsys, tmp_path, monkeypatch,
                                                             argv):
    # An empty path names no file; it is not the option left out, nor the
    # current directory.  The error names the option, or PROGRAM.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    _assert_one_line_error(code, out, err)
    empty = argv.index("")
    option = argv[empty - 1] if argv[empty - 1].startswith("--") else "PROGRAM"
    assert err == f"seqc: error: {option}: empty path\n"
    assert list(tmp_path.iterdir()) == []


def test_deep_template_blocks_render(capsys, tmp_path, collector_on):
    # Template blocks nest to any depth: neither the parser nor the
    # renderer recurses.
    depth = sys.getrecursionlimit()
    (tmp_path / "main.vt").write_text(
        "#if($Program)\n" * depth + "x\n" + "#end\n" * depth, encoding="utf-8")
    generator = tmp_path / "gen.xml"
    generator.write_text('<Generator><Main file="main.vt" output="out.txt"/></Generator>',
                         encoding="utf-8")
    code, out, err = run(capsys, "generate", "--dsl", NXT_DSL, NXT_PROGRAM,
                         "--templates", str(generator), "--out", str(tmp_path / "out"))
    assert (code, err) == (0, "")
    assert out == f"{tmp_path / 'out' / 'out.txt'}\n"
    assert (tmp_path / "out" / "out.txt").read_bytes() == b"x\n"
    assert gc.isenabled()


@pytest.mark.parametrize("bad_input", ["dsl", "program"])
def test_non_utf8_input_is_a_one_line_error(capsys, tmp_path, bad_input):
    bad = tmp_path / "bad.xml"
    bad.write_bytes(b"\xff\xfe<Program/>")
    dsl, program = (str(bad), FIVE_STAGE) if bad_input == "dsl" else (DEMO_DSL, str(bad))
    code, _, err = run(capsys, "validate", "--dsl", dsl, program)
    assert code == 2
    assert err.startswith(f"seqc: error: {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["validate", FIVE_STAGE],  # --dsl is required here
        ["graph", "--format", "svg", FIVE_STAGE],
        ["simulate", "--dsl", DEMO_DSL],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2


# --- the collector pause ----------------------------------------------------------

@pytest.fixture
def collector_on():
    gc.enable()
    yield
    gc.enable()


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["validate", "--dsl", DEMO_DSL, FIVE_STAGE], 0),
        (["validate", "--dsl", VACUUM_DSL, VACUUM_PARALLEL], 1),
        (["validate", "--dsl", DEMO_DSL, "{bad_utf8}"], 2),  # SeqcError
        (["validate", "--dsl", DEMO_DSL, "{missing}"], 2),  # OSError
        (["simulate", "--dsl", DEMO_DSL, FIVE_STAGE, "--durations", "{bad_json}"], 2),
        (["validate", FIVE_STAGE], SystemExit),  # argparse: --dsl is required
    ],
)
def test_main_leaves_the_collector_on(capsys, tmp_path, collector_on, argv, expected):
    (tmp_path / "bad.xml").write_bytes(b"\xff<Program/>")
    (tmp_path / "bad.json").write_text("{", encoding="utf-8")
    argv = [arg.format(bad_utf8=tmp_path / "bad.xml", missing=tmp_path / "nope.xml",
                       bad_json=tmp_path / "bad.json") for arg in argv]
    if expected is SystemExit:
        with pytest.raises(SystemExit):
            main(argv)
    else:
        assert main(argv) == expected
    assert gc.isenabled()


def test_main_leaves_the_collector_on_after_a_seqc_error(capsys, tmp_path, collector_on):
    argv = ["generate", "--dsl", NXT_DSL, NXT_PROGRAM,
            "--templates", NXT_GENERATOR, "--out", str(tmp_path)]
    assert main(argv) == 0
    assert main(argv) == 2  # OutputExistsError, a SeqcError
    assert "refusing to overwrite" in capsys.readouterr().err
    assert gc.isenabled()


def test_main_leaves_a_disabled_collector_off(capsys, collector_on):
    gc.disable()
    assert main(["validate", "--dsl", DEMO_DSL, FIVE_STAGE]) == 0
    assert not gc.isenabled()
    with pytest.raises(SystemExit):
        main([])
    assert not gc.isenabled()


def test_main_pauses_the_collector_during_the_command(capsys, monkeypatch, collector_on):
    seen = []

    def spy(program, dsl):
        seen.append(gc.isenabled())
        return validate(program, dsl)
    monkeypatch.setattr("seqc.cli.validate", spy)
    assert main(["validate", "--dsl", DEMO_DSL, FIVE_STAGE]) == 0
    assert seen == [False] and gc.isenabled()


CLI_FIXTURES = [
    ("demo", "five_stage.xml", None),
    ("demo", "five_stage_shared.xml", None),
    ("vacuum", "clean_parallel.xml", None),
    ("vacuum", "clean_ordered.xml", None),
    ("service_robot", "grasp_demo.xml", "generator.xml"),
    ("nxt", "obstacle_avoid.xml", "generator.xml"),
]


def _run_every_stage(dsl, text, config, out_dir, done):
    """What the commands do with one program; nothing is kept."""
    program = program_io.parse_program(text)
    program_io.graph_json(program)
    program_io.export_dot(program)
    validate(program, dsl)
    try:
        program = program_io.load_program(text, dsl)
    except SeqcError:
        return
    done["load"] += 1
    report = validate(program, dsl)
    report.to_json()
    report.render_text()
    trace = simulator.simulate(program, dsl, force=True)
    simulator.trace_to_json(trace)
    simulator.format_timeline(trace)
    try:
        result = codegen.generate(program, dsl, config, strict=False)
        codegen.write_outputs(result, out_dir, force=True)
        done["generate"] += 1
    except SeqcError:
        pass


def _garbage_of(run):
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def test_commands_build_no_reference_cycles(tmp_path, collector_on):
    # The collector pause in main rests on this: whatever load, validate,
    # simulate, graph output and generate build, success or SeqcError, is
    # freed by reference counting alone.
    (tmp_path / "main.vt").write_text(
        "#foreach($Action in $Program.getActions())"
        "$Action.getName() $Action.getType() $Action.getBogus()\n#end",
        encoding="utf-8")
    generic = codegen.load_generator_config(
        '<Generator><Main file="main.vt" output="${Program.getName()}.txt"/></Generator>',
        base_dir=tmp_path)
    cases = []
    for robot, program_name, generator in CLI_FIXTURES:
        config = (support.fixture_generator(robot, generator)
                  if generator else generic)
        cases.append((load_dsl(fixture_text(robot, "dsl.xml")),
                      fixture_text(robot, program_name), config))
    rng = random.Random(2024)
    for _ in range(100):
        dsl, program = support.random_flow_setup(rng, max_actions=12)
        cases.append((dsl, save_program(program), generic))
    done = dict.fromkeys(("load", "generate"), 0)

    def run_all():
        for dsl, text, config in cases:
            _run_every_stage(dsl, text, config, tmp_path / "out", done)
    assert _garbage_of(run_all) == 0
    assert min(done.values()) >= 20, done  # each stage succeeded often enough to count


def _graph_files(tmp_path, n):
    rng = random.Random(n)
    dsl, program = support.random_setup(rng, min_actions=n, max_actions=n,
                                        max_resources=8, edge_prob=4 / n, mutex=False)
    dsl_file, program_file = tmp_path / f"dsl{n}.xml", tmp_path / f"prog{n}.xml"
    dsl_file.write_text(save_dsl(dsl), encoding="utf-8")
    program_file.write_text(save_program(program), encoding="utf-8")
    return str(dsl_file), str(program_file)


@pytest.mark.parametrize("mode", [["--json"], []])
def test_cli_garbage_does_not_grow_with_the_program(capsys, tmp_path, collector_on, mode):
    # A command leaves nothing for the collector, whatever the program's
    # size: the pause cannot let memory grow.  The parser, argparse's only
    # cyclic structure, is built once and kept.
    garbage = {}
    for n in (10, 500):
        dsl_file, program_file = _graph_files(tmp_path, n)
        argv = ["graph", *mode, "--dsl", dsl_file, program_file]
        main(argv)  # warm caches such as re's, and build the parser
        garbage[n] = _garbage_of(lambda: main(argv))
        assert capsys.readouterr().out
    assert garbage[10] == garbage[500] == 0


# --- one parser per process ---------------------------------------------------

@pytest.fixture
def fresh_parser():
    """The next `main` call builds the parser, as the first call in a process does."""
    cli._build_parser.cache_clear()


def run_or_exit(capsys, *argv):
    """`run`, with argparse's `SystemExit` (usage errors, `--help`) as the exit code."""
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def test_main_builds_the_parser_once(capsys, fresh_parser):
    for _ in range(3):
        assert run_or_exit(capsys, "validate", "--dsl", DEMO_DSL, FIVE_STAGE)[0] == 0
        assert run_or_exit(capsys)[0] == 2
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_a_patched_command_runs_after_the_parser_is_built(capsys, monkeypatch):
    argv = ["graph", "--json", FIVE_STAGE]
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr("seqc.cli.cmd_graph", lambda args: 7)
    assert run(capsys, *argv) == (7, "", "")


def test_a_duration_override_does_not_reach_the_next_command(capsys):
    argv = ["simulate", "--dsl", DEMO_DSL, FIVE_STAGE]
    assert run(capsys, *argv)[1].endswith("makespan: 3\n")
    assert run(capsys, *argv, "--duration", "A=5")[1].endswith("makespan: 7\n")
    assert run(capsys, *argv)[1].endswith("makespan: 3\n")


@pytest.mark.parametrize("bad", [[], ["validate", FIVE_STAGE]])  # no command; no --dsl
@pytest.mark.parametrize("good", [
    ["validate", "--dsl", VACUUM_DSL, VACUUM_PARALLEL],
    ["simulate", "--json", "--dsl", DEMO_DSL, FIVE_STAGE, "--duration", "C=4"],
])
def test_a_command_after_a_usage_error_runs_as_the_first(capsys, fresh_parser, bad, good):
    first = run(capsys, *good)
    code, out, err = run_or_exit(capsys, *bad)
    assert code == 2 and not out and err.startswith("usage: seqc")
    assert run(capsys, *good) == first


@pytest.mark.parametrize("argv", [["--help"], ["validate", "--help"]])
def test_help_prints_the_same_bytes_on_a_later_call(capsys, fresh_parser, argv):
    first = run_or_exit(capsys, *argv)
    assert first[0] == 0 and first[1].startswith("usage: seqc")
    run(capsys, "graph", "--json", FIVE_STAGE)
    run_or_exit(capsys, "validate", FIVE_STAGE)
    assert run_or_exit(capsys, *argv) == first


def test_a_one_shot_process_prints_what_a_later_call_prints(capsys, monkeypatch):
    """`python -m seqc.cli` builds the parser once and runs one command;
    its exit code and stdout equal those of a third in-process call."""
    monkeypatch.setenv("COLUMNS", "80")  # help's width, in both processes
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).resolve().parents[1]))
    cases = [
        (["--help"], 0),
        (["validate", "--dsl", VACUUM_DSL, VACUUM_PARALLEL], 1),
        (["validate", "--dsl", VACUUM_DSL, VACUUM_ORDERED], 0),
        (["simulate", "--json", "--dsl", DEMO_DSL, FIVE_STAGE], 0),
        (["graph", "--json", FIVE_STAGE], 0),
    ]
    for argv, expected in cases:
        for _ in range(3):
            code, out, _ = run_or_exit(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "seqc.cli", *argv],
                               capture_output=True, text=True)
        assert (fresh.returncode, fresh.stdout) == (code, out) and code == expected, argv
        assert "Traceback" not in fresh.stderr, argv


# --- mutated inputs ---------------------------------------------------------------

def test_mutated_fixtures_keep_the_exit_code_contract(capsys, tmp_path):
    """Seeded mutants of the fixture documents through validate, simulate
    and graph: each exits 0, 1 or 2, an exit 2 is one `seqc: error:` line,
    and no output holds a traceback.  Half the mutants are structural
    defects of the program; the rest are byte-level edits of the program
    or the DSL."""
    rng = random.Random(1717)
    dsl_file, program_file = tmp_path / "dsl.xml", tmp_path / "program.xml"
    commands = (["validate"], ["simulate", "--json"], ["graph", "--json"])
    seen = {command[0]: set() for command in commands}
    for index in range(600):
        robot, program_name, _ = CLI_FIXTURES[index % len(CLI_FIXTURES)]
        dsl = fixture_path(robot, "dsl.xml").read_bytes()
        program = fixture_path(robot, program_name).read_bytes()
        if index % 2:
            text = program.decode("utf-8")
            for _ in range(rng.randint(1, 2)):
                text = support.mutate_program(rng, text)
            program = text.encode("utf-8")
        elif rng.random() < 0.5:
            program = support.mutate_bytes(rng, program)
        else:
            dsl = support.mutate_bytes(rng, dsl)
        dsl_file.write_bytes(dsl)
        program_file.write_bytes(program)
        for command in commands:
            with_dsl = command[0] != "graph" or index % 4 < 2
            argv = [*command, *(["--dsl", str(dsl_file)] if with_dsl else []), str(program_file)]
            code, out, err = run(capsys, *argv)
            assert code in (0, 1, 2), (argv, program, dsl)
            assert "Traceback" not in out + err, (argv, program, dsl)
            if code == 2:
                assert err.startswith("seqc: error:") and err.count("\n") == 1, (err, program)
            seen[command[0]].add(code)
    assert seen == {"validate": {0, 1, 2}, "simulate": {0, 1, 2}, "graph": {0, 2}}
