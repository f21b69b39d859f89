"""Generator configuration, render views, and output writing."""

import dataclasses
import random
import re
from pathlib import Path

import pytest

from seqc.codegen import (
    ActionView,
    GenerationResult,
    GeneratorConfig,
    ParameterView,
    ProgramView,
    ResourceComponentView,
    VariableView,
    action_view,
    generate,
    load_generator_config,
    program_view,
    write_outputs,
)
from seqc.dsl import load_dsl
from seqc.errors import (
    DuplicateIdentifierError,
    InvalidProgramError,
    MissingTemplateFileError,
    OutputExistsError,
    SeqcError,
    UnresolvedReferenceError,
    XmlSyntaxError,
)
from seqc.model import ActionInstance, ArgBinding, Program, ResourceInstance
from seqc.program_io import load_program
from seqc.templating import TemplateEngine, parse_template
from support import fixture_generator, fixture_text


def service_setup():
    dsl = load_dsl(fixture_text("service_robot/dsl.xml"))
    program = load_program(fixture_text("service_robot/grasp_demo.xml"), dsl)
    return dsl, program


def nxt_setup():
    dsl = load_dsl(fixture_text("nxt/dsl.xml"))
    program = load_program(fixture_text("nxt/obstacle_avoid.xml"), dsl)
    return dsl, program


def config_from(body: str, base_dir) -> GeneratorConfig:
    return load_generator_config(f"<Generator>{body}</Generator>", base_dir=base_dir)


GRASP_DEMO_CS = (
    "//Generated sequence GraspDemo\n"
    "using RobotRuntime;\n"
    "\n"
    'var arm = runtime.Attach("Manipulator");\n'
    'var base = runtime.Attach("DriveBase");\n'
    'var hand = runtime.Attach("Gripper");\n'
    'declareVariable("armStatus", "String");\n'
    'declareVariable("orientation", "Vector3");\n'
    'declareVariable("shelfPose", "Vector3");\n'
    'declareVariable("targetPose", "Vector3");\n'
    "\n"
    "//Create list of parameters\n"
    "parameters = new List<ParameterVariable>();\n"
    'parameters.Add(getVariable("shelfPose"));\n'
    "ExecutionElement MoveBase =\n"
    "\tnew ExecElement(MOVE_TO, parameters));\n"
    "//Create list of parameters\n"
    "parameters = new List<ParameterVariable>();\n"
    "//fill list of parameters \n"
    "//Add previous initialized variables\n"
    'parameters.Add(getVariable("targetPose"));\n'
    "//Add previous initialized variables\n"
    'parameters.Add(getVariable("orientation"));\n'
    "//Create robot specific action\n"
    "ExecutionElement MoveMani = \n"
    "\tnew ExecElement(MOVE_MANIPULATOR, parameters));\n"
    "ExecutionElement Grab =\n"
    "\tnew ExecElement(CLOSE_GRIPPER, new List<ParameterVariable>());\n"
    "runSequence();\n"
)

OBSTACLE_AVOID_NXC = (
    '#include "NXCDefs.h"\n'
    "\n"
    "int leftDistance;\n"
    "int rightDistance;\n"
    "\n"
    "task main() {\n"
    "  leftDistance = SensorUS(sonarLeft);\n"
    "  rightDistance = SensorUS(sonarRight);\n"
    "  OnFwd(motorLeft, rightDistance);\n"
    "  OnFwd(motorRight, leftDistance);\n"
    "}\n"
)


# --- views --------------------------------------------------------------------

def test_program_view_of_grasp_demo():
    dsl, program = service_setup()
    view = program_view(program, dsl)
    assert view.name == "GraspDemo"
    assert [a.name for a in view.actions] == ["MoveBase", "MoveMani", "Grab"]
    assert [(r.name, r.type) for r in view.resources] == [
        ("arm", "Manipulator"),
        ("base", "DriveBase"),
        ("hand", "Gripper"),
    ]
    assert [a.name for r in view.resources for a in r.actions] == [
        "MoveMani",
        "MoveBase",
        "Grab",
    ]
    assert [(v.name, v.type) for v in view.variables] == [
        ("armStatus", "String"),
        ("orientation", "Vector3"),
        ("shelfPose", "Vector3"),
        ("targetPose", "Vector3"),
    ]


def test_action_view_exposes_declaration_order_and_return():
    dsl, program = service_setup()
    view = action_view(program.action("MoveMani"), program, dsl)
    assert view.type == "MoveManipulator"
    assert view.resource == "arm"
    assert [(p.name, p.type, p.variable.name) for p in view.parameters] == [
        ("targetPose", "Vector3", "targetPose"),
        ("orientation", "Vector3", "orientation"),
    ]
    assert view.returnVariable.name == "armStatus"
    assert view.returnVariable.type == "String"


def test_action_view_handles_gaps():
    dsl, program = nxt_setup()
    read = action_view(program.action("readLeft"), program, dsl)
    assert read.parameters == ()
    assert read.returnVariable.type == "Int"

    speed = action_view(program.action("speedLeft"), program, dsl)
    assert speed.returnVariable is None
    assert speed.parameters[0].variable.name == "rightDistance"


def test_action_view_of_an_undeclared_variable_has_no_type():
    # Views stay total: a program that names an undeclared variable still renders.
    dsl = load_dsl('<RobotClassDSL name="B"><ResourceComponent type="Motor">'
                   '<Action returnType="Int" actionIdentifier="Go"><ParameterList>'
                   '<Parameter name="speed" type="Int"/></ParameterList></Action>'
                   '</ResourceComponent></RobotClassDSL>')
    go = ActionInstance("go", "Go", "m", (ArgBinding("speed", variable="ghost"),),
                        return_to="lost")
    program = Program("P", "B", (ResourceInstance("m", "Motor"),), (), (go,))
    view = action_view(go, program, dsl)
    assert view.parameters == (ParameterView("speed", "Int", VariableView("ghost", "")),)
    assert view.returnVariable == VariableView("lost", "")


def test_views_are_reachable_through_template_accessors():
    dsl, program = service_setup()
    scope = {"Program": program_view(program, dsl)}
    out = TemplateEngine({}, strict=True).render_template(parse_template(
        "#foreach($a in $Program.getActions())$a.getName():$a.getResource() #end"), scope)
    assert out == "MoveBase:base MoveMani:arm Grab:hand "


# --- configuration loading -----------------------------------------------------

def test_load_service_generator_config():
    config = fixture_generator("service_robot/generator.xml")
    action_types = {"MoveManipulator", "MoveTo", "CloseGripper"}
    component_types = {"Manipulator", "DriveBase", "Gripper"}
    assert set(config.templates) == action_types | component_types
    assert all(config.templates[key].id == key for key in config.templates)
    assert len(config.mains) == 1
    assert config.mains[0][1].id == "templates/main.vt#output"


def test_empty_generator_config():
    config = load_generator_config("<Generator/>")
    assert config.templates == {}
    assert config.mains == ()


def test_missing_template_file_lists_attempts(tmp_path):
    body = '<ActionTemplate actionType="X" file="nope.vt"/>'
    with pytest.raises(MissingTemplateFileError) as exc_info:
        config_from(body, tmp_path)
    assert "nope.vt" in str(exc_info.value)
    assert str(tmp_path) in str(exc_info.value)


def test_search_path_resolves_shared_templates(tmp_path):
    base = tmp_path / "base"
    shared = tmp_path / "shared"
    base.mkdir()
    shared.mkdir()
    (shared / "frag.vt").write_text("fragment", encoding="utf-8")
    body = '<ActionTemplate actionType="X" file="frag.vt"/>'
    with pytest.raises(MissingTemplateFileError):
        load_generator_config(f"<Generator>{body}</Generator>", base_dir=base)
    config = load_generator_config(
        f"<Generator>{body}</Generator>", base_dir=base, search_path=[shared]
    )
    assert config.templates["X"].nodes[0] == "fragment"


def test_base_dir_wins_over_search_path(tmp_path):
    base = tmp_path / "base"
    shared = tmp_path / "shared"
    base.mkdir()
    shared.mkdir()
    (base / "frag.vt").write_text("from base", encoding="utf-8")
    (shared / "frag.vt").write_text("from shared", encoding="utf-8")
    config = load_generator_config(
        '<Generator><ActionTemplate actionType="X" file="frag.vt"/></Generator>',
        base_dir=base,
        search_path=[shared],
    )
    assert config.templates["X"].nodes[0] == "from base"


def test_absolute_template_file_skips_base_dir_and_search_path(tmp_path):
    base = tmp_path / "base"
    shared = tmp_path / "shared"
    base.mkdir()
    shared.mkdir()
    for root in (tmp_path, base, shared):
        (root / "frag.vt").write_text(f"from {root.name}", encoding="utf-8")
    absolute = tmp_path / "frag.vt"
    config = load_generator_config(
        f'<Generator><ActionTemplate actionType="X" file="{absolute}"/></Generator>',
        base_dir=base, search_path=[shared])
    assert config.templates["X"].nodes[0] == f"from {tmp_path.name}"
    missing = tmp_path / "missing.vt"
    with pytest.raises(MissingTemplateFileError) as exc_info:
        load_generator_config(
            f'<Generator><ActionTemplate actionType="X" file="{missing}"/></Generator>',
            base_dir=base, search_path=[shared])
    assert str(exc_info.value) == f"template file not found: {missing}"


def test_duplicate_template_keys_rejected(tmp_path):
    (tmp_path / "a.vt").write_text("a", encoding="utf-8")
    body = (
        '<ActionTemplate actionType="X" file="a.vt"/>'
        '<ActionTemplate actionType="X" file="a.vt"/>'
    )
    with pytest.raises(DuplicateIdentifierError):
        config_from(body, tmp_path)


def test_action_component_key_collision_rejected_in_library(tmp_path):
    (tmp_path / "a.vt").write_text("a", encoding="utf-8")
    body = (
        '<ActionTemplate actionType="X" file="a.vt"/>'
        '<ComponentTemplate componentType="X" file="a.vt"/>'
    )
    with pytest.raises(DuplicateIdentifierError) as exc_info:
        config_from(body, tmp_path)
    assert str(exc_info.value) == (
        "template id 'X' is used for both an action type and a component type")


def test_unexpected_generator_elements():
    with pytest.raises(XmlSyntaxError):
        load_generator_config("<Generator><Bogus/></Generator>")


def test_main_requires_file_and_output(tmp_path):
    (tmp_path / "m.vt").write_text("x", encoding="utf-8")
    with pytest.raises(XmlSyntaxError):
        config_from('<Main file="m.vt"/>', tmp_path)


# --- generation ------------------------------------------------------------------

def test_generate_grasp_demo_golden():
    dsl, program = service_setup()
    config = fixture_generator("service_robot/generator.xml")
    result = generate(program, dsl, config)
    assert result.warnings == ()
    assert list(result.files) == ["GraspDemo.cs"]
    assert result.files["GraspDemo.cs"] == GRASP_DEMO_CS


def test_generate_obstacle_avoid_golden():
    dsl, program = nxt_setup()
    config = fixture_generator("nxt/generator.xml")
    result = generate(program, dsl, config)
    assert result.files == {"ObstacleAvoid.nxc": OBSTACLE_AVOID_NXC}


def test_generate_refuses_invalid_programs():
    dsl = load_dsl(fixture_text("vacuum/dsl.xml"))
    program = load_program(fixture_text("vacuum/clean_parallel.xml"), dsl)
    config = load_generator_config("<Generator/>")
    with pytest.raises(InvalidProgramError):
        generate(program, dsl, config)


def write_main(tmp_path, main_text, output='out.txt'):
    (tmp_path / "main.vt").write_text(main_text, encoding="utf-8")
    return config_from(f'<Main file="main.vt" output="{output}"/>', tmp_path)


def test_generate_strict_vs_lenient(tmp_path):
    dsl, program = nxt_setup()
    config = write_main(tmp_path, "name=$Program.getSerial()")
    with pytest.raises(UnresolvedReferenceError):
        generate(program, dsl, config)
    result = generate(program, dsl, config, strict=False)
    assert result.files["out.txt"] == "name="
    assert len(result.warnings) == 1


def test_output_pattern_must_name_a_file(tmp_path):
    dsl, program = nxt_setup()
    empty = write_main(tmp_path, "x", output="$Program.getBogus()")
    with pytest.raises(SeqcError):
        generate(program, dsl, empty, strict=False)


def test_duplicate_output_names_rejected(tmp_path):
    dsl, program = nxt_setup()
    (tmp_path / "main.vt").write_text("x", encoding="utf-8")
    config = config_from(
        '<Main file="main.vt" output="same.txt"/><Main file="main.vt" output="same.txt"/>',
        tmp_path,
    )
    with pytest.raises(DuplicateIdentifierError):
        generate(program, dsl, config)


def test_outputs_that_resolve_to_one_path_rejected(tmp_path):
    dsl, program = nxt_setup()
    (tmp_path / "main.vt").write_text("x", encoding="utf-8")
    config = config_from(
        '<Main file="main.vt" output="a.txt"/><Main file="main.vt" output="./a.txt"/>',
        tmp_path,
    )
    result = generate(program, dsl, config)
    out = tmp_path / "out"
    with pytest.raises(DuplicateIdentifierError,
                       match="two main templates produce the same output file './a.txt'"):
        write_outputs(result, out)
    assert not out.exists()


# --- writing outputs -------------------------------------------------------------

def test_write_outputs_round_trip(tmp_path):
    result = GenerationResult({"a.txt": "A\n", "sub/dir/b.txt": "B\n"})
    written = write_outputs(result, tmp_path)
    assert sorted(p.name for p in written) == ["a.txt", "b.txt"]
    assert (tmp_path / "a.txt").read_text(encoding="utf-8") == "A\n"
    assert (tmp_path / "sub" / "dir" / "b.txt").read_text(encoding="utf-8") == "B\n"


def test_write_outputs_refuses_overwrite_atomically(tmp_path):
    (tmp_path / "a.txt").write_text("old", encoding="utf-8")
    result = GenerationResult({"fresh.txt": "new", "a.txt": "new"})
    with pytest.raises(OutputExistsError):
        write_outputs(result, tmp_path)
    # The clash was detected before anything was written.
    assert not (tmp_path / "fresh.txt").exists()
    assert (tmp_path / "a.txt").read_text(encoding="utf-8") == "old"


def test_write_outputs_force_overwrites(tmp_path):
    (tmp_path / "a.txt").write_text("old", encoding="utf-8")
    write_outputs(GenerationResult({"a.txt": "new"}), tmp_path, force=True)
    assert (tmp_path / "a.txt").read_text(encoding="utf-8") == "new"


def test_write_outputs_blocks_directory_escape(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    result = GenerationResult({"../evil.txt": "x"})
    with pytest.raises(SeqcError):
        write_outputs(result, out)
    assert not (tmp_path / "evil.txt").exists()


@pytest.mark.parametrize("name", [".", "sub/..", "./"])
@pytest.mark.parametrize("force", [False, True])
def test_write_outputs_rejects_the_output_directory_itself(tmp_path, name, force):
    out = tmp_path / "out"
    out.mkdir()
    result = GenerationResult({"a.txt": "A\n", name: "B\n"})
    with pytest.raises(SeqcError, match="escapes the output directory") as info:
        write_outputs(result, out, force=force)
    assert type(info.value) is SeqcError
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("files, force, message", [
    ({"sub": "x", "sub/b.txt": "y"}, False, "needs .*sub' to be a directory"),
    ({"a.txt": "A\n", "d": "D\n"}, True, "'d' is an existing directory"),
    ({"a.txt": "A\n", "f/b.txt": "B\n"}, True, "needs .*f' to be a directory"),
])
def test_write_outputs_refuses_a_path_that_is_or_holds_a_directory(tmp_path, files, force, message):
    out = tmp_path / "out"
    (out / "d").mkdir(parents=True)
    (out / "f").write_text("F", encoding="utf-8")
    with pytest.raises(SeqcError, match=message):
        write_outputs(GenerationResult(files), out, force=force)
    # Refused before the first write: the output directory is as it was.
    assert sorted(out.iterdir()) == [out / "d", out / "f"] and not any((out / "d").iterdir())
    assert (out / "f").read_text(encoding="utf-8") == "F"


def test_write_outputs_refuses_a_name_holding_a_nul_byte(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SeqcError, match=r"output file 'a\\x00b' holds a NUL byte"):
        write_outputs(GenerationResult({"ok.txt": "x", "a\0b": ""}), out)
    assert not out.exists()


def test_write_outputs_removes_what_it_made_when_a_write_is_refused(tmp_path):
    # The directory does not exist yet, so no check before the first write
    # meets the name the file system refuses.
    out = tmp_path / "out"
    result = GenerationResult({"a.txt": "A\n", "sub/b.txt": "B\n", "x" * 300: ""})
    with pytest.raises(OSError):
        write_outputs(result, out)
    assert list(tmp_path.iterdir()) == []


def _tree(root: Path) -> dict[Path, str | None]:
    """Every path under root: a file's text, None for a directory."""
    return {path: None if path.is_dir() else path.read_text(encoding="utf-8")
            for path in root.rglob("*")}


def test_write_outputs_writes_all_or_nothing_for_hostile_names(tmp_path):
    """Seeded sets of names built from path syntax, control characters,
    non-ASCII text and over-long parts: each call either writes exactly its
    files inside the output directory or raises SeqcError or OSError and
    leaves the tree as it was, less the text of files it overwrote under force."""
    parts = [".", "..", "/", "", "\0", "\n", "é", "数据", "a", "b", "x" * 300]
    rng = random.Random(33)
    outcomes = {"written": 0, "refused": 0}
    for case in range(300):
        base = tmp_path / str(case)
        out = base / "out"
        base.mkdir()
        if rng.random() < 0.5:
            (out / "b").mkdir(parents=True)
            (out / "a").write_text("old", encoding="utf-8")
        names = ["".join(rng.choice(parts) for _ in range(rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 3))]
        files = {name: f"text {k}\n" for k, name in enumerate(names)}
        force = rng.random() < 0.5
        before = _tree(base)
        try:
            written = write_outputs(GenerationResult(files), out, force=force)
        except (SeqcError, OSError):
            outcomes["refused"] += 1
            after = _tree(base)
            assert after.keys() == before.keys(), (case, files)
            if not force:
                assert after == before, (case, files)
            continue
        outcomes["written"] += 1
        resolved = out.resolve()
        assert written == [(resolved / name).resolve() for name in files], (case, files)
        for path, text in zip(written, files.values()):
            assert resolved in path.parents and path.read_text(encoding="utf-8") == text
        made = {path.resolve() for path in _tree(base).keys() - before.keys()}
        assert made <= {p for path in written for p in (path, *path.parents)}, (case, files)
    assert min(outcomes.values()) > 20, outcomes


def test_written_files_use_lf_newlines(tmp_path):
    write_outputs(GenerationResult({"a.txt": "one\ntwo\n"}), tmp_path)
    raw = (tmp_path / "a.txt").read_bytes()
    assert b"\r" not in raw
    assert raw == b"one\ntwo\n"


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_template_roots_match_the_views():
    """README's table of template roots against each view's root name and
    dataclass fields, in order."""
    section = README.read_text(encoding="utf-8").split("## Template language", 1)[1]
    rows = re.findall(r"^\| `\$(\w+)` \| ([\w, ]+) \|", section, flags=re.M)
    views = (ProgramView, ActionView, ParameterView, VariableView, ResourceComponentView)
    assert rows == [(view._root, ", ".join(f.name for f in dataclasses.fields(view)))
                    for view in views]
