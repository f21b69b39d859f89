"""Program XML loading, canonical serialization, and DOT export."""

import dataclasses
import random
import re
import sys
import tracemalloc
from collections import Counter

import pytest

import support
from seqc import xmlio
from seqc.dsl import load_dsl, lookup_action
from seqc.errors import (
    CyclicGraphError,
    DuplicateIdentifierError,
    SeqcError,
    UnknownActionTypeError,
    UnknownResourceTypeError,
    UnknownVariableTypeError,
    UnresolvedReferenceError,
    XmlSyntaxError,
)
from seqc.model import (
    ActionInstance,
    ArgBinding,
    Program,
    ResourceInstance,
    VariableDecl,
)
from seqc.program_io import (
    export_dot,
    load_program,
    parse_program,
    save_program,
)
from support import fixture_text, outcome

TYPED_DSL = load_dsl(
    '<RobotClassDSL name="TypedBot">'
    "<VariableTypes>"
    '<VariableType name="Pose"><Field name="x" type="Float"/><Field name="y" type="Float"/></VariableType>'
    '<VariableType name="Nested"><Field name="p" type="Pose"/><Field name="tag" type="String"/></VariableType>'
    "</VariableTypes>"
    '<ResourceComponent type="Rig">'
    '<Action returnType="Int" actionIdentifier="Measure"/>'
    '<Action actionIdentifier="Apply">'
    "<ParameterList>"
    '<Parameter name="count" type="Int"/>'
    '<Parameter name="rate" type="Float"/>'
    '<Parameter name="on" type="Bool"/>'
    '<Parameter name="label" type="String"/>'
    '<Parameter name="pose" type="Pose"/>'
    "</ParameterList>"
    "</Action>"
    "</ResourceComponent>"
    "</RobotClassDSL>"
)


def typed_doc(actions: str, variables: str = "", constraints: str = "") -> str:
    return (
        '<Program name="P" robotClass="TypedBot">'
        '<Resources><Resource name="r" type="Rig"/></Resources>'
        f"<Variables>{variables}</Variables>"
        f"<Actions>{actions}</Actions>"
        f"<Constraints>{constraints}</Constraints>"
        "</Program>"
    )


def one_apply(args: str) -> str:
    return f'<ActionInstance name="a" type="Apply" resource="r">{args}</ActionInstance>'


def test_grasp_fixture_structure():
    dsl = load_dsl(fixture_text("service_robot/dsl.xml"))
    program = load_program(fixture_text("service_robot/grasp_demo.xml"), dsl)
    assert program.name == "GraspDemo"
    assert program.robot_class == "ServiceRobot"
    assert program.action_names() == ["Grab", "MoveBase", "MoveMani"]
    assert [r.name for r in program.resources] == ["arm", "base", "hand"]

    mani = program.action("MoveMani")
    assert mani.resource == "arm"
    assert mani.return_to == "armStatus"
    assert [(a.param, a.variable) for a in mani.args] == [
        ("targetPose", "targetPose"),
        ("orientation", "orientation"),
    ]
    assert mani.predecessors == ("MoveBase",)

    orientation = program.variable("orientation")
    assert orientation.init == {"x": 0.0, "y": 0.0, "z": 1.57}
    assert program.variable("armStatus").init == "idle"


def test_args_keep_document_order():
    doc = typed_doc(
        one_apply('<Arg param="label" value="L"/><Arg param="count" value="3"/>')
    )
    program = load_program(doc, TYPED_DSL)
    assert [a.param for a in program.action("a").args] == ["label", "count"]
    assert load_program(save_program(program), TYPED_DSL) == program


def test_scalar_literals():
    doc = typed_doc(
        one_apply(
            '<Arg param="count" value="-4"/>'
            '<Arg param="rate" value="2.5"/>'
            '<Arg param="on" value="true"/>'
            '<Arg param="label" value="false"/>'
        )
    )
    args = {a.param: a.value for a in load_program(doc, TYPED_DSL).action("a").args}
    assert args["count"] == -4
    assert args["rate"] == 2.5
    assert args["on"] is True
    assert args["label"] == "false"  # String keeps the raw text


@pytest.mark.parametrize(
    "binding",
    [
        '<Arg param="count" value="1.5"/>',
        '<Arg param="count" value="0x10"/>',
        '<Arg param="on" value="True"/>',
        '<Arg param="rate" value="fast"/>',
    ],
)
def test_bad_scalar_literals(binding):
    with pytest.raises(XmlSyntaxError):
        load_program(typed_doc(one_apply(binding)), TYPED_DSL)


NON_FINITE = ["nan", "inf", "-inf", "Infinity"]


@pytest.mark.parametrize("text", NON_FINITE)
@pytest.mark.parametrize(
    "where",
    [
        lambda t: typed_doc("", variables=f'<Variable name="v" type="Float" init="{t}"/>'),
        lambda t: typed_doc(one_apply(f'<Arg param="rate" value="{t}"/>')),
        lambda t: typed_doc(one_apply(
            f'<Arg param="pose"><Field name="x" value="{t}"/><Field name="y" value="0.5"/></Arg>'
        )),
    ],
    ids=["init", "value", "field"],
)
def test_non_finite_float_literals_rejected(where, text):
    # NaN is unequal to itself, so a program holding it would not load
    # back equal; neither NaN nor an infinity is valid JSON.
    with pytest.raises(XmlSyntaxError, match=f"{re.escape(repr(text))} is not a valid Float"):
        load_program(where(text), TYPED_DSL)


def test_composite_argument():
    doc = typed_doc(
        one_apply(
            '<Arg param="pose"><Field name="y" value="2.0"/><Field name="x" value="1.0"/></Arg>'
        )
    )
    program = load_program(doc, TYPED_DSL)
    assert program.action("a").args[0].value == {"x": 1.0, "y": 2.0}


@pytest.mark.parametrize(
    "args",
    [
        '<Arg param="pose"><Field name="x" value="1.0"/></Arg>',
        '<Arg param="pose"><Field name="x" value="1.0"/><Field name="y" value="2.0"/><Field name="z" value="3.0"/></Arg>',
        '<Arg param="pose"><Field name="x" value="1.0"/><Field name="x" value="1.0"/><Field name="y" value="2.0"/></Arg>',
        '<Arg param="pose" value="flat"/>',
        '<Arg param="count"><Field name="x" value="1.0"/></Arg>',
        '<Arg param="count"/>',
        '<Arg param="count" value="1" variable="v"/>',
    ],
)
def test_malformed_arguments(args):
    with pytest.raises(XmlSyntaxError):
        load_program(typed_doc(one_apply(args)), TYPED_DSL)


def test_unknown_parameter_and_duplicate_binding():
    with pytest.raises(UnresolvedReferenceError):
        load_program(typed_doc(one_apply('<Arg param="ghost" value="1"/>')), TYPED_DSL)
    with pytest.raises(DuplicateIdentifierError):
        load_program(
            typed_doc(
                one_apply('<Arg param="count" value="1"/><Arg param="count" value="2"/>')
            ),
            TYPED_DSL,
        )


ARG_BRANCHES = {  # one document per branch of the <Arg> reader, checks in the loader's order
    "no param": '<Arg value="1"/>',
    "unknown parameter": '<Arg param="ghost" value="1"/>',
    "unknown parameter before exactly one": '<Arg param="ghost"/>',
    "bound twice": '<Arg param="count" value="1"/><Arg param="count" variable="v"/>',
    "bound twice before exactly one": '<Arg param="count" variable="v"/><Arg param="count"/>',
    "variable and value": '<Arg param="count" value="1" variable="v"/>',
    "value and field": '<Arg param="pose" value="1"><Field name="x" value="1.0"/></Arg>',
    "variable and field": '<Arg param="pose" variable="v"><Field name="x" value="1.0"/></Arg>',
    "none of them": '<Arg param="count"/>',
    "value on a composite": '<Arg param="pose" value="flat"/>',
    "field on a scalar": '<Arg param="count"><Field name="x" value="1.0"/></Arg>',
    "bad Int": '<Arg param="count" value="1.5"/>',
    "bad Bool": '<Arg param="on" value="True"/>',
    "nan": '<Arg param="rate" value="nan"/>',
    "Int past the int-string limit":
        f'<Arg param="count" value="{"9" * (sys.get_int_max_str_digits() + 1)}"/>',
    "field without name": '<Arg param="pose"><Field value="1.0"/></Arg>',
    "unknown field": '<Arg param="pose"><Field name="z" value="1.0"/></Arg>',
    "field given twice": '<Arg param="pose"><Field name="x" value="1.0"/><Field name="x" value="1.0"/></Arg>',
    "bad field value":
        '<Arg param="pose"><Field name="x" value="nan"/><Field name="y" value="1.0"/></Arg>',
    "missing field": '<Arg param="pose"><Field name="x" value="1.0"/></Arg>',
}


@pytest.mark.parametrize("args", ARG_BRANCHES.values(), ids=ARG_BRANCHES.keys())
def test_each_arg_branch_matches_the_whole_tree_loader(args):
    doc = typed_doc(one_apply(args))
    expected = outcome(support.load_program_whole_tree, doc, TYPED_DSL)
    assert isinstance(expected, tuple)  # every branch is an error
    assert outcome(load_program, doc, TYPED_DSL) == expected


def test_bindings_keep_the_dsl_parameter_name():
    # One string per parameter, shared by all its bindings, whatever the document holds.
    doc = typed_doc("".join(
        f'<ActionInstance name="a{i}" type="Apply" resource="r">'
        '<Arg param="count" variable="v"/><Arg param="rate" value="0.5"/>'
        '<Arg param="pose"><Field name="x" value="1.0"/><Field name="y" value="2.0"/></Arg>'
        "</ActionInstance>" for i in range(3)))
    declared = lookup_action(TYPED_DSL, "Apply").parameters_by_name
    args = [arg for action in load_program(doc, TYPED_DSL).actions for arg in action.args]
    assert [arg.param for arg in args] == ["count", "rate", "pose"] * 3
    assert all(arg.param is declared[arg.param].name for arg in args)


def test_second_return_to_rejected():
    doc = typed_doc(
        '<ActionInstance name="a" type="Measure" resource="r">'
        '<ReturnTo variable="v"/><ReturnTo variable="w"/>'
        "</ActionInstance>",
        variables='<Variable name="v" type="Int"/><Variable name="w" type="Int"/>',
    )
    with pytest.raises(XmlSyntaxError):
        load_program(doc, TYPED_DSL)


def test_unknown_action_type():
    doc = typed_doc('<ActionInstance name="a" type="Ghost" resource="r"/>')
    with pytest.raises(UnknownActionTypeError):
        load_program(doc, TYPED_DSL)


def test_unknown_resource_component_type():
    doc = (
        '<Program name="P" robotClass="TypedBot">'
        '<Resources><Resource name="r" type="Ghost"/></Resources>'
        "</Program>"
    )
    with pytest.raises(UnknownResourceTypeError):
        load_program(doc, TYPED_DSL)


def test_unknown_variable_type():
    doc = typed_doc("", variables='<Variable name="v" type="Ghost"/>')
    with pytest.raises(UnknownVariableTypeError):
        load_program(doc, TYPED_DSL)


def test_variable_mixing_init_and_fields():
    doc = typed_doc(
        "",
        variables='<Variable name="v" type="Pose" init="x"><Field name="x" value="1.0"/></Variable>',
    )
    with pytest.raises(XmlSyntaxError):
        load_program(doc, TYPED_DSL)


def test_action_on_undeclared_resource():
    doc = typed_doc('<ActionInstance name="a" type="Measure" resource="ghost"/>')
    with pytest.raises(UnresolvedReferenceError):
        load_program(doc, TYPED_DSL)


def test_action_on_wrong_component_type():
    dsl = load_dsl(fixture_text("vacuum/dsl.xml"))
    doc = (
        '<Program name="P" robotClass="VacuumCleaner">'
        '<Resources><Resource name="bin" type="CleaningDevice"/></Resources>'
        '<Actions><ActionInstance name="go" type="MoveFwd" resource="bin"/></Actions>'
        "</Program>"
    )
    with pytest.raises(UnresolvedReferenceError):
        load_program(doc, dsl)


def test_constraint_endpoints_must_exist():
    doc = typed_doc(
        '<ActionInstance name="a" type="Measure" resource="r"/>',
        constraints='<After action="a" predecessor="ghost"/>',
    )
    with pytest.raises(UnresolvedReferenceError):
        load_program(doc, TYPED_DSL)


def test_cyclic_program_rejected():
    doc = typed_doc(
        '<ActionInstance name="a" type="Measure" resource="r"/>'
        '<ActionInstance name="b" type="Measure" resource="r"/>',
        constraints='<After action="a" predecessor="b"/><After action="b" predecessor="a"/>',
    )
    with pytest.raises(CyclicGraphError):
        load_program(doc, TYPED_DSL)


@pytest.mark.parametrize(
    "doc",
    [
        typed_doc(
            '<ActionInstance name="a" type="Measure" resource="r"/>'
            '<ActionInstance name="a" type="Measure" resource="r"/>'
        ),
        typed_doc("", variables='<Variable name="v" type="Int"/><Variable name="v" type="Int"/>'),
        (
            '<Program name="P" robotClass="TypedBot">'
            '<Resources><Resource name="r" type="Rig"/><Resource name="r" type="Rig"/></Resources>'
            "</Program>"
        ),
    ],
)
def test_duplicate_declarations(doc):
    with pytest.raises(DuplicateIdentifierError):
        load_program(doc, TYPED_DSL)


def test_unexpected_sections_and_children():
    with pytest.raises(XmlSyntaxError):
        load_program('<Program name="P" robotClass="T"><Bogus/></Program>', TYPED_DSL)
    with pytest.raises(XmlSyntaxError):
        load_program(
            '<Program name="P" robotClass="T"><Actions><Bogus/></Actions></Program>',
            TYPED_DSL,
        )


@pytest.mark.parametrize(
    "later,message",
    [
        ("<Actions><Bogus/></Actions>", "<Bogus> inside <Actions>"),
        ('<Constraints><After action="a"/></Constraints>',
         "<After> is missing required attribute 'predecessor'"),
    ],
    ids=["stray-entry", "missing-attribute"],
)
def test_structure_is_checked_before_references_resolve(later, message):
    # One walk checks every section and entry tag and every entry's
    # required attributes before any reference is resolved, so a defect
    # of that kind in a later section wins over an unknown component
    # type in an earlier one.
    doc = (
        '<Program name="P" robotClass="TypedBot">'
        '<Resources><Resource name="r" type="Nope"/></Resources>'
        f"{later}</Program>"
    )
    with pytest.raises(XmlSyntaxError, match=re.escape(message)):
        load_program(doc, TYPED_DSL)
    with pytest.raises(XmlSyntaxError, match=re.escape(message)):
        parse_program(doc)


PROGRAM_FIXTURES = [
    ("demo/dsl.xml", "demo/five_stage.xml"),
    ("demo/dsl.xml", "demo/five_stage_shared.xml"),
    ("vacuum/dsl.xml", "vacuum/clean_parallel.xml"),
    ("vacuum/dsl.xml", "vacuum/clean_ordered.xml"),
    ("service_robot/dsl.xml", "service_robot/grasp_demo.xml"),
    ("nxt/dsl.xml", "nxt/obstacle_avoid.xml"),
]


@pytest.mark.parametrize("dsl_name,program_name", PROGRAM_FIXTURES)
def test_save_load_round_trip(dsl_name, program_name):
    dsl = load_dsl(fixture_text(dsl_name))
    program = load_program(fixture_text(program_name), dsl)
    text = save_program(program)
    again = load_program(text, dsl)
    assert again == program
    assert save_program(again) == text


@pytest.mark.parametrize("dsl_name,program_name", PROGRAM_FIXTURES)
def test_fixtures_are_canonical(dsl_name, program_name):
    text = fixture_text(program_name)
    program = load_program(text, load_dsl(fixture_text(dsl_name)))
    assert save_program(program) == text == support.save_program_oracle(program)


def test_save_load_round_trip_on_random_programs():
    # Names, String literals and composite fields full of characters that
    # need escaping; the second save must repeat the first byte for byte.
    rng = random.Random(31)
    composites = 0
    for _ in range(250):
        dsl, program = support.random_literal_setup(rng)
        text = save_program(program)
        again = load_program(text, dsl)
        assert again == program
        assert save_program(again) == text
        composites += "<Field " in text
    assert composites > 100


def test_predecessors_are_a_set_of_names():
    # Rebuilt from its predecessor names shuffled and repeated, an action
    # stores them sorted and unique, so the program equals and hashes as
    # the original; a program that loads at all loads back equal.
    rng = random.Random(1616)
    loaded = 0
    for _ in range(200):
        dsl, program = support.random_flow_setup(rng, max_actions=8)
        actions = []
        for action in program.actions:
            names = list(action.predecessors)
            names += rng.choices(names, k=2) if names else []
            rng.shuffle(names)
            actions.append(dataclasses.replace(action, predecessors=names))
            assert actions[-1].predecessors == tuple(sorted(set(names)))
        rebuilt = dataclasses.replace(program, actions=tuple(actions))
        assert rebuilt == program and hash(rebuilt) == hash(program)
        try:
            again = load_program(save_program(rebuilt), dsl)
        except SeqcError:  # duplicate names, dangling predecessors, cycles
            continue
        assert again == program
        loaded += 1
    assert loaded > 60


EMPTY_COMPOSITE_DSL = load_dsl(
    '<RobotClassDSL name="Bare"><VariableTypes>'
    '<VariableType name="Nothing"/>'
    '<VariableType name="Holder"><Field name="inner" type="Nothing"/></VariableType>'
    '</VariableTypes><ResourceComponent type="Unit"><Action actionIdentifier="Use">'
    '<ParameterList><Parameter name="p" type="Holder"/></ParameterList>'
    "</Action></ResourceComponent></RobotClassDSL>"
)


def test_top_level_empty_literal_is_no_literal_and_round_trips():
    # A top-level {} is no literal, as its XML form (no value, no <Field>)
    # reads back; a nested {} is an empty composite and stays one.
    assert VariableDecl("v", "Nothing", {}) == VariableDecl("v", "Nothing")
    with pytest.raises(ValueError, match="exactly one of a variable or a literal"):
        ArgBinding("p", value={})
    program = Program("P", "Bare", (ResourceInstance("r", "Unit"),),
                      (VariableDecl("empty", "Nothing", {}),
                       VariableDecl("held", "Holder", {"inner": {}})),
                      (ActionInstance("a", "Use", "r", (ArgBinding("p", value={"inner": {}}),)),))
    assert program.variable("empty").init is None
    assert program.variable("held").init == {"inner": {}}
    assert load_program(save_program(program), EMPTY_COMPOSITE_DSL) == program


def test_canonical_form_uses_self_closing_empty_sections():
    text = save_program(Program("Empty", "TypedBot"))
    assert "<Resources/>" in text
    assert "<Variables/>" in text
    assert "<Actions/>" in text
    assert "<Constraints/>" in text
    assert load_program(text, TYPED_DSL) == Program("Empty", "TypedBot")


def test_attribute_escaping_round_trip():
    program = Program(
        "na<me&",
        "TypedBot",
        resources=(ResourceInstance("r", "Rig"),),
        variables=(VariableDecl('we"ird', "String", 'a"b&<c>'),),
        actions=(ActionInstance("a", "Measure", "r", return_to='we"ird'),),
    )
    assert load_program(save_program(program), TYPED_DSL) == program


def test_constraints_serialized_sorted_by_action_then_predecessor():
    dsl = load_dsl(fixture_text("demo/dsl.xml"))
    program = load_program(fixture_text("demo/five_stage.xml"), dsl)
    text = save_program(program)
    after_lines = [line.strip() for line in text.splitlines() if "<After" in line]
    assert after_lines == [
        '<After action="D" predecessor="A"/>',
        '<After action="D" predecessor="B"/>',
        '<After action="E" predecessor="A"/>',
        '<After action="E" predecessor="C"/>',
        '<After action="E" predecessor="D"/>',
    ]


def test_parse_program_tolerates_cycles_and_unknown_types():
    doc = (
        '<Program name="Loop" robotClass="Anything">'
        '<Resources><Resource name="r" type="Whatever"/></Resources>'
        "<Actions>"
        '<ActionInstance name="a" type="T" resource="r"/>'
        '<ActionInstance name="b" type="T" resource="r"/>'
        "</Actions>"
        '<Constraints><After action="a" predecessor="b"/><After action="b" predecessor="a"/></Constraints>'
        "</Program>"
    )
    program = parse_program(doc)
    assert program.action("a").predecessors == ("b",)
    assert program.action("b").predecessors == ("a",)


def test_export_dot_golden():
    dsl = load_dsl(fixture_text("demo/dsl.xml"))
    program = load_program(fixture_text("demo/five_stage.xml"), dsl)
    assert export_dot(program) == (
        "digraph FiveStage {\n"
        '  "A" [label="A: Step @ra"];\n'
        '  "B" [label="B: Step @rb"];\n'
        '  "C" [label="C: Step @rc"];\n'
        '  "D" [label="D: Step @rd"];\n'
        '  "E" [label="E: Step @re"];\n'
        '  "A" -> "D";\n'
        '  "A" -> "E";\n'
        '  "B" -> "D";\n'
        '  "C" -> "E";\n'
        '  "D" -> "E";\n'
        "}\n"
    )


def test_export_dot_quotes_awkward_names():
    program = Program(
        "two words",
        "T",
        resources=(ResourceInstance("r", "C"),),
        actions=(ActionInstance('say "hi"', "T", "r"),),
    )
    dot = export_dot(program)
    assert dot.startswith('digraph "two words" {\n')
    assert '"say \\"hi\\"" [label="say \\"hi\\": T @r"];' in dot
    # DOT's keywords are reserved in any case; a name that only holds one stays bare.
    for name in ("graph", "Strict", "NODE", "edge", "digraph", "subGraph"):
        assert export_dot(dataclasses.replace(program, name=name)).startswith(f'digraph "{name}" {{\n')
    for name in ("graphs", "my_node", "_edge"):
        assert export_dot(dataclasses.replace(program, name=name)).startswith(f"digraph {name} {{\n")


@pytest.mark.parametrize("dsl_name,program_name", PROGRAM_FIXTURES)
def test_walkers_match_the_old_walkers_on_fixtures(dsl_name, program_name):
    dsl = load_dsl(fixture_text(dsl_name))
    text = fixture_text(program_name)
    assert load_program(text, dsl) == support.load_program_whole_tree(text, dsl)
    assert parse_program(text) == support.parse_program_whole_tree(text)


def test_walkers_match_the_old_walkers_on_random_documents():
    """The loaders against the whole-tree walk, on saved random programs
    (data flow, duplicate names, cycles, dangling predecessors) with one
    mutation each: the same Program, or the same error class and message.
    A document is unsound when the whole-tree parse refuses it as XML."""
    rng = random.Random(20240)
    loaded = failed = unsound = 0
    for _ in range(300):
        dsl, program = support.random_flow_setup(rng, max_actions=8)
        text = save_program(program)
        for doc in (text, support.mutate_program(rng, text)):
            structure = outcome(support.parse_program_whole_tree, doc)
            assert outcome(parse_program, doc) == structure, doc
            new = outcome(load_program, doc, dsl)
            assert new == outcome(support.load_program_whole_tree, doc, dsl), doc
            unsound += not isinstance(structure, Program) and structure[0] is XmlSyntaxError
            loaded += isinstance(new, Program)
            failed += not isinstance(new, Program)
    # Both outcomes, and both kinds of failure, well exercised.
    assert loaded > 150 and failed - unsound > 100 and unsound > 50


SLICES = (1, 7, 64, xmlio._SLICE)


def test_sliced_loaders_match_the_whole_tree_loaders_on_random_documents(monkeypatch):
    """Reading by slices against the whole-tree walk it replaced: the
    same Program, or the same error class and message, whatever the
    slice size, on saved random programs with up to two defects."""
    rng = random.Random(1313)
    outcomes = set()
    for index in range(520):
        setup = support.random_flow_setup if index % 2 else support.random_literal_setup
        dsl, program = setup(rng, max_actions=6)
        doc = save_program(program)
        for _ in range(index % 3):
            doc = support.mutate_program(rng, doc)
        loaded = outcome(support.load_program_whole_tree, doc, dsl)
        parsed = outcome(support.parse_program_whole_tree, doc)
        for size in SLICES:
            monkeypatch.setattr(xmlio, "_SLICE", size)
            assert outcome(load_program, doc, dsl) == loaded, (size, doc)
            assert outcome(parse_program, doc) == parsed, (size, doc)
        outcomes.add(Program if isinstance(loaded, Program) else loaded[0])
    # Loaded programs and every kind of error, well exercised.
    assert {Program, XmlSyntaxError, UnknownActionTypeError, UnresolvedReferenceError,
            DuplicateIdentifierError, CyclicGraphError, UnknownResourceTypeError} <= outcomes


PROLOG = ('<?xml version="1.0" encoding="UTF-8"?>\n<!-- written by hand -->\n'
          '<?editor line="3"?>\n<!DOCTYPE Program SYSTEM "program.dtd">\n')


def test_sliced_loaders_find_the_root_past_a_prolog(monkeypatch):
    """save_program writes no prolog, so the documents above have none:
    here a declaration, a comment, a processing instruction and a
    document type declaration precede the root, and a comment follows it."""
    rng = random.Random(2718)
    outcomes = set()
    for index in range(60):
        setup = support.random_flow_setup if index % 2 else support.random_literal_setup
        dsl, program = setup(rng, max_actions=6)
        bare = save_program(program)
        for _ in range(index % 3):
            bare = support.mutate_program(rng, bare)
        doc = PROLOG + bare + "<!-- the end -->\n"
        loaded = outcome(support.load_program_whole_tree, doc, dsl)
        parsed = outcome(support.parse_program_whole_tree, doc)
        for size in SLICES:
            monkeypatch.setattr(xmlio, "_SLICE", size)
            assert outcome(load_program, doc, dsl) == loaded, (size, doc)
            assert outcome(parse_program, doc) == parsed, (size, doc)
        if index % 3 == 0:  # unmutated: the prolog changes nothing
            assert loaded == outcome(load_program, bare, dsl)
            assert parsed == outcome(parse_program, bare)
        outcomes.add(Program if isinstance(loaded, Program) else loaded[0])
    assert {Program, XmlSyntaxError} < outcomes


@pytest.mark.parametrize("size", SLICES)
def test_a_stray_entry_beats_a_missing_attribute_only_in_its_own_section(monkeypatch, size):
    # At the small slice sizes the stray entry arrives slices after the
    # missing attribute.
    monkeypatch.setattr(xmlio, "_SLICE", size)
    padding = '<ActionInstance name="b" type="Measure" resource="r"/>' * 20
    same = typed_doc('<ActionInstance name="a" type="Measure"/>' + padding + "<Bogus/>")
    later = typed_doc(padding + "<Bogus/>").replace(' type="Rig"', "")
    for doc, message in ((same, "unexpected element <Bogus> inside <Actions>"),
                         (later, "<Resource> is missing required attribute 'type'")):
        with pytest.raises(XmlSyntaxError, match=re.escape(message)):
            load_program(doc, TYPED_DSL)
        with pytest.raises(XmlSyntaxError, match=re.escape(message)):
            parse_program(doc)


def _large_program(rng: random.Random, n: int) -> Program:
    """n TypedBot actions on eight rigs: literals and variable bindings,
    composite initializers, return targets, and up to two predecessors
    each from the eight actions before it."""
    resources = tuple(ResourceInstance(f"rig{i}", "Rig") for i in range(8))
    variables = tuple(VariableDecl(f"pose{i}", "Pose", {"x": rng.random(), "y": float(i)})
                      for i in range(n // 5))
    actions = []
    for i in range(n):
        resource, before = rng.choice(resources).name, range(max(0, i - 8), i)
        edges = tuple(f"act{j}" for j in rng.sample(before, min(2, len(before))))
        if i % 3 == 0:
            actions.append(ActionInstance(f"act{i}", "Measure", resource,
                                          return_to=f"count{i}", predecessors=edges))
            continue
        args = (ArgBinding("count", value=rng.randrange(100)), ArgBinding("rate", value=0.5),
                ArgBinding("on", value=i % 2 == 0), ArgBinding("label", value=f"step {i}"),
                ArgBinding("pose", variable=rng.choice(variables).name))
        actions.append(ActionInstance(f"act{i}", "Apply", resource, args, predecessors=edges))
    return Program("Large", "TypedBot", resources, variables, tuple(actions))


def _edit_last(text: str, tag: str, attr: str, new: str) -> str:
    """`text` with attribute `attr` of its last <tag> replaced by `new`."""
    at = text.rindex(f"<{tag} ")
    end = text.index(">", at)
    head = re.sub(rf' {attr}="[^"]*"', new, text[at:end], count=1)
    return text[:at] + head + text[end:]


LAST_ENTRY_DEFECTS = {  # section: (entry tag, a reference that fails to resolve)
    "Resources": ("Resource", "type"),
    "Variables": ("Variable", "type"),
    "Actions": ("ActionInstance", "type"),
    "Constraints": ("After", "predecessor"),
}


def test_sliced_loaders_match_on_defects_in_the_last_entry_of_each_section(monkeypatch):
    text = save_program(_large_program(random.Random(5), 300))
    assert len(text) > xmlio._SLICE
    unresolved = [_edit_last(text, tag, attr, f' {attr}="Nope"')
                  for tag, attr in LAST_ENTRY_DEFECTS.values()]
    missing = [_edit_last(text, tag, attr, "") for tag, attr in LAST_ENTRY_DEFECTS.values()]
    stray = [text.replace(f"</{section}>", f"<Bogus/></{section}>")
             for section in LAST_ENTRY_DEFECTS]
    everything = text
    for tag, attr in LAST_ENTRY_DEFECTS.values():
        everything = _edit_last(everything, tag, attr, f' {attr}="Nope"')
    docs = [text, *unresolved, *missing, *stray, everything]
    expected = [(doc, outcome(support.load_program_whole_tree, doc, TYPED_DSL),
                 outcome(support.parse_program_whole_tree, doc)) for doc in docs]
    for size in (xmlio._SLICE, 4093):
        monkeypatch.setattr(xmlio, "_SLICE", size)
        for doc, loaded, parsed in expected:
            assert outcome(load_program, doc, TYPED_DSL) == loaded
            assert outcome(parse_program, doc) == parsed
    assert isinstance(load_program(text, TYPED_DSL), Program)
    # Each defect is the one reported when it is alone.
    assert [outcome(load_program, doc, TYPED_DSL)[0] for doc in unresolved] == [
        UnknownResourceTypeError, UnknownVariableTypeError, UnknownActionTypeError,
        UnresolvedReferenceError]
    assert {outcome(load_program, doc, TYPED_DSL)[0] for doc in missing + stray} == {
        XmlSyntaxError}


def _peak_bytes(function, *args) -> int:
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loaders_never_hold_the_whole_element_tree():
    # Reading by slices keeps the model plus one slice of tree; the whole
    # tree alone takes far more than either loader's model.
    text = save_program(_large_program(random.Random(11), 2000))
    tree = _peak_bytes(xmlio.parse_root, text, "Program")
    assert _peak_bytes(parse_program, text) < tree / 2
    assert _peak_bytes(load_program, text, TYPED_DSL) < tree / 2


def test_robot_class_must_match_the_dsl():
    text = fixture_text("demo/five_stage.xml").replace('robotClass="DemoRig"',
                                                       'robotClass="SomethingElse"')
    dsl = load_dsl(fixture_text("demo/dsl.xml"))
    with pytest.raises(UnresolvedReferenceError, match="'SomethingElse'.*'DemoRig'"):
        load_program(text, dsl)
    # Without a DSL there is nothing to match against.
    assert parse_program(text).robot_class == "SomethingElse"


def test_robot_class_is_the_first_resolution_error():
    # Checked after the structural walk and before any resource resolves.
    doc = ('<Program name="P" robotClass="Other">'
           '<Resources><Resource name="r" type="Nope"/></Resources></Program>')
    with pytest.raises(UnresolvedReferenceError, match="robot class 'Other'"):
        load_program(doc, TYPED_DSL)
    with pytest.raises(XmlSyntaxError):
        load_program(doc.replace("</Program>", "<Bogus/></Program>"), TYPED_DSL)
    # And before any entry is read or judged: an action type the DSL lacks waits.
    unread = doc.replace("</Program>", '<Actions><ActionInstance name="a" type="Nope"'
                                       ' resource="r"/></Actions></Program>')
    with pytest.raises(UnresolvedReferenceError, match="robot class 'Other'"):
        load_program(unread, TYPED_DSL)
    with pytest.raises(UnknownActionTypeError, match="^action 'a' has unknown type 'Nope'$"):
        load_program(unread.replace('"Other"', '"TypedBot"'), TYPED_DSL)


def test_a_read_document_is_refused_exactly_by_its_first_declaration_finding(monkeypatch):
    """On seeded documents that parse and read, `load_program` refuses by
    a declaration rule exactly when the program the whole-tree reader makes
    of them, which keeps what their types do not let it read, has a finding
    of one under `validate_oracle`'s statements, and with the first such
    finding in report order.  The documents take the slice sizes in turn."""
    rng = random.Random(3636)
    whole = xmlio._SLICE
    seen = Counter()
    for index in range(2000):
        if index % 3 == 2:
            kind = rng.choice(("component", "placement", "undeclared_resource", "variable_type",
                               "robot_class"))
            dsl, program = support.hostile_setup(rng, kind)
        else:
            dsl, program = support.random_flow_setup(rng, max_actions=4)
        doc = save_program(program)
        for _ in range(1 + (index % 5 == 0)):
            doc = support.mutate_program(rng, doc)
        monkeypatch.setattr(xmlio, "_SLICE", SLICES[index % len(SLICES)])
        loaded = outcome(load_program, doc, dsl)
        monkeypatch.setattr(xmlio, "_SLICE", whole)
        read = outcome(support.read_program_whole_tree, doc, dsl)
        if not isinstance(read[0], Program):
            if read[1].startswith("program is written for robot class"):
                seen["robot class"] += 1  # refused before any entry is read or judged
                assert loaded == read, doc
            else:
                seen["not read"] += 1
            continue
        found = support.declaration_findings_oracle(read[0], dsl)
        if not found:
            seen["not refused"] += 1
            assert isinstance(loaded, Program) or loaded[0] is CyclicGraphError or \
                loaded[1].startswith("constraint references unknown action"), doc
            continue
        finding, error = found[0]
        assert loaded == (error, finding.message), doc
        seen[support.declaration_rule(finding.message)] += 1
        seen["more than one"] += len(found) > 1
    # Documents of each outcome and the first finding of every rule, well exercised.
    assert seen["not read"] < 1200 and seen["not refused"] > 250 and seen["robot class"] > 20, seen
    assert seen["more than one"] > 50, seen
    assert all(seen[rule] > 20 for rule in support.DECLARATION_RULES), seen
