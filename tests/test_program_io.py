"""Program XML loading, canonical serialization, and DOT export."""

import random
import re

import pytest

import support
from seqc.dsl import load_dsl
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
from seqc.model import ActionInstance, Program, ResourceInstance, VariableDecl
from seqc.program_io import (
    export_dot,
    graph_payload,
    load_program,
    parse_program,
    save_program,
)
from support import fixture_text

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
    assert mani.predecessors == {"MoveBase"}

    orientation = program.variable("orientation")
    assert orientation.init == {"x": 0.0, "y": 0.0, "z": 1.57}
    assert program.variable("armStatus").init == "idle"


def test_args_are_reordered_to_declaration_order():
    doc = typed_doc(
        one_apply('<Arg param="label" value="L"/><Arg param="count" value="3"/>')
    )
    program = load_program(doc, TYPED_DSL)
    assert [a.param for a in program.action("a").args] == ["count", "label"]


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
    assert program.action("a").predecessors == {"b"}
    assert program.action("b").predecessors == {"a"}


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


@pytest.mark.parametrize("dsl_name,program_name", PROGRAM_FIXTURES)
def test_walkers_match_the_old_walkers_on_fixtures(dsl_name, program_name):
    dsl = load_dsl(fixture_text(dsl_name))
    text = fixture_text(program_name)
    assert load_program(text, dsl) == support.load_program_oracle(text, dsl)
    assert parse_program(text) == support.parse_program_oracle(text)


def _mutate(rng: random.Random, text: str) -> str:
    """One random defect (or a harmless reordering) in a saved document."""
    lines = text.splitlines()
    entries = [i for i, line in enumerate(lines)
               if re.match(r"\s*<(Resource|Variable|ActionInstance|After|Arg) ", line)]
    kind = rng.choice(["drop_attr", "rename_section", "stray_entry", "unknown_type",
                       "unknown_endpoint", "duplicate_entry", "extra_edge", "self_edge",
                       "truncate", "reorder_sections", "unknown_resource_type",
                       "unknown_param", "bad_literal", "none"])
    if kind == "drop_attr" and entries:
        i = rng.choice(entries)
        attrs = re.findall(r' \w+="[^"]*"', lines[i])
        lines[i] = lines[i].replace(rng.choice(attrs), "", 1)
    elif kind == "rename_section":
        section = rng.choice(["Resources", "Variables", "Actions", "Constraints"])
        return re.sub(rf"<(/?){section}\b", rf"<\1{section}X", text)
    elif kind == "stray_entry":
        i = rng.randrange(1, len(lines) - 1)
        lines.insert(i + 1 if lines[i].endswith("s>") else i, "<Bogus/>")
    elif kind == "unknown_type":
        return re.sub(r'(<ActionInstance [^>]*type=)"[^"]*"', r'\1"Nope"', text, count=1)
    elif kind == "unknown_endpoint":
        return re.sub(r'predecessor="[^"]*"', 'predecessor="ghost"', text, count=1)
    elif kind == "duplicate_entry" and entries:
        i = rng.choice(entries)
        if lines[i].endswith("/>"):
            lines.insert(i, lines[i])
    elif kind in ("extra_edge", "self_edge"):
        names = re.findall(r'<ActionInstance name="([^"]*)"', text)
        a, b = rng.choice(names), rng.choice(names)
        edge = f'<After action="{a}" predecessor="{a if kind == "self_edge" else b}"/>'
        return text.replace("<Constraints/>", f"<Constraints>{edge}</Constraints>").replace(
            "<Constraints>\n", f"<Constraints>\n{edge}\n")
    elif kind == "truncate":
        return text[:rng.randrange(len(text))]
    elif kind == "reorder_sections":
        head, body = text.split("\n", 1)
        blocks = re.findall(r"(  <(\w+)(?:/>|>.*?</\2>)\n)", body, flags=re.S)
        assert len(blocks) == 4
        rng.shuffle(blocks)
        return head + "\n" + "".join(block for block, _ in blocks) + "</Program>\n"
    elif kind == "unknown_resource_type":
        return re.sub(r'(<Resource [^>]*type=)"[^"]*"', r'\1"Nope"', text, count=1)
    elif kind == "unknown_param":
        return text.replace('param="x"', 'param="y"', 1)
    elif kind == "bad_literal":
        return re.sub(r'value="[^"]*"', 'value="nan"', text, count=1)
    return "\n".join(lines) + "\n"


def _outcome(parse, *args):
    try:
        return parse(*args)
    except SeqcError as exc:
        return type(exc)


def test_walkers_match_the_old_walkers_on_random_documents():
    """The one-walk loaders against copies of the two walkers they
    replaced, on saved random programs (data flow, duplicate names,
    cycles, dangling predecessors) with one mutation each.

    The old load_program interleaved structural checks with resolution
    in document order; the new one reports a structural error, which
    is whatever the old parse_program rejected as XML, before resolving
    anything.  So load outcomes are compared on structurally sound
    documents, and on the others load must fail as parse does."""
    rng = random.Random(20240)
    loaded = failed = unsound = 0
    for _ in range(300):
        dsl, program = support.random_flow_setup(rng, max_actions=8)
        text = save_program(program)
        for doc in (text, _mutate(rng, text)):
            structure = _outcome(support.parse_program_oracle, doc)
            assert _outcome(parse_program, doc) == structure, doc
            new = _outcome(load_program, doc, dsl)
            if structure is XmlSyntaxError:
                assert new is XmlSyntaxError, doc
                unsound += 1
            else:
                assert new == _outcome(support.load_program_oracle, doc, dsl), doc
            loaded += isinstance(new, Program)
            failed += not isinstance(new, Program)
    # Both outcomes, and both kinds of failure, well exercised.
    assert loaded > 150 and failed - unsound > 100 and unsound > 50


def _graph_payload_oracle(program: Program) -> dict:
    """`graph --json` as the CLI built it before: per-action sorted
    predecessors, then one sort of all edges."""
    edges = []
    for action in program.actions:
        for predecessor in sorted(action.predecessors):
            edges.append({"from": predecessor, "to": action.name})
    edges.sort(key=lambda e: (e["from"], e["to"]))
    return {
        "name": program.name,
        "nodes": [{"name": a.name, "type": a.action_type, "resource": a.resource}
                  for a in program.actions],
        "edges": edges,
    }


def test_graph_payload_matches_the_old_cli_payload():
    rng = random.Random(77)
    for _ in range(200):
        _, program = support.random_flow_setup(rng, max_actions=8)
        assert graph_payload(program) == _graph_payload_oracle(program)
